import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fluxwalk.cli import bundled_scenarios, main
from fluxwalk.errors import EigenvalueAmbiguityError, NonSummableError, ValidationError
from fluxwalk.report import dump_report
from fluxwalk.scenarios import ANALYSES, run_scenario, validate_scenario


def load(name):
    return json.loads(bundled_scenarios()[name].read_text())


# sha256 of every bundled scenario's report.json, as `fluxwalk run` writes it
REPORT_SHA256 = json.loads((Path(__file__).parent / "data" / "report_sha256.json").read_text())
# sha256 of every other file (CSV output) that run_scenario returns, by name
FILES_SHA256 = json.loads((Path(__file__).parent / "data" / "files_sha256.json").read_text())


def test_every_bundled_scenario_validates():
    for name, path in bundled_scenarios().items():
        spec = json.loads(path.read_text())
        validate_scenario(spec)


def test_validate_rejects_missing_keys():
    with pytest.raises(ValidationError, match="schema_version"):
        validate_scenario({"kind": "walk"})
    spec = load("basic_example")
    del spec["analyses"]
    with pytest.raises(ValidationError, match="analyses"):
        validate_scenario(spec)


def test_validate_names_tangential_collision():
    spec = load("two_outgoing_leads")
    spec["projection"]["outgoing"].append(
        {"kind": "outgoing", "prefix": [[0, -2], [0, -1], [0, 0]], "ray": [0, 1]}
    )
    with pytest.raises(ValidationError, match=r"tangential.*\(0, 0\).*\(0, 1\)"):
        validate_scenario(spec)


def test_validate_rejects_unit_modulus_ray():
    spec = load("cc_rpath")
    spec["scattering"] = {"r_abs": 1.0, "phases": "unity"}
    with pytest.raises(ValidationError, match="index undefined at infinity"):
        validate_scenario(spec)


def test_run_scenario_basic_example_report():
    result = run_scenario(load("basic_example"))
    assert result.ok
    report = result.report
    assert report["schema_version"] == 1
    assert report["rng"] == {"algorithm": "PCG64", "seed": report["seed"]}
    block = report["analyses"]["index#0"]
    assert block["index"] == 1
    assert block["dim_ker_plus"] == 1
    assert block["certificate"]["ok"] is True
    assert "eigenphases.csv" in result.files


def test_run_scenario_deterministic():
    a = run_scenario(load("half_line_plus"))
    b = run_scenario(load("half_line_plus"))
    assert dump_report(a.report) == dump_report(b.report)


def test_seed_override_changes_data_not_conclusions():
    a = run_scenario(load("half_line_plus"), seed_override=1)
    b = run_scenario(load("half_line_plus"), seed_override=2)
    assert a.ok and b.ok
    assert a.report["seed"] != b.report["seed"]


def test_run_scenario_builds_its_setup_once(monkeypatch):
    # validation and the run share one setup and one generator stream
    import fluxwalk.scenarios as scenarios

    calls = []
    build = scenarios.build_walk_setup

    def counting(spec, rng):
        calls.append(spec["seed"])
        return build(spec, rng)

    monkeypatch.setattr(scenarios, "build_walk_setup", counting)
    result = run_scenario(load("half_line_plus"), seed_override=5)
    assert result.ok and calls == [5]


def count_calls(monkeypatch, names):
    """Count calls of package functions, including the copies that other
    modules imported with ``from .x import f``."""
    import fluxwalk.cc as cc
    import fluxwalk.flux as flux
    import fluxwalk.scenarios as scenarios
    import fluxwalk.walks as walks

    modules = (flux, walks, cc, scenarios)
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return counts


def test_walk_analyses_take_the_walk_from_the_flux(monkeypatch):
    # the setup's checked walk, read by spectrum_window and by the flux that
    # index, shift_decomposition and oracle_equivalence read (4 builds when
    # each analysis built its own flux, 2 when the flux checked its own walk)
    counts = count_calls(monkeypatch, ["build_walk"])
    assert run_scenario(load("basic_example")).ok
    assert counts == {"build_walk": 1}


def test_lead_network_analyses_reuse_the_checked_setup(monkeypatch):
    # index and shift_decomposition read the setup's flux, built from its
    # projection and its checked walk of the synthesized (already verified)
    # coin, and wandering reads that walk (2 builds when the flux checked its
    # own); the setup checks the network once when parsing, once in
    # synthesize_lead_coin and once in network_projection
    names = ["build_walk", "validate_network", "verify_lead_condition", "network_projection"]
    counts = count_calls(monkeypatch, names)
    assert run_scenario(load("two_incoming_leads")).ok
    assert counts == {
        "build_walk": 1,
        "validate_network": 3,
        "verify_lead_condition": 1,
        "network_projection": 1,
    }


@pytest.mark.parametrize(
    "name, assembled",
    # 3, 2, 2 and 123 when each analysis built its own base flux; cc_rpath
    # adds 100 ensemble draws and 20 reroutes to its one base flux
    [("basic_example", 1), ("half_line_plus", 1), ("two_incoming_leads", 1), ("cc_rpath", 121)],
)
def test_a_setup_assembles_its_base_flux_once(monkeypatch, name, assembled):
    counts = count_calls(monkeypatch, ["assemble_field"])
    assert run_scenario(load(name)).ok
    assert counts == {"assemble_field": assembled}


def test_validation_builds_no_model(monkeypatch):
    names = ["build_walk", "cc_flux", "assemble_field"]
    counts = count_calls(monkeypatch, names)
    for path in bundled_scenarios().values():
        validate_scenario(json.loads(path.read_text()))
    assert counts == dict.fromkeys(names, 0)


@pytest.mark.parametrize(
    "name, module, build, readers",
    [
        ("basic_example", "scenarios", "build_walk_flux", ["index", "shift_decomposition", "oracle_equivalence"]),
        ("cc_rpath", "cc", "cc_flux", ["index", "norm_law", "surgery"]),
    ],
)
def test_a_failing_base_flux_fails_every_reader(monkeypatch, name, module, build, readers):
    # failures are not kept: each reader builds again and records the error
    calls = []

    def failing(*args, **kwargs):
        calls.append(build)
        raise NonSummableError("tail does not sum")

    monkeypatch.setattr(f"fluxwalk.{module}.{build}", failing)
    spec = load(name)
    spec["analyses"] = [{"type": t} for t in readers] + [{"type": "spectrum_window", "box": 2}]
    analyses = run_scenario(spec).report["analyses"]
    for i, t in enumerate(readers):
        assert analyses[f"{t}#{i}"] == {"pass": False, "error": "tail does not sum"}
    assert analyses[f"spectrum_window#{len(readers)}"]["pass"] is True
    assert len(calls) == len(readers)


def test_oracle_without_window_blocks_is_not_applicable():
    # the reflecting boundary's flux vanishes, so there is no box to compress
    spec = load("bulk_boundary")
    spec["analyses"] = [{"type": "oracle_equivalence"}]
    result = run_scenario(spec)
    assert result.report["analyses"]["oracle_equivalence#0"] == {"applicable": False, "pass": True}


def test_each_dual_step_is_classified_once(monkeypatch):
    # 50 draws x 3 epsilons over one path (29 097 classifications when the
    # path kept none)
    import fluxwalk.cc as cc

    steps = []
    classify = cc.classify_step

    def recording(t, v, w):
        steps.append(t)
        return classify(t, v, w)

    monkeypatch.setattr(cc, "classify_step", recording)
    assert run_scenario(load("cc_anomalous")).ok
    assert steps and sorted(steps) == sorted(set(steps))


def test_run_scenario_validates_seed_override_and_spec_type():
    with pytest.raises(ValidationError, match="seed"):
        run_scenario(load("half_line_plus"), seed_override=-1)
    with pytest.raises(ValidationError, match="JSON object"):
        run_scenario([load("half_line_plus")])
    with pytest.raises(ValidationError, match="JSON object"):
        run_scenario([], seed_override=1)


def test_strict_profile_runs():
    result = run_scenario(load("basic_example"), profile="strict")
    assert result.ok
    assert result.report["tolerance_profile"] == "strict"


def test_failed_expectation_reports_failure():
    spec = load("half_line_plus")
    spec["analyses"] = [{"type": "index", "expect": -7}]
    result = run_scenario(spec)
    assert not result.ok
    assert result.report["analyses"]["index#0"]["pass"] is False


@pytest.mark.parametrize(
    "error",
    [EigenvalueAmbiguityError((0,), 1.0 - 5e-8, 1e-8), NonSummableError("tail does not sum")],
    ids=["ambiguity", "non-summable"],
)
def test_failing_analysis_keeps_the_rest_of_the_report(tmp_path, monkeypatch, error):
    def failing(setup, analysis, files):
        raise error

    monkeypatch.setitem(ANALYSES["walk"], "index", failing)
    spec = load("basic_example")
    spec["analyses"] = [{"type": "index", "expect": 1}, {"type": "oracle_equivalence"}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "basic_example" / "report.json").read_text())
    assert report["pass"] is False
    assert report["analyses"]["index#0"] == {"pass": False, "error": str(error)}
    oracle = report["analyses"]["oracle_equivalence#1"]
    assert oracle["pass"] is True and oracle["blockwise"] == oracle["dense"] == 1


# ---------------------------------------------------------------------------
# command line


def test_cli_list_and_validate(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "basic_example" in out and "cc_crossover_critical" in out
    assert main(["validate", "basic_example"]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_cli_run_writes_reports(tmp_path, capsys):
    code = main(["run", "basic_example", "--out", str(tmp_path)])
    assert code == 0
    report_file = tmp_path / "basic_example" / "report.json"
    assert report_file.exists()
    report = json.loads(report_file.read_text())
    assert report["pass"] is True
    assert (tmp_path / "basic_example" / "eigenphases.csv").exists()


def test_cli_run_determinism_byte_identical(tmp_path):
    main(["run", "half_line_minus", "--out", str(tmp_path / "a")])
    main(["run", "half_line_minus", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "half_line_minus" / "report.json").read_bytes()
    b = (tmp_path / "b" / "half_line_minus" / "report.json").read_bytes()
    assert a == b


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    # no partial reports for parse failures
    assert not (tmp_path / "broken").exists()

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"schema_version": 1, "kind": "nope"}))
    assert main(["run", str(invalid), "--out", str(tmp_path)]) == 3

    spec = load("half_line_plus")
    spec["analyses"] = [{"type": "index", "expect": 5}]
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(spec))
    assert main(["run", str(failing), "--out", str(tmp_path)]) == 1
    # assertion failures still write their report for inspection
    assert (tmp_path / "half_line_plus" / "report.json").exists()

    assert main(["run", "no_such_scenario", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["analyses"], [1], "analysis #0 must be a JSON object"),
        (["analyses", 0, "type"], ["index"], "analysis type ['index'] not available"),
        (["analyses", 0, "label"], [1], "analysis #0 label must be a string"),
        (["coin"], 5, "coin must be a JSON object"),
        (["geometry", "d"], "two", "geometry d must be a number, got 'two'"),
        (["coin", "n_cut"], "x", "coin n_cut must be a number, got 'x'"),
    ],
    ids=["analysis", "analysis_type", "analysis_label", "coin", "geometry_d", "n_cut"],
)
def test_malformed_fields_fail_validation(tmp_path, capsys, path, value, message):
    spec = load("basic_example")
    *outer, key = path
    target = spec
    for part in outer:
        target = target[part]
    target[key] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_scenario(spec)
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_scenario(spec)
    scenario_file = tmp_path / "malformed.json"
    scenario_file.write_text(json.dumps(spec))
    assert main(["validate", str(scenario_file)]) == 3
    assert main(["run", str(scenario_file), "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "basic_example").exists()


EXPLICIT_PATH = {"type": "explicit", "middle": [[0, 0]], "pre": [-1, 0], "post": [1, 0]}


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("cc_rpath", ["scattering"], 5, "scattering must be a JSON object"),
        ("two_incoming_leads", ["projection", "incoming"], 5, "network incoming must be a list"),
        ("two_incoming_leads", ["projection", "outgoing"], {}, "network outgoing must be a list"),
        ("two_incoming_leads", ["projection", "incoming", 0, "prefix"], 5, "lead prefix must be a list"),
        ("two_incoming_leads", ["projection", "incoming", 0, "prefix"], [1, 2], "lead site must be a list"),
        ("two_incoming_leads", ["projection", "incoming", 0, "ray"], 5, "lead ray must be a list"),
        ("cc_rpath", ["path", "middle"], 5, "path middle must be a list"),
        ("cc_rpath", ["path", "middle"], [5], "path vertex must be a list of 2 integers"),
        ("cc_rpath", ["path", "middle"], [[0, "a"]], "path vertex must be a number, got 'a'"),
        ("cc_rpath", ["path", "pre"], 5, "path pre must be a list of 2 integers"),
        ("cc_rpath", ["path", "post"], [1], "path post must be a list of 2 integers"),
    ],
    ids=[
        "scattering",
        "incoming",
        "outgoing",
        "prefix",
        "prefix_site",
        "lead_ray",
        "middle",
        "middle_vertex",
        "middle_coordinate",
        "pre",
        "post",
    ],
)
def test_malformed_structure_fails_validation(tmp_path, capsys, name, path, value, message):
    spec = load(name)
    if path[0] == "path":
        spec["path"] = dict(EXPLICIT_PATH)
        validate_scenario(spec)
    *outer, key = path
    target = spec
    for part in outer:
        target = target[part]
    target[key] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_scenario(spec)
    scenario_file = tmp_path / "malformed.json"
    scenario_file.write_text(json.dumps(spec))
    assert main(["validate", str(scenario_file)]) == 3
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_incoming_leads_analyses():
    return run_scenario(load("two_incoming_leads")).report["analyses"]


@pytest.mark.parametrize(
    "steps, message",
    [(2.9, "steps must be an integer, got 2.9"), (True, "steps must be a number, got True")],
    ids=["fraction", "boolean"],
)
def test_an_integer_field_rejects_fractions_and_booleans(two_incoming_leads_analyses, steps, message):
    spec = load("two_incoming_leads")
    wandering = next(i for i, a in enumerate(spec["analyses"]) if a["type"] == "wandering")
    spec["analyses"][wandering]["steps"] = steps
    validate_scenario(spec)
    analyses = run_scenario(spec).report["analyses"]
    key = f"wandering#{wandering}"
    assert analyses[key] == {"pass": False, "error": message}
    assert {k: v for k, v in analyses.items() if k != key} == {
        k: v for k, v in two_incoming_leads_analyses.items() if k != key
    }


def test_a_bad_analysis_parameter_fails_only_its_analysis(tmp_path, capsys):
    spec = load("two_incoming_leads")
    good = run_scenario(spec).report["analyses"]
    wandering = next(i for i, a in enumerate(spec["analyses"]) if a["type"] == "wandering")
    spec["analyses"][wandering]["steps"] = "many"
    validate_scenario(spec)
    analyses = run_scenario(spec).report["analyses"]
    key = f"wandering#{wandering}"
    assert analyses[key] == {"pass": False, "error": "steps must be a number, got 'many'"}
    assert {k: v for k, v in analyses.items() if k != key} == {
        k: v for k, v in good.items() if k != key
    }
    path = tmp_path / "bad_steps.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "two_incoming_leads" / "report.json").read_text())
    assert report["pass"] is False
    assert report["analyses"] == json.loads(json.dumps(analyses))


def test_interior_keys_are_integer_sites(tmp_path, capsys):
    from fluxwalk.scenarios import build_walk_setup

    spec = load("basic_example")
    spec["projection"]["interior"] = {"0": [0], "[-1]": [0, 1]}
    validate_scenario(spec)
    proj = build_walk_setup(spec, np.random.default_rng(0)).projection
    assert proj.open_slots((0,)) == {0}
    assert proj.open_slots((-1,)) == {0, 1}
    assert proj.open_slots((1,)) == set()

    for interior, message in [
        ({"x": [0]}, "interior key 'x'"),
        ({"0,1": [0]}, "interior key '0,1'"),
        ({"0": [2]}, "interior slots at '0'"),
        ([[0, 0]], "interior must map"),
    ]:
        spec["projection"]["interior"] = interior
        with pytest.raises(ValidationError, match=message):
            validate_scenario(spec)
    bad = tmp_path / "bad_interior.json"
    spec["projection"]["interior"] = {"x": [0]}
    bad.write_text(json.dumps(spec))
    assert main(["validate", str(bad)]) == 3
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 3


def test_cli_env_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FLUXWALK_OUT", str(tmp_path / "envout"))
    assert main(["run", "basic_example"]) == 0
    assert (tmp_path / "envout" / "basic_example" / "report.json").exists()


def test_cli_jobs_flag(tmp_path):
    code = main(
        [
            "run",
            "half_line_plus",
            "half_line_minus",
            "--jobs",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "half_line_plus" / "report.json").exists()
    assert (tmp_path / "half_line_minus" / "report.json").exists()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fluxwalk.cli", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "basic_example" in proc.stdout


def test_golden_digests_cover_every_bundled_scenario():
    assert sorted(REPORT_SHA256) == sorted(FILES_SHA256) == sorted(bundled_scenarios())


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_bundled_report_matches_its_golden_digest(name):
    text = dump_report(run_scenario(load(name)).report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[name]


@pytest.mark.parametrize("name", sorted(FILES_SHA256))
def test_bundled_files_match_their_golden_digests(name):
    files = run_scenario(load(name)).files
    digests = {f: hashlib.sha256(text.encode("utf-8")).hexdigest() for f, text in files.items()}
    assert digests == FILES_SHA256[name]
