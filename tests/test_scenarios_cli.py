import hashlib
import itertools
import json
import math
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fluxwalk.cli as cli_module
import fluxwalk.scenarios as scenarios_module
from fluxwalk.cli import bundled_scenarios, main
from fluxwalk.config import EPSILON_LEAST
from fluxwalk.errors import (
    CertificationError,
    ConsistencyError,
    EigenvalueAmbiguityError,
    NonSummableError,
    ValidationError,
)
from fluxwalk.report import dump_report
from fluxwalk.scenarios import ANALYSES, ARGUMENTS, _checked_setup, run_scenario, validate_scenario
from fluxwalk.walks import verify_confinement


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


def assert_invalid(tmp_path, capsys, spec, message):
    """``spec`` fails validation with ``message``, and the CLI exits 3 on it
    from ``validate`` and from ``run``, writing no report."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_scenario(spec)
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_scenario(spec)
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(spec))  # Python's json writes NaN and Infinity
    out = tmp_path / "out"
    assert main(["validate", str(scenario_file)]) == 3
    assert main(["run", str(scenario_file), "--out", str(out)]) == 3
    assert capsys.readouterr().err.count(message) == 2
    assert not out.exists()


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


def test_a_cc_setup_reads_its_drawn_window_without_a_dict_view(monkeypatch):
    # the scattering map keeps the drawn (153, 3) random-phase block itself
    # as its window values, and the tail-weight probes read it through
    # SiteMap.value, off the window's SiteIndex
    draws, draw = [], scenarios_module.ccm.random_phase_window
    monkeypatch.setattr(scenarios_module.ccm, "random_phase_window", lambda *a, **k: draws.append(draw(*a, **k)) or draws[-1])
    setup = _checked_setup(load("cc_anomalous"))
    (cells, block), = draws
    assert setup.scattering.window_values is block and block.shape == (153, 3)
    assert setup.scattering.window_coords.T.tolist() == cells.tolist()
    assert [n.split(" with")[0] for n in setup.notes] == ["pre ray is r-pure", "post ray is t-pure"]


def test_run_scenario_basic_example_report(bundled_run):
    result = bundled_run("basic_example")
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

    def counting(spec, rng, tol):
        calls.append(spec["seed"])
        return build(spec, rng, tol)

    monkeypatch.setattr(scenarios, "build_walk_setup", counting)
    result = run_scenario(load("half_line_plus"), seed_override=5)
    assert result.ok and calls == [5]


@pytest.mark.parametrize("name", ["two_incoming_leads", "lead_networks_random"])
def test_lead_synthesis_runs_under_the_run_profile(monkeypatch, name):
    # the setup's lead coin and every ensemble draw's are checked with the
    # run's tolerances, not the default profile's
    import fluxwalk.walks as walks
    from fluxwalk.config import DEFAULT, STRICT

    seen, check = [], walks.verify_lead_condition

    def spy(coin, network, tol=DEFAULT):
        seen.append(tol)
        return check(coin, network, tol)

    monkeypatch.setattr(walks, "verify_lead_condition", spy)
    run_scenario(load(name), profile="strict")
    assert seen and all(tol is STRICT for tol in seen)


def count_calls(monkeypatch, names):
    """Count calls of package functions, including the copies that other
    modules imported with ``from .x import f``."""
    import fluxwalk.cc as cc
    import fluxwalk.flux as flux
    import fluxwalk.scenarios as scenarios
    import fluxwalk.shift as shift
    import fluxwalk.walks as walks

    modules = (flux, walks, cc, scenarios, shift)
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
    # own); the setup checks the network once, when parsing, and
    # synthesize_lead_coin and network_projection take the checked network
    # (3 checks when each of them checked it again)
    names = ["build_walk", "validate_network", "verify_lead_condition", "network_projection"]
    counts = count_calls(monkeypatch, names)
    assert run_scenario(load("two_incoming_leads")).ok
    assert counts == {
        "build_walk": 1,
        "validate_network": 1,
        "verify_lead_condition": 1,
        "network_projection": 1,
    }


@pytest.mark.parametrize(
    "name, assembled",
    # 3, 2, 2 and 123 when each analysis built its own base flux; cc_rpath
    # adds 100 ensemble draws and the 11 distinct paths of its 20 reroutes
    # to its one base flux (121 when surgery analysed every reroute)
    [("basic_example", 1), ("half_line_plus", 1), ("two_incoming_leads", 1), ("cc_rpath", 112)],
)
def test_a_setup_assembles_its_base_flux_once(monkeypatch, name, assembled):
    # each assembled flux builds its window once, and validation one more;
    # a CC flux keeps its selfcheck probes under its probe window and stack
    # size in its plan
    import fluxwalk.cc as cc

    names = ["assemble_field", "walk_flux_window", "cc_flux_window"]
    counts = count_calls(monkeypatch, names)
    keys, selfcheck = [], cc.selfcheck_against_operator

    def recording(fluxes, probes):
        before = set(probes)
        worst = selfcheck(fluxes, probes)
        keys.append(((fluxes[0].geometry.probe_window, len(fluxes)), before, set(probes)))
        return worst

    monkeypatch.setattr(cc, "selfcheck_against_operator", recording)
    assert run_scenario(load(name)).ok
    built = "cc_flux_window" if name.startswith("cc") else "walk_flux_window"
    assert counts == {**dict.fromkeys(names, 0), "assemble_field": assembled, built: assembled + 1}
    assert len(keys) == (assembled if name.startswith("cc") else 0)
    assert all(after == before | {window} for window, before, after in keys)


@pytest.mark.parametrize(
    "name, blocks",
    # 5 and 8 calls when the kernel count, the kernel extraction, the
    # perturbed unitary and the shift check each classified the kept blocks again
    [("basic_example", [1, 1]), ("two_incoming_leads", [2])],
    ids=["basic_example", "two_incoming_leads"],
)
def test_a_run_classifies_each_kept_block_once(monkeypatch, name, blocks):
    # one pass over the field's eigh stack, one row per kept block (one for
    # basic_example, two for two_incoming_leads), and for basic_example one
    # over the dense oracle's spectrum, a stack of one row
    import fluxwalk.flux as flux

    rows, classify = [], flux.classify_unit
    monkeypatch.setattr(flux, "classify_unit", lambda evals, *args: rows.append(len(evals)) or classify(evals, *args))
    assert run_scenario(load(name)).ok
    assert rows == blocks
    modules = [m for n, m in sys.modules.items() if n.startswith("fluxwalk.")]
    assert [m.__name__ for m in modules if hasattr(m, "classify_unit")] == ["fluxwalk.flux"]


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
    analyses = run_scenario(spec).report["analyses"]
    assert analyses["oracle_equivalence#0"] == {"applicable": False, "pass": True}
    # its parameters are checked all the same, before the run
    spec["analyses"].append({"type": "oracle_equivalence", "pad": -1})
    message = "analysis #1 (oracle_equivalence) pad must be at least 0, got -1"
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_scenario(spec)


def test_each_dual_step_is_classified_once(monkeypatch):
    # 50 draws x 3 epsilons over one path (29 097 classifications when the
    # path kept none): every range of t that an array pass classifies
    import fluxwalk.cc as cc

    steps = []
    classify = cc.DualPath._classify

    def recording(path, t0, t1):
        steps.extend(range(t0, t1))
        return classify(path, t0, t1)

    monkeypatch.setattr(cc.DualPath, "_classify", recording)
    assert run_scenario(load("cc_anomalous")).ok
    assert steps and sorted(steps) == sorted(set(steps))


def test_run_scenario_validates_seed_override_and_spec_type():
    with pytest.raises(ValidationError, match="seed"):
        run_scenario(load("half_line_plus"), seed_override=-1)
    # a boolean is no seed: true used to run as seed 1 and be recorded as true
    with pytest.raises(ValidationError, match="seed must be a number, got True"):
        run_scenario(load("half_line_plus"), seed_override=True)
    with pytest.raises(ValidationError, match="seed must be a number, got True"):
        validate_scenario({**load("half_line_plus"), "seed": True})
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
    "name, atype, expect, expect_abs, passes",
    [
        ("half_line_plus", "index", 1, 7, False),
        ("half_line_plus", "index", 7, 1, False),
        ("half_line_plus", "index", 1, 1, True),
        ("cc_rpath", "ensemble_index", 0, 1, False),
        ("cc_rpath", "ensemble_index", 0, 0, True),
    ],
    ids=["index_abs_missed", "index_signed_missed", "index_both_met", "ensemble_abs_missed", "ensemble_both_met"],
)
def test_every_expectation_given_is_checked(name, atype, expect, expect_abs, passes):
    # the index analysis used to skip expect_abs when expect was also given,
    # so index 1 passed an expect_abs of 7
    spec = load(name)
    spec["analyses"] = [{"type": atype, "expect": expect, "expect_abs": expect_abs}]
    if atype == "ensemble_index":
        spec["analyses"][0]["draws"] = 2
    block = run_scenario(spec).report["analyses"][f"{atype}#0"]
    assert (block["expected"], block["expected_abs"], block["pass"]) == (expect, expect_abs, passes)


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


def test_an_internal_error_keeps_the_rest_of_the_report(tmp_path, monkeypatch, capsys, caplog, bundled_run):
    # an exception outside the FluxwalkError family is recorded in its own
    # block, named by type, and logged with its traceback; the analyses
    # after it still run, and the CLI writes the report and exits 4, as for
    # a failed internal check
    want = bundled_run("two_incoming_leads")

    def broken(setup, analysis, files):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setitem(ANALYSES["walk"], "shift_decomposition", broken)
    result = run_scenario(load("two_incoming_leads"))
    key = "shift_decomposition#1"
    assert result.report["analyses"][key] == {
        "pass": False,
        "error": "ValueError: operands could not be broadcast together",
        "internal_error": "ValueError",
    }
    assert [*result.report["analyses"]] == [*want.report["analyses"]]
    assert {k: v for k, v in result.report["analyses"].items() if k != key} == {
        k: v for k, v in want.report["analyses"].items() if k != key
    }
    assert result.report["pass"] is False and result.files == want.files
    assert main(["run", "two_incoming_leads", "--out", str(tmp_path)]) == 4
    assert "error: internal: two_incoming_leads" in capsys.readouterr().err
    # the traceback is logged, once per run
    logged = [r for r in caplog.records if r.name == "fluxwalk.scenarios" and r.exc_info]
    assert [r.getMessage() for r in logged] == ["analysis #1 (shift_decomposition) raised an internal error"] * 2
    assert all(r.exc_info[0] is ValueError for r in logged)
    written = (tmp_path / "two_incoming_leads" / "report.json").read_text()
    assert written == dump_report(result.report)


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
    "error, code",
    [
        (ValidationError("bad input"), 3),
        (ConsistencyError("blockwise flux deviates from U*PU - P by 1e-06"), 4),
        (CertificationError("certificate failed: tail bound 1 at radius 3"), 5),
        (EigenvalueAmbiguityError((0,), 0.9999, 1e-6), 5),
        (NonSummableError("tail blocks are not identically zero"), 5),
    ],
)
def test_cli_exit_code_names_the_error_class(monkeypatch, tmp_path, capsys, error, code):
    # bad input exits 3, a failed internal check 4, and an undefined
    # quantity 5; each prints the error's own message
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_module, "run_scenario", failing)
    assert main(["run", "basic_example", "--out", str(tmp_path)]) == code
    assert str(error) in capsys.readouterr().err
    assert not (tmp_path / "basic_example").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("name", 7, "scenario name 7 must name one file"),
        ("name", True, "scenario name True must name one file"),
        ("name", math.nan, "scenario name nan must name one file"),
        ("name", [], "scenario name [] must name one file"),
        ("name", "", "scenario name '' must name one file"),
        ("name", ".", "scenario name '.' must name one file"),
        ("name", "..", "scenario name '..' must name one file"),
        ("name", "../x", "scenario name '../x' must name one file"),
        ("name", "/tmp/x", "scenario name '/tmp/x' must name one file"),
        ("name", "a\\b", "scenario name 'a\\\\b' must name one file"),
        ("name", "a\0b", "scenario name 'a\\x00b' must name one file"),
        ("schema_version", True, "unsupported schema_version True"),
    ],
    ids=["int", "bool", "nan", "list", "empty", "dot", "dotdot", "parent", "absolute", "backslash", "nul", "version_bool"],
)
def test_a_scenario_name_names_one_file_and_the_version_is_the_integer_1(tmp_path, capsys, key, value, message):
    # a name that is no string used to validate and then crash the run on
    # ``Path(out) / name``; "../x" and "/tmp/x" wrote outside --out
    spec = load("basic_example")
    spec[key] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_scenario(spec)
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["validate", str(scenario_file)]) == 3
    assert main(["run", str(scenario_file), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


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
        ("two_incoming_leads", ["projection", "incoming"], 5, "projection incoming must be a list"),
        ("two_incoming_leads", ["projection", "outgoing"], {}, "projection outgoing must be a list"),
        ("two_incoming_leads", ["projection", "incoming", 0, "prefix"], 5, "lead prefix must be a list"),
        ("two_incoming_leads", ["projection", "incoming", 0, "prefix"], [1, 2], "lead site must be a list"),
        ("two_incoming_leads", ["projection", "incoming", 0, "ray"], 5, "lead ray must be a list"),
        ("cc_rpath", ["path", "middle"], 5, "path middle must be a list"),
        ("cc_rpath", ["path", "middle"], [5], "path middle vertex must be a list of 2 integers"),
        ("cc_rpath", ["path", "middle"], [[0, "a"]], "path middle vertex must be a number, got 'a'"),
        ("cc_rpath", ["path", "pre"], 5, "path pre must be a list of 2 integers"),
        ("cc_rpath", ["path", "post"], [1], "path post must be a list of 2 integers"),
        ("half_line_plus", ["geometry", "d"], 0, "geometry d must be at least 1, got 0"),
        ("half_line_plus", ["coin", "sign"], 0, "coin sign must be 1 or -1, got 0"),
        ("half_line_plus", ["projection", "sign"], 2, "projection sign must be 1 or -1, got 2"),
        ("cc_crossover_r02", ["path", "west_first"], "false", "path west_first must be true or false, got 'false'"),
        ("bulk_boundary_leads", ["projection", "boundary"], "false", "projection boundary must be true or false"),
        ("cc_rpath", ["scattering", "template"], "critcal", "scattering template must be \"critical\", got 'critcal'"),
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
        "geometry_d",
        "coin_sign",
        "projection_sign",
        "west_first",
        "boundary",
        "template",
    ],
)
def test_malformed_structure_fails_validation(tmp_path, capsys, name, path, value, message):
    spec = load(name)
    if path[0] == "path" and path[1] in EXPLICIT_PATH:
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


@pytest.mark.parametrize(
    "name, path",
    [
        ("basic_example", ["coin", "box"]),
        ("basic_example", ["coin", "n_cut"]),
        ("two_incoming_leads", ["coin", "background_box"]),
        ("cc_rpath", ["scattering", "window"]),
    ],
    ids=["coin_box", "coin_n_cut", "background_box", "scattering_window"],
)
def test_negative_setup_sizes_fail_validation(tmp_path, capsys, name, path):
    # each shrank or emptied the random coin or phase window and passed
    spec = load(name)
    *outer, key = path
    target = spec
    for part in outer:
        target = target[part]
    target[key] = -1
    message = f"{outer[0]} {key} must be at least 0, got -1"
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_scenario(spec)
    scenario_file = tmp_path / "negative.json"
    scenario_file.write_text(json.dumps(spec))
    assert main(["validate", str(scenario_file)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, edits, message",
    [
        ("two_incoming_leads", {"prefix": [[2**40, 1], [2**40, 0]]}, "the flux window holds 20890720928048 labels"),
        ("two_incoming_leads", {"prefix": [[2**62, 1], [2**62, 0]]}, "the flux window holds 87622034350120370480 labels"),
        ("two_incoming_leads", {"prefix": [[2**63, 1], [2**63, 0]]}, "lead site must fit in 64 bits"),
        ("two_incoming_leads", {"prefix": [[13782, 1], [13782, 0]]}, "the flux window holds 262162 labels, more than 262144"),
        ("cc_rpath", {"height": 2**62}, "the flux window holds 152185638608103801261 labels"),
        ("cc_rpath", {"height": 4000}, "the region box holds 321280 points, more than 262144"),
        ("cc_rpath", {"height": 10**6, "window": None}, "the phase window holds 8000070000153 cells"),
        ("cc_rpath", {"height": 2**62, "window": None}, "the phase window holds 170141183460469232054505325005801259161 cells"),
    ],
    ids=["prefix_2_40", "prefix_2_62", "prefix_2_63", "prefix_just_over", "height_2_62", "region_box", "height_10_6", "height_2_62_no_window"],
)
def test_a_window_too_large_fails_validation(tmp_path, capsys, name, edits, message):
    # unchecked, each of these fails inside NumPy with an error that is not a
    # FluxwalkError, or, for the 10**6 path, exhausts the memory
    spec = load(name)
    targets = {
        "prefix": spec["projection"]["incoming"][0] if "projection" in spec else None,
        "height": spec.get("path"),
        "window": spec.get("scattering"),
    }
    for key, value in edits.items():
        if value is None:
            del targets[key][key]
        else:
            targets[key][key] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_scenario(spec)
    scenario_file = tmp_path / "too_large.json"
    scenario_file.write_text(json.dumps(spec))
    assert main(["validate", str(scenario_file)]) == 3
    assert message in capsys.readouterr().err


class Drawn(Exception):
    """A draw or a site listing that a window reached before it was sized."""


def drawn(*args, **kwargs):
    raise Drawn


class DrawlessGenerator:
    """A generator whose every draw raises ``Drawn``."""

    def __getattr__(self, name):
        raise Drawn


@pytest.mark.parametrize(
    "name, edits, message",
    [
        ("half_line_plus", {"geometry": {"d": 3}, "coin": {"box": 40}}, "the coin window holds 531441 sites, more than 262144"),
        ("basic_example", {"coin": {"box": 10**7}}, "the coin window holds 20000002 sites, more than 262144"),
        ("bulk_boundary", {"coin": {"box": 10**4}}, "the coin window holds 400040001 sites, more than 262144"),
        ("two_incoming_leads", {"coin": {"background_box": 10**4}}, "the coin window holds 400040001 sites"),
        ("bulk_boundary_leads", {"coin": {"background_box": 10**4}}, "the coin window holds 400040001 sites"),
    ],
    ids=["halfline_d3_box40", "basic_example_box_10_7", "reflecting_box_10_4", "background_box", "reflecting_background_box"],
)
def test_a_coin_window_is_sized_before_it_is_listed_or_drawn(monkeypatch, tmp_path, capsys, name, edits, message):
    # each window used to be listed or drawn site by site before any size
    # check (the reflecting box of 10**4 exhausted the memory); with every
    # draw and every site listing made to raise, the size check comes first
    monkeypatch.setattr(scenarios_module, "_rng", lambda seed: DrawlessGenerator())
    monkeypatch.setattr(itertools, "product", drawn)
    spec = load(name)
    for slot, values in edits.items():
        spec[slot].update(values)
    assert_invalid(tmp_path, capsys, spec, message)


@pytest.mark.parametrize(
    "name, analysis, message",
    [
        ("bulk_boundary", {"type": "confinement", "steps": 10**7}, "steps must be at most 255, got 10000000"),
        ("cc_crossover_r02", {"type": "ensemble_index", "draws": 10**9}, "draws must be at most 256, got 1000000000"),
        ("lead_networks_random", {"type": "network_ensemble", "max_leads": 10**6}, "max_leads must be at most 16, got 1000000"),
        ("cc_anomalous", {"type": "anomalous_transport", "epsilons": [1e-12]}, "epsilons must be at least 0.000244140625, got 1e-12"),
    ],
    ids=["confinement_steps", "ensemble_draws", "max_leads", "epsilon"],
)
def test_an_outsized_run_fails_validation(tmp_path, capsys, name, analysis, message):
    # each validated and then ran for days, or asked for about 10^12 steps
    spec = load(name)
    spec["analyses"] = [analysis]
    assert_invalid(tmp_path, capsys, spec, f"analysis #0 ({analysis['type']}) {message}")


def test_the_least_epsilon_runs_on_the_bundled_crossover():
    # its cutoff of 4096 steps and its capped window of 140 216 labels fit
    spec = load("cc_anomalous")
    spec["analyses"] = [{"type": "anomalous_transport", "epsilons": [EPSILON_LEAST]}]
    assert run_scenario(spec).report["analyses"]["anomalous_transport#0"]["pass"]


def test_evolution_steps_are_sized_by_their_reach():
    # 255 steps fit any d <= 2; in d = 3 the box that 50 steps reach does not
    spec = load("half_line_plus")
    spec["geometry"]["d"] = 3
    spec["analyses"] = [{"type": "shift_decomposition", "steps": 30}]
    validate_scenario(spec)  # 61^3 sites
    spec["analyses"][0]["steps"] = 50
    message = "the box that analysis #0 (shift_decomposition) steps reach holds 1030301 sites, more than 262144"
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_scenario(spec)


def test_a_confinement_box_is_sized_before_its_sites_are_listed(monkeypatch):
    walk = _checked_setup(load("bulk_boundary")).unitary
    monkeypatch.setattr(itertools, "product", drawn)
    message = "the confinement box holds 200030001 sites, more than 262144"
    with pytest.raises(ValidationError, match=re.escape(message)):
        verify_confinement(walk, DrawlessGenerator(), steps=1, box=10**4)


@pytest.mark.parametrize("kind, atype", [(kind, atype) for kind, types in ANALYSES.items() for atype in types])
def test_an_unknown_analysis_key_fails_validation(kind, atype):
    assert ARGUMENTS.keys() == {t for types in ANALYSES.values() for t in types}
    spec = load({"walk": "two_incoming_leads", "cc": "cc_rpath"}[kind])
    spec["analyses"] = [{"type": atype, "label": "x", "bogus": 1}]
    allowed = ", ".join(("type", "label", *ARGUMENTS[atype]))
    message = f"analysis #0 ({atype}) has unknown key 'bogus'; allowed keys: {allowed}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_scenario(spec)
    del spec["analyses"][0]["bogus"]
    validate_scenario(spec)


@pytest.mark.parametrize(
    "name, analysis, key",
    [
        ("half_line_plus", {"type": "index", "expcet": 7}, "expcet"),
        ("two_incoming_leads", {"type": "wandering", "stepz": 5}, "stepz"),
        ("cc_rpath", {"type": "ensemble_index", "draws": 2, "expcet": 5}, "expcet"),
    ],
    ids=["index_expect", "wandering_steps", "ensemble_expect"],
)
def test_a_misspelled_analysis_key_fails_validation(tmp_path, capsys, name, analysis, key):
    # each used to pass, with nothing compared or the default steps run
    spec = load(name)
    spec["analyses"].append(analysis)
    message = f"has unknown key {key!r}; allowed keys: type, label, "
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_scenario(spec)
    scenario_file = tmp_path / "misspelled.json"
    scenario_file.write_text(json.dumps(spec))
    assert main(["validate", str(scenario_file)]) == 3
    assert message in capsys.readouterr().err
    assert main(["run", str(scenario_file), "--out", str(tmp_path)]) == 3


WALK_KEYS = "schema_version, name, description, kind, seed, geometry, coin, projection, analyses"
CC_KEYS = "schema_version, name, description, kind, seed, path, scattering, analyses"


UNKNOWN_KEYS = [
    # the three typos that used to pass validation
    ("two_incoming_leads", ("coin",), "coin", "backgound_box", "type, background_box"),
    ("cc_rpath", ("scattering",), "scattering", "windwo", "template, r_abs, phases, window"),
    ("cc_rpath", (), "scenario", "pth", CC_KEYS),
    # one unknown key at every other level and type
    ("basic_example", (), "scenario", "coins", WALK_KEYS),
    ("basic_example", ("geometry",), "geometry", "dim", "d"),
    ("basic_example", ("coin",), "coin", "ncut", "type, n_cut, box"),
    ("half_line_plus", ("coin",), "coin", "boxes", "type, sign, box"),
    ("bulk_boundary", ("coin",), "coin", "sign", "type, box"),
    ("basic_example", ("projection",), "projection", "inner", "type, n_cut, interior"),
    ("half_line_plus", ("projection",), "projection", "sing", "type, sign"),
    ("bulk_boundary", ("projection",), "projection", "boundary", "type"),
    ("two_incoming_leads", ("projection",), "projection", "outgoin", "type, incoming, outgoing, boundary"),
    ("two_incoming_leads", ("projection", "incoming", 1), "lead", "rays", "kind, prefix, ray"),
    ("two_outgoing_leads", ("projection", "outgoing", 0), "lead", "prefx", "kind, prefix, ray"),
    ("cc_rpath", ("path",), "path", "hieght", "type, height"),
    ("cc_anomalous", ("path",), "path", "west", "type, west_first"),
]


@pytest.mark.parametrize("name, where, context, key, allowed", UNKNOWN_KEYS, ids=[case[3] for case in UNKNOWN_KEYS])
def test_an_unknown_scenario_key_fails_validation(tmp_path, capsys, name, where, context, key, allowed):
    spec = load(name)
    target = spec
    for step in where:
        target = target[step]
    target[key] = 1
    message = f"{context} has unknown key {key!r}; allowed keys: {allowed}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_scenario(spec)
    scenario_file = tmp_path / "unknown_key.json"
    scenario_file.write_text(json.dumps(spec))
    assert main(["validate", str(scenario_file)]) == 3
    assert message in capsys.readouterr().err
    del target[key]
    validate_scenario(spec)


def test_every_bench_spec_validates():
    # one seed-3 batch of each benchmark workload; the generators are read
    # with runpy, which writes no bytecode next to them
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "fluxbench" / "workloads.py"))
    for name in workloads["WORKLOADS"]:
        jobs = workloads["generate"](name, 3, 1)
        assert len(jobs) == len(workloads["WORKLOADS"][name][0])
        for job in jobs:
            validate_scenario(job.spec)


def test_wandering_without_leads_fails_only_that_analysis():
    # it used to pass with nothing checked: {"leads": [], "steps": 50, "pass": true}
    spec = load("bulk_boundary")
    spec["analyses"].append({"type": "wandering"})
    setup = _checked_setup(spec)
    message = "wandering needs a lead network with at least one lead"
    with pytest.raises(ValidationError, match=message):
        ANALYSES["walk"]["wandering"](setup, setup.analyses["wandering#2"][1], {})
    analyses = run_scenario(spec).report["analyses"]
    assert analyses.pop("wandering#2") == {"pass": False, "error": message}
    assert all(result["pass"] for result in analyses.values())


@pytest.mark.parametrize(
    "steps, message",
    [(2.9, "steps must be an integer, got 2.9"), (True, "steps must be a number, got True")],
    ids=["fraction", "boolean"],
)
def test_an_integer_field_rejects_fractions_and_booleans(tmp_path, capsys, steps, message):
    spec = load("two_incoming_leads")
    wandering = next(i for i, a in enumerate(spec["analyses"]) if a["type"] == "wandering")
    spec["analyses"][wandering]["steps"] = steps
    assert_invalid(tmp_path, capsys, spec, f"analysis #{wandering} (wandering) {message}")


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("half_line_plus", ["seed"], "3", "seed must be a number, got '3'"),
        ("half_line_plus", ["analyses", 0, "expect"], "1", "analysis #0 (index) expect must be a number, got '1'"),
        ("basic_example", ["coin", "box"], "2", "coin box must be a number, got '2'"),
        ("basic_example", ["geometry", "d"], "1", "geometry d must be a number, got '1'"),
        ("half_line_plus", ["coin", "sign"], "1", "coin sign must be 1 or -1, got '1'"),
        ("cc_rpath", ["scattering", "r_abs"], "0.3", "scattering r_abs must be a number, got '0.3'"),
    ],
    ids=["seed", "expect", "coin_box", "geometry_d", "coin_sign", "r_abs"],
)
def test_a_quoted_number_is_no_number(tmp_path, capsys, name, path, value, message):
    # each validated and ran as the number it quotes
    spec = load(name)
    *outer, key = path
    target = spec
    for part in outer:
        target = target[part]
    target[key] = value
    assert_invalid(tmp_path, capsys, spec, message)


def test_a_bad_analysis_parameter_fails_validation(tmp_path, capsys):
    # it used to validate and then fail its analysis only, in the run
    spec = load("two_incoming_leads")
    wandering = next(i for i, a in enumerate(spec["analyses"]) if a["type"] == "wandering")
    spec["analyses"][wandering]["steps"] = "many"
    assert_invalid(tmp_path, capsys, spec, f"analysis #{wandering} (wandering) steps must be a number, got 'many'")


@pytest.mark.parametrize(
    "name, atype, key, value, message",
    [
        ("bulk_boundary", "confinement", "steps", 0, "steps must be at least 1, got 0"),
        ("bulk_boundary", "confinement", "steps", -3, "steps must be at least 1, got -3"),
        ("bulk_boundary", "confinement", "box", -1, "box must be at least 0, got -1"),
        ("lead_networks_random", "network_ensemble", "draws", 0, "draws must be at least 1, got 0"),
        ("lead_networks_random", "network_ensemble", "draws", -5, "draws must be at least 1, got -5"),
        ("lead_networks_random", "network_ensemble", "max_leads", -1, "max_leads must be at least 0, got -1"),
        ("lead_networks_random", "network_ensemble", "box", -1, "box must be at least 0, got -1"),
        ("cc_crossover_r02", "ensemble_index", "draws", 0, "draws must be at least 1, got 0"),
        ("cc_anomalous", "anomalous_transport", "draws", 0, "draws must be at least 1, got 0"),
        ("cc_anomalous", "anomalous_transport", "epsilons", [], "epsilons must be a nonempty list of numbers"),
        ("lead_stability", "stability_probe", "steps", 0, "steps must be at least 1, got 0"),
        ("lead_stability", "stability_probe", "steps", -3, "steps must be at least 1, got -3"),
        ("lead_stability", "stability_probe", "strength", math.inf, "strength must be finite, got inf"),
        ("half_line_plus", "oracle_equivalence", "pad", -1, "pad must be at least 0, got -1"),
        ("cc_rpath", "norm_law", "r_abs", math.nan, "r_abs must be finite, got nan"),
        ("basic_example", "index", "expect", True, "expect must be a number, got True"),
        ("cc_crossover_r02", "index", "expect_abs", -1, "expect_abs must be at least 0, got -1"),
        ("cc_crossover_r02", "ensemble_index", "expect_abs", True, "expect_abs must be a number, got True"),
        ("cc_crossover_r02", "ensemble_index", "constant_sign", "false", "constant_sign must be true or false, got 'false'"),
        ("basic_example", "spectrum_window", "box", -1, "box must be at least 0, got -1"),
        # these four ran: the first two failed on k_max, surgery passed no
        # reroute and failed empty, and a negative |r| recorded a defect
        ("two_incoming_leads", "wandering", "steps", 0, "steps must be at least 1, got 0"),
        ("basic_example", "shift_decomposition", "steps", 0, "steps must be at least 1, got 0"),
        ("cc_rpath", "surgery", "reroutes", 0, "reroutes must be at least 1, got 0"),
        ("cc_rpath", "norm_law", "r_abs", -0.5, "r_abs must be at least 0, got -0.5"),
    ],
    ids=[
        "confinement_steps_0",
        "confinement_steps_negative",
        "confinement_box",
        "network_ensemble_draws_0",
        "network_ensemble_draws_negative",
        "network_ensemble_max_leads",
        "network_ensemble_box",
        "ensemble_index_draws_0",
        "anomalous_transport_draws_0",
        "anomalous_transport_no_epsilons",
        "stability_probe_steps_0",
        "stability_probe_steps_negative",
        "stability_probe_infinite_strength",
        "oracle_equivalence_pad",
        "norm_law_nan",
        "index_expect_boolean",
        "index_expect_abs_negative",
        "ensemble_expect_abs_boolean",
        "ensemble_constant_sign_string",
        "spectrum_window_negative_box",
        "wandering_steps_0",
        "shift_decomposition_steps_0",
        "surgery_reroutes_0",
        "norm_law_negative",
    ],
)
def test_a_degenerate_or_non_finite_parameter_fails_validation(tmp_path, capsys, name, atype, key, value, message):
    # a count below 1 would pass vacuously, NaN compares false everywhere,
    # and a negative size or an infinite strength raises a bare error; each
    # used to validate and then fail its analysis only, in the run
    spec = load(name)
    bad = next(a for a in spec["analyses"] if a["type"] == atype)
    spec["analyses"] = [{"type": "spectrum_window", "box": 1}, {**bad, key: value}]
    assert_invalid(tmp_path, capsys, spec, f"analysis #1 ({atype}) {message}")


@pytest.mark.parametrize(
    "name, analysis, message",
    [
        (
            "two_outgoing_leads",
            {"type": "spectrum_window", "box": 100},
            "a dense window of 161604 basis vectors exceeds DENSE_BASIS = 4096",
        ),
        (
            "half_line_plus",
            {"type": "oracle_equivalence", "pad": 16},
            "a dense window of 4356 basis vectors exceeds DENSE_BASIS = 4096",
        ),
    ],
    ids=["spectrum_window_wide_box", "oracle_wide_pad"],
)
def test_a_dense_window_above_its_bound_fails_only_its_analysis(monkeypatch, name, analysis, message):
    # a dense window allocates a matrix of its basis size squared (box 100
    # on a d = 2 walk asks for 161604^2 entries), so an out-of-bound window
    # must fail before it reaches the compression, here made to raise
    def compression(*args):
        raise AssertionError("an out-of-bound dense window reached its compression")

    monkeypatch.setattr(scenarios_module, "matrix_on_window", compression)
    monkeypatch.setattr(scenarios_module, "dense_window_index", compression)
    spec = load(name)
    spec["analyses"] = [analysis, {"type": "index"}]
    validate_scenario(spec)
    analyses = run_scenario(spec).report["analyses"]
    assert analyses[f"{analysis['type']}#0"] == {"pass": False, "error": message}
    assert analyses["index#1"]["pass"]


@pytest.mark.parametrize(
    "name, analysis, message",
    [
        ("cc_rpath", {"type": "norm_law", "r_abs": math.nan}, "analysis #0 (norm_law) r_abs must be finite, got nan"),
        (
            "lead_stability",
            {"type": "stability_probe", "strength": math.inf},
            "analysis #0 (stability_probe) strength must be finite, got inf",
        ),
    ],
    ids=["nan", "infinity"],
)
def test_the_cli_refuses_a_non_finite_parameter_before_the_run(tmp_path, capsys, name, analysis, message):
    # it used to write a report with the analysis failed
    spec = load(name)
    spec["analyses"] = [analysis]
    assert_invalid(tmp_path, capsys, spec, message)


@pytest.mark.parametrize(
    "analyses, message",
    [
        (
            [{"type": "index", "expect": 5}, {"type": "oracle_equivalence", "label": "index#0"}],
            "analyses #0 and #1 share the report key 'index#0'",
        ),
        (
            [{"type": "index", "label": "a"}, {"type": "spectrum_window"}, {"type": "oracle_equivalence", "label": "a"}],
            "analyses #0 and #2 share the report key 'a'",
        ),
        (
            [{"type": "index", "label": ""}, {"type": "index", "label": ""}],
            "analyses #0 and #1 share the report key ''",
        ),
        (
            [{"type": "spectrum_window", "label": "index#1"}, {"type": "index"}],
            "analyses #0 and #1 share the report key 'index#1'",
        ),
    ],
    ids=["label_of_a_default_key", "two_labels", "two_empty_labels", "default_key_of_a_label"],
)
def test_two_analyses_with_one_report_key_fail_validation(tmp_path, capsys, analyses, message):
    # the first used to validate and report only the oracle's passing
    # index#0 block, under a top-level "pass": false
    spec = load("basic_example")
    spec["analyses"] = analyses
    assert_invalid(tmp_path, capsys, spec, message)


def test_interior_keys_are_integer_sites(tmp_path, capsys):
    # JSON object keys are strings, so the interior keys are the one field
    # whose integers are read from strings, bare or in brackets
    spec = load("basic_example")
    for interior in ({"0": [0], "[-1]": [0, 1]}, {"0": [0], "-1": [0, 1]}):
        spec["projection"]["interior"] = interior
        proj = _checked_setup(spec).projection
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


def test_cli_run_jobs_are_capped_at_the_scenario_count(tmp_path, monkeypatch):
    # a process pool forks all of its workers at its first submit, so
    # --jobs 1000 on two scenarios used to fork 1000 processes
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli_module, "ProcessPoolExecutor", SerialPool)
    assert main(["run", "half_line_plus", "half_line_minus", "--jobs", "1000", "--out", str(tmp_path)]) == 0
    assert pools == [2]
    assert (tmp_path / "half_line_plus" / "report.json").exists()
    assert (tmp_path / "half_line_minus" / "report.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_refuses_fewer_than_one_job(tmp_path, capsys, jobs):
    # each used to fall back to a serial run without a word
    with pytest.raises(SystemExit) as exit_:
        main(["run", "half_line_plus", "--jobs", jobs, "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "half_line_plus").exists()


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
def test_bundled_report_matches_its_golden_digest(bundled_run, name):
    text = dump_report(bundled_run(name).report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[name]


@pytest.mark.parametrize("name", sorted(FILES_SHA256))
def test_bundled_files_match_their_golden_digests(bundled_run, name):
    files = bundled_run(name).files
    digests = {f: hashlib.sha256(text.encode("utf-8")).hexdigest() for f, text in files.items()}
    assert digests == FILES_SHA256[name]
