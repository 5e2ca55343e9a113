import json
import subprocess
import sys
from pathlib import Path

import pytest

from fluxwalk.cli import bundled_scenarios, main
from fluxwalk.errors import EigenvalueAmbiguityError, NonSummableError, ValidationError
from fluxwalk.report import dump_report
from fluxwalk.scenarios import ANALYSES, run_scenario, validate_scenario


def load(name):
    return json.loads(bundled_scenarios()[name].read_text())


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
    """Count calls of ``walks`` functions, including the copies that
    ``scenarios`` imported."""
    import fluxwalk.scenarios as scenarios
    import fluxwalk.walks as walks

    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(walks, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (walks, scenarios):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return counts


def test_walk_analyses_take_the_walk_from_the_flux(monkeypatch):
    # one walk per analysis: shift_decomposition and oracle_equivalence
    # reuse the walk their flux was built from (6 builds when they did not)
    counts = count_calls(monkeypatch, ["build_walk"])
    assert run_scenario(load("basic_example")).ok
    assert counts == {"build_walk": 4}


def test_lead_network_analyses_reuse_the_checked_setup(monkeypatch):
    # index and shift_decomposition use the setup's projection and its
    # synthesized (already verified) coin; the setup checks the network once
    # when parsing, once in synthesize_lead_coin and once in network_projection
    names = ["build_walk", "validate_network", "verify_lead_condition", "network_projection"]
    counts = count_calls(monkeypatch, names)
    assert run_scenario(load("two_incoming_leads")).ok
    assert counts == {
        "build_walk": 3,
        "validate_network": 3,
        "verify_lead_condition": 1,
        "network_projection": 1,
    }


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
    def failing(setup, analysis, rng, tol, files):
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
