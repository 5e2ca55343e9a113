"""Self-tests of the benchmark: tracing fidelity and an end-to-end smoke run.

Run from the repository root (under a minute on two cores):

    python3 -m pytest -q fluxbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_fluxwalk()

import fluxwalk  # noqa: E402
import numpy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3

# `from .x import f` copies that tracing must reach.
REBOUND = {
    (f"fluxwalk.{mod}", name)
    for mod, names in {
        "walks": ("assemble_field", "selfcheck_against_operator", "analyze"),
        "cc": ("assemble_field", "selfcheck_against_operator", "analyze"),
        "scenarios": (
            "analyze",
            "dense_window_index",
            "extract_kernels",
            "build_perturbed",
            "verify_shift_structure",
            "verify_wandering",
            "verify_confinement",
            "synthesize_lead_coin",
            "validate_network",
        ),
    }.items()
    for name in names
}


def _module_bindings() -> dict:
    """Every name bound in a fluxwalk module, plus the probed numpy names."""
    out = {}
    for name, mod in sys.modules.items():
        if name.startswith("fluxwalk"):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, f"{key}.{attr}")] = member
    for attr in ("eigh", "eigvalsh", "eig", "eigvals"):
        out[("numpy.linalg", attr)] = getattr(numpy.linalg, attr)
    return out


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def traced(request):
    """One batch of a workload, run untraced and then traced."""
    jobs = workloads.generate(request.param, SEED, batches=1)
    wall, _, plain = run.run_jobs(jobs)
    before = _module_bindings()
    tracer = spans.Tracer()
    with tracer:
        installed = _module_bindings()
        run.setup(jobs, repeats=1)

        def set_job(job):
            tracer.job_id = job.job_id

        traced_wall, _, traced_out = run.run_jobs(jobs, tracer.job_span(run.run_job), set_job)
    return {
        "workload": request.param,
        "jobs": jobs,
        "plain": plain,
        "traced": traced_out,
        "metrics": run.layer_metrics(tracer.totals(), traced_wall / wall),
        "before": before,
        "installed": installed,
        "after": _module_bindings(),
    }


def test_every_mapped_metric_fires(traced):
    silent = [
        name
        for name, (_, _, mapped) in run.LAYER_METRICS.items()
        if traced["workload"] in mapped and not traced["metrics"][name]["value"] > 0
    ]
    assert not silent, f"{traced['workload']}: no work recorded for {silent}"


def test_every_probe_has_a_checked_metric():
    names = {name for _, _, name, _, _ in spans.PROBES} | {spans.BLOCK_FN}
    unchecked = [n for n in names if not any(m.startswith(n + ".") for m in run.LAYER_METRICS)]
    assert not unchecked


def test_region_split_idle_on_walk_workloads(traced):
    if traced["workload"] != "cc_index":
        assert traced["metrics"]["cc.RegionSplit.calls"]["value"] == 0


def test_traced_reports_are_byte_identical(traced):
    assert traced["traced"] == traced["plain"]
    assert run.check_outputs(traced["jobs"], traced["plain"]) == [None] * len(traced["jobs"])


def test_every_binding_of_a_probed_function_is_rebound(traced):
    """While installed, no fluxwalk module still holds an unwrapped original
    of a probed module-level function (the `from .x import f` copies)."""
    originals = {}
    for module_name, path, *_ in spans.PROBES:
        if "." not in path:
            originals[id(traced["before"][(module_name, path)])] = f"{module_name}.{path}"
    stale = [
        f"{mod}.{key} -> {originals[id(value)]}"
        for (mod, key), value in traced["installed"].items()
        if id(value) in originals
    ]
    assert not stale
    untraced = [key for key in REBOUND if traced["installed"][key] is traced["before"][key]]
    assert not untraced


def test_uninstall_restores_every_binding(traced):
    assert traced["after"].keys() == traced["before"].keys()
    changed = [k for k, v in traced["after"].items() if traced["before"][k] is not v]
    assert not changed


# ---------------------------------------------------------------------------
# end to end


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("fluxbench") / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _digest(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("report_digest"))


def test_smoke_prints_every_metric_and_is_deterministic():
    first = _bench("--workload", "lead_networks", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for name, unit in run.END_TO_END_UNITS.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
        assert result["metrics"][name] == {"value": result["metrics"][name]["value"], "unit": unit}
        assert result["metrics"][name]["value"] > 0
    again = _bench("--workload", "lead_networks", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert _digest(again.stdout) == _digest(first.stdout)
    other = _bench("--workload", "lead_networks", "--seed", "6", "--seconds", "1", "--trace", "0")
    assert _digest(other.stdout) != _digest(first.stdout)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seeds_give_different_inputs(workload):
    specs = {seed: [job.spec for job in workloads.generate(workload, seed, 1)] for seed in (1, 2)}
    assert specs[1] != specs[2]
    assert specs[1] == [job.spec for job in workloads.generate(workload, 1, 1)]


def test_wrong_answer_fails_the_run(monkeypatch, capsys):
    build = workloads.WORKLOADS["lead_networks"][1]

    def off_by_one(job_id, stratum, rng):
        job = build(job_id, stratum, rng)
        return workloads.Job(job.job_id, job.stratum, job.spec, workloads.Expect(value=job.expect.value + 1))

    strata, _, nominal = workloads.WORKLOADS["lead_networks"]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(workloads.WORKLOADS, "lead_networks", (strata, off_by_one, nominal))
    code = run.main(["--workload", "lead_networks", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "fluxbench", ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "cc_index", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
