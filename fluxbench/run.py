"""Closed-loop benchmark of fluxwalk scenario jobs.

Run from the repository root:

    python3 fluxbench/run.py --workload cc_index --seed 1 --seconds 20 --trace 0

One process, one caller: each job is ``run_scenario(spec)`` followed by
``dump_report``, the work ``fluxwalk run`` does per scenario minus the file
write, and the next job starts when the previous one returns.  ``--seconds``
sets the size of the run (a fixed number of job batches, about that long at
the baseline), so every commit is measured on identical work.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same jobs run once untraced and
once traced, and the JSON object holds the per-layer metrics.  The exit code
is 0 when every job passed its checks, 1 when any job failed, and 2 when the
benchmark cannot run at all (for instance when ``src/fluxwalk`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".fluxbench_out"
WORKLOAD_NAMES = ("cc_index", "lead_networks", "shift_evolution")
BLAS_THREADS = 1
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

ALL = WORKLOAD_NAMES
CC = ("cc_index",)
LEAD = ("lead_networks",)
SHIFT = ("shift_evolution",)
WALKS = LEAD + SHIFT
P50_ASSEMBLY = {"job_p50_ms": CC + LEAD}

# Per-layer metrics: name -> (unit, {end-to-end metric: workloads on which
# the layer should move it}, workloads on which the metric must be non-zero).
# "calls" and "self_s" come from spans; the rest are counters or ratios.
LAYER_METRICS = {
    "scenarios.validate_scenario.calls": ("count", {"setup_s": ALL}, ALL),
    "scenarios.validate_scenario.self_s": ("s", {"setup_s": ALL}, ALL),
    "scenarios.build_setup.self_s": ("s", {"setup_s": ALL, "job_p50_ms": LEAD}, ALL),
    "fields.SiteMap.value.calls": ("count", {"job_p50_ms": LEAD}, ALL),
    "fields.SiteMap.value.self_s": ("s", {"job_p50_ms": LEAD}, ALL),
    "fields.Ray.locate.calls": ("count", {"job_p50_ms": LEAD}, WALKS),
    "fields.open_slots.calls": ("count", {"job_p50_ms": LEAD}, WALKS),
    "fields.value_per_block": ("ratio", {"job_p50_ms": LEAD}, ALL),
    "cc.RegionSplit.calls": ("count", {"job_p50_ms": CC, "job_tail_ms": CC}, CC),
    "cc.RegionSplit.self_s": ("s", {"job_p50_ms": CC, "job_tail_ms": CC}, CC),
    "cc.RegionSplit.points": ("count", {"job_p50_ms": CC, "job_tail_ms": CC}, CC),
    "cc.cc_flux.calls": ("count", {"job_p50_ms": CC, "job_tail_ms": CC}, CC),
    "cc.CCUnitary.apply.calls": ("count", {"job_p50_ms": CC, "job_tail_ms": CC}, CC),
    "flux.assemble_field.calls": ("count", P50_ASSEMBLY, ALL),
    "flux.assemble_field.self_s": ("s", P50_ASSEMBLY, ALL),
    "flux.block_fn.calls": ("count", P50_ASSEMBLY, ALL),
    "flux.block_fn.self_s": ("s", P50_ASSEMBLY, ALL),
    "flux.selfcheck.self_s": ("s", P50_ASSEMBLY, ALL),
    "flux.analyze.self_s": ("s", P50_ASSEMBLY, ALL),
    "flux.dense_window_index.self_s": ("s", {"wall_s": SHIFT}, SHIFT),
    "flux.eig_per_block": ("ratio", P50_ASSEMBLY, ALL),
    "linalg.eig.calls": ("count", P50_ASSEMBLY, ALL),
    "linalg.eig.self_s": ("s", P50_ASSEMBLY, ALL),
    "linalg.eig.n3": ("count", {}, ALL),
    "lattice.LatticeState.new.calls": ("count", {"job_tail_ms": SHIFT}, ALL),
    "lattice.LatticeState.add.calls": ("count", {"job_tail_ms": SHIFT}, ALL),
    "lattice.LatticeState.add.self_s": ("s", {"job_tail_ms": SHIFT}, ALL),
    "lattice.LatticeState.add.sites": ("count", {"job_tail_ms": SHIFT}, ALL),
    "lattice.LatticeState.inner.calls": ("count", {"job_tail_ms": SHIFT}, SHIFT),
    "lattice.LatticeState.inner.self_s": ("s", {"job_tail_ms": SHIFT}, SHIFT),
    "operators.apply.calls": ("count", {"wall_s": SHIFT, "job_tail_ms": SHIFT}, WALKS),
    "operators.apply.self_s": ("s", {"wall_s": SHIFT, "job_tail_ms": SHIFT}, WALKS),
    "operators.apply.sites": ("count", {"wall_s": SHIFT, "job_tail_ms": SHIFT}, WALKS),
    "operators.matrix_on_window.self_s": ("s", {"wall_s": SHIFT}, SHIFT),
    "walks.synthesize_lead_coin.self_s": ("s", {"job_p50_ms": LEAD}, WALKS),
    "walks.validate_network.calls": ("count", {"job_p50_ms": LEAD}, WALKS),
    "walks.verify_wandering.self_s": ("s", {"wall_s": SHIFT}, SHIFT),
    "walks.verify_confinement.self_s": ("s", {"wall_s": SHIFT}, SHIFT),
    "shift.extract_kernels.self_s": ("s", {"job_tail_ms": SHIFT}, SHIFT),
    "shift.build_perturbed.self_s": ("s", {"job_tail_ms": SHIFT}, SHIFT),
    "shift.verify_shift_structure.self_s": ("s", {"job_tail_ms": SHIFT}, SHIFT),
    "report.dump_report.self_s": ("s", {"wall_s": ALL}, ALL),
    "trace.overhead": ("ratio", {}, ALL),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_fluxwalk():
    """Import the package from this checkout's ``src`` and time it."""
    if not (SRC / "fluxwalk" / "__init__.py").is_file():
        raise FileNotFoundError(f"{SRC / 'fluxwalk'} not found: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    fluxwalk = importlib.import_module("fluxwalk")
    importlib.import_module("fluxwalk.scenarios")
    importlib.import_module("fluxwalk.report")
    elapsed = time.perf_counter() - t0
    if Path(fluxwalk.__file__).resolve().parent != (SRC / "fluxwalk").resolve():
        raise ImportError(f"fluxwalk imported from {fluxwalk.__file__}, not from {SRC}")
    return elapsed


def conditions() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


# ---------------------------------------------------------------------------
# running and checking jobs


def run_job(spec: dict) -> str:
    """One job: run the scenario and render its report."""
    from fluxwalk import report, scenarios

    return report.dump_report(scenarios.run_scenario(spec).report)


def run_jobs(jobs, job_fn=run_job, on_job=None):
    """Run every job in order; returns (wall seconds, per-job seconds, outputs).

    An output is the canonical report text, or ``("error", class name)`` when
    the job raised a ``FluxwalkError``.
    """
    from fluxwalk.errors import FluxwalkError

    latencies, outputs = [], []
    clock = time.perf_counter
    t_start = clock()
    for job in jobs:
        if on_job is not None:
            on_job(job)
        t0 = clock()
        try:
            out = job_fn(job.spec)
        except FluxwalkError as exc:
            out = ("error", type(exc).__name__)
        latencies.append(clock() - t0)
        outputs.append(out)
    return clock() - t_start, latencies, outputs


def _reported_indices(report: dict) -> list[int]:
    values = []
    for result in report["analyses"].values():
        for key in ("index", "blockwise", "dense"):
            if isinstance(result.get(key), int) and not isinstance(result.get(key), bool):
                values.append(result[key])
    return values


def check_outputs(jobs, outputs) -> list[str | None]:
    """Failure class per job (None when it passed).

    A job fails when it raised, when its report says ``pass: false``, or when
    any index it reports differs from the benchmark's own expectation.
    """
    signs: dict[str, int] = {}
    failures = []
    for job, out in zip(jobs, outputs):
        if isinstance(out, tuple):
            failures.append(out[1])
            continue
        report = json.loads(out)
        indices = _reported_indices(report)
        if not report.get("pass"):
            failures.append("pass_false")
        elif not indices:
            failures.append("no_index")
        elif job.expect.value is not None:
            failures.append(None if all(i == job.expect.value for i in indices) else "index_mismatch")
        else:
            sign = signs.setdefault(job.expect.sign_group, 1 if indices[0] > 0 else -1)
            failures.append(None if all(i == sign for i in indices) else "index_mismatch")
    return failures


def report_digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(f"error {out[1]}\n".encode() if isinstance(out, tuple) else out.encode())
    return h.hexdigest()


def tail(latencies) -> tuple[float, float]:
    """Highest latency percentile with at least TAIL_BEYOND jobs above it:
    (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------


def setup(jobs, repeats: int = SETUP_REPEATS) -> list[float]:
    """Validate every generated spec ``repeats`` times; seconds per pass."""
    from fluxwalk.scenarios import validate_scenario

    passes = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for job in jobs:
            validate_scenario(job.spec)
        passes.append(time.perf_counter() - t0)
    return passes


def layer_metrics(totals: dict, overhead: float) -> dict:
    block_calls = totals.get("flux.block_fn.calls", 0)
    derived = {
        "fields.value_per_block": totals.get("fields.SiteMap.value.calls", 0) / block_calls if block_calls else 0.0,
        "flux.eig_per_block": totals.get("linalg.eig.calls", 0) / block_calls if block_calls else 0.0,
        "trace.overhead": overhead,
    }
    out = {}
    for name, (unit, _, _) in LAYER_METRICS.items():
        value = derived[name] if name in derived else totals.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        import_s = import_fluxwalk()
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads

    batches = workloads.batches_for(args.workload, args.seconds)
    jobs = workloads.generate(args.workload, args.seed, batches)
    validate_passes = setup(jobs)
    setup_s = import_s + statistics.median(validate_passes)
    run_jobs(jobs[:1])  # untimed, so lazy initialisation is not charged to the first job

    print(f"workload {args.workload} seed {args.seed} batches {batches} jobs {len(jobs)}")
    print("conditions " + json.dumps(conditions(), sort_keys=True))
    print(f"setup: import {import_s:.4f} s, validate passes " + ", ".join(f"{p:.4f}" for p in validate_passes) + " s")

    wall, latencies, outputs = run_jobs(jobs)
    failures = check_outputs(jobs, outputs)

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        with tracer:
            setup(jobs, repeats=1)  # traced under job id -1

            def set_job(job):
                tracer.job_id = job.job_id

            traced_wall, _, traced_outputs = run_jobs(jobs, tracer.job_span(run_job), set_job)
        failures = [
            f or g or ("trace_changed_report" if a != b else None)
            for f, g, a, b in zip(failures, check_outputs(jobs, traced_outputs), outputs, traced_outputs)
        ]
        metrics = layer_metrics(tracer.totals(), traced_wall / wall)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.npz"
        tracer.save(trace_path)
        print(f"trace: {len(tracer.name)} spans written to {trace_path.relative_to(ROOT)}")
        print(f"trace: untraced wall {wall:.4f} s, traced wall {traced_wall:.4f} s")
    else:
        p50 = statistics.median(latencies)
        tail_value, tail_pct = tail(latencies)
        metrics = {
            "wall_s": wall,
            "job_p50_ms": 1000.0 * p50,
            "job_tail_ms": 1000.0 * tail_value,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        print(f"job_tail_ms is p{tail_pct:.2f} of {len(latencies)} jobs ({TAIL_BEYOND} beyond it)")

    failed = sum(1 for f in failures if f)
    errors: dict[str, int] = {}
    for f in failures:
        if f:
            errors[f] = errors.get(f, 0) + 1
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / len(jobs):.6g} ({failed}/{len(jobs)}) errors {json.dumps(errors, sort_keys=True)}")
    print(f"report_digest sha256:{report_digest(outputs)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
