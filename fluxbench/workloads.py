"""Seeded generators for the benchmark's three workloads.

Every job is a plain schema-v1 scenario dict plus the index the benchmark
expects from theory, worked out here without running fluxwalk's analyses:

* lead network: n_out - n_in (Gross-Nesme-Vogts-Werner, CMP 310, 2012);
* basic example: 1, its right half-line is a single outgoing lead;
* reflecting coin with the homogeneous half-space symbol: 0, the flux
  vanishes identically;
* CC paths that carry r on both ends (``straight_r``, ``wiggled_r``): 0;
* CC crossover: |index| = 1, with one sign for every job of an orientation.

Job k of a run draws everything from the k-th child of
``SeedSequence(seed)``.  Jobs come in batches that hold each stratum (path and
|r|, lead counts, geometry) exactly once, so the cost of a run depends little
on the seed.  Lead networks come from this module's own self-avoiding sampler
and are re-drawn until ``validate_scenario`` accepts them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fluxwalk.errors import ValidationError
from fluxwalk.scenarios import validate_scenario

SCHEMA_VERSION = 1
DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))
LEAD_BOX = 10
BACKGROUND_BOX = 4
MAX_REDRAWS = 1000

CC_PATHS = (
    ("straight_r", {"type": "straight_r"}),
    ("wiggled_r", {"type": "wiggled_r"}),
    ("crossover_west", {"type": "crossover", "west_first": True}),
    ("crossover_east", {"type": "crossover", "west_first": False}),
)
CC_MODULI = (0.2, 0.3, 0.4, "critical")
EPSILONS = [0.25, 0.125, 0.0625]


@dataclass(frozen=True)
class Expect:
    """Expected index: exact ``value``, or |index| = 1 with one sign shared by
    every job in ``sign_group``."""

    value: int | None = None
    sign_group: str | None = None


@dataclass(frozen=True)
class Job:
    job_id: int
    stratum: str
    spec: dict
    expect: Expect


def _scenario(name: str, kind: str, seed: int, analyses: list, **body) -> dict:
    spec = {"schema_version": SCHEMA_VERSION, "name": name, "kind": kind, "seed": seed}
    spec.update(body)
    spec["analyses"] = analyses
    return spec


def _scenario_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


# ---------------------------------------------------------------------------
# cc_index


# 16 index jobs, one per path and |r|, and one job in five a one-draw
# anomalous_transport job on a crossover (its |r| is drawn per job)
CC_BATCH = [(label, path, r, "index") for label, path in CC_PATHS for r in CC_MODULI] + [
    (label, path, None, "anomalous") for label, path in CC_PATHS[2:] for _ in range(2)
]


def _cc_job(job_id: int, stratum, rng: np.random.Generator) -> Job:
    label, path, r_abs, kind = stratum
    if r_abs is None:
        r_abs = CC_MODULI[int(rng.integers(len(CC_MODULI)))]
    if r_abs == "critical":
        scattering = {"template": "critical"}
    else:
        scattering = {"r_abs": r_abs}
    scattering.update({"phases": "random", "window": 8})
    if kind == "index":
        analyses = [{"type": "index"}]
    else:
        analyses = [{"type": "anomalous_transport", "epsilons": EPSILONS, "draws": 1}]
    if label.startswith("crossover"):
        expect = Expect(sign_group=label)
        if kind == "index":
            analyses[0]["expect_abs"] = 1
    else:
        expect = Expect(value=0)
        analyses[0]["expect"] = 0
    spec = _scenario(
        f"cc_{kind}_{label}_{r_abs}_{job_id}",
        "cc",
        _scenario_seed(rng),
        analyses,
        scattering=scattering,
        path=dict(path),
    )
    return Job(job_id, f"{kind}/{label}/{r_abs if kind == 'index' else '*'}", spec, expect)


# ---------------------------------------------------------------------------
# lead networks


def _sample_lead(rng: np.random.Generator, kind: str, box: int) -> dict:
    """Self-avoiding prefix of 2-6 sites and a ray that never re-enters it."""
    length = int(rng.integers(2, 7))
    walk = [tuple(int(c) for c in rng.integers(-box, box + 1, size=2))]
    while len(walk) < length:
        x, y = walk[-1]
        free = [(x + dx, y + dy) for dx, dy in DIRS if (x + dx, y + dy) not in walk]
        if not free:
            break
        walk.append(free[int(rng.integers(len(free)))])
    fx, fy = walk[-1]
    rays = [
        (dx, dy)
        for dx, dy in DIRS
        if all((fx + k * dx, fy + k * dy) not in walk for k in range(1, len(walk) + 2))
    ]
    ray = rays[int(rng.integers(len(rays)))]
    # the walk starts at the lead's finite end; prefixes are chronological
    prefix = walk if kind == "outgoing" else walk[::-1]
    return {"kind": kind, "prefix": [list(p) for p in prefix], "ray": list(ray)}


def _network_spec(name, rng, n_in, n_out, analyses, box=LEAD_BOX) -> dict:
    """Draw leads until ``validate_scenario`` accepts the network."""
    seed = _scenario_seed(rng)
    for _ in range(MAX_REDRAWS):
        projection = {
            "type": "network",
            "incoming": [_sample_lead(rng, "incoming", box) for _ in range(n_in)],
            "outgoing": [_sample_lead(rng, "outgoing", box) for _ in range(n_out)],
        }
        spec = _scenario(
            name,
            "walk",
            seed,
            analyses,
            geometry={"d": 2},
            coin={"type": "lead_network", "background_box": BACKGROUND_BOX},
            projection=projection,
        )
        try:
            validate_scenario(spec)
        except ValidationError:
            continue
        return spec
    raise RuntimeError(f"no admissible network with {n_in} in, {n_out} out after {MAX_REDRAWS} draws")


LEAD_BATCH = [(n_in, n_out) for n_in in range(4) for n_out in range(4) if n_in + n_out]


def _lead_job(job_id: int, stratum, rng: np.random.Generator) -> Job:
    n_in, n_out = stratum
    expected = n_out - n_in
    spec = _network_spec(
        f"lead_{n_in}in_{n_out}out_{job_id}", rng, n_in, n_out, [{"type": "index", "expect": expected}]
    )
    return Job(job_id, f"{n_in}in/{n_out}out", spec, Expect(value=expected))


# ---------------------------------------------------------------------------
# shift_evolution

# Fixed lead geometries, so the cost of a job depends on its coins only.
_OUT_ORIGIN = {"kind": "outgoing", "prefix": [[0, 0]], "ray": [0, 1]}
_OUT_EAST = {"kind": "outgoing", "prefix": [[6, 0], [7, 0]], "ray": [1, 0]}
_IN_NORTH = {"kind": "incoming", "prefix": [[0, 1], [0, 0]], "ray": [0, 1]}
_OUT_WEST = {"kind": "outgoing", "prefix": [[1, 0]], "ray": [-1, 0]}
_OUT_WEST_ORIGIN = {"kind": "outgoing", "prefix": [[0, 0]], "ray": [-1, 0]}

SHIFT = {"type": "shift_decomposition", "steps": 30}
WANDER = {"type": "wandering", "steps": 50}
ORACLE = {"type": "oracle_equivalence"}


# the two one-lead shift decompositions cost about the same, so the tail
# percentile falls inside one class of jobs
SHIFT_BATCH = [
    "basic_shift",
    "out1_shift",
    "in1_shift",
    "out1_wander",
    "inout_wander",
    "out2_wander",
    "reflecting",
    "basic_spectrum",
]


def _network(incoming=(), outgoing=()):
    return {"type": "network", "incoming": [dict(x) for x in incoming], "outgoing": [dict(x) for x in outgoing]}


def _shift_job(job_id: int, stratum: str, rng: np.random.Generator) -> Job:
    seed = _scenario_seed(rng)
    name = f"{stratum}_{job_id}"
    if stratum.startswith("basic"):
        extra = [SHIFT, ORACLE] if stratum == "basic_shift" else [{"type": "spectrum_window", "box": 12}]
        spec = _scenario(
            name,
            "walk",
            seed,
            [{"type": "index", "expect": 1}] + [dict(a) for a in extra],
            geometry={"d": 1},
            coin={"type": "basic_example", "n_cut": 2},
            projection={"type": "basic_halfspace", "n_cut": 2},
        )
        return Job(job_id, stratum, spec, Expect(value=1))
    if stratum == "reflecting":
        spec = _scenario(
            name,
            "walk",
            seed,
            [{"type": "index", "expect": 0}, {"type": "confinement", "steps": 30}],
            geometry={"d": 2},
            coin={"type": "reflecting", "box": 3},
            projection={"type": "boundary_full"},
        )
        return Job(job_id, stratum, spec, Expect(value=0))
    incoming, outgoing, tail = {
        "out1_shift": ((), (_OUT_EAST,), [SHIFT]),
        "in1_shift": ((_IN_NORTH,), (), [SHIFT]),
        "out1_wander": ((), (_OUT_ORIGIN,), [WANDER, ORACLE]),
        "inout_wander": ((_IN_NORTH,), (_OUT_WEST,), [WANDER, ORACLE]),
        "out2_wander": ((), (_OUT_ORIGIN, _OUT_WEST_ORIGIN), [WANDER, ORACLE]),
    }[stratum]
    expected = len(outgoing) - len(incoming)
    spec = _scenario(
        name,
        "walk",
        seed,
        [{"type": "index", "expect": expected}] + [dict(a) for a in tail],
        geometry={"d": 2},
        coin={"type": "lead_network", "background_box": BACKGROUND_BOX},
        projection=_network(incoming, outgoing),
    )
    return Job(job_id, stratum, spec, Expect(value=expected))


# ---------------------------------------------------------------------------

WORKLOADS = {
    # name: (strata of one batch, job constructor, seconds per batch at the baseline)
    "cc_index": (CC_BATCH, _cc_job, 2.5),
    "lead_networks": (LEAD_BATCH, _lead_job, 1.5),
    "shift_evolution": (SHIFT_BATCH, _shift_job, 2.3),
}


def batches_for(workload: str, seconds: float) -> int:
    """Fixed number of batches for a run of nominally ``seconds``: the same
    work at every commit, about ``seconds`` long at the baseline."""
    return max(1, round(seconds / WORKLOADS[workload][2]))


def generate(workload: str, seed: int, batches: int) -> list[Job]:
    strata, build, _ = WORKLOADS[workload]
    count = batches * len(strata)
    children = np.random.SeedSequence(seed).spawn(count)
    return [
        build(k, strata[k % len(strata)], np.random.Generator(np.random.PCG64(children[k])))
        for k in range(count)
    ]
