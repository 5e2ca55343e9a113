"""Scenario files: parsing, validation, construction, and batch analyses.

A scenario is a JSON object that names a model (walk or network), how to
build its coin or scattering data from a seeded generator, the projection
geometry, and a list of analyses with embedded expectations.  Running a
scenario is deterministic: the same file and seed produce byte-identical
reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import cc as ccm
from .config import PROFILES
from .errors import FluxwalkError, ValidationError
from .fields import HalfSpace, Ray, SiteMap, interpolate_matrix_fields
from .flux import analyze, dense_window_index, index_stability_probe, max_block_norm
from .lattice import LatticeState, haar_unitary, index_of_vector
from .operators import matrix_on_window
from .report import SCHEMA_VERSION, index_report_dict
from .shift import build_perturbed, extract_kernels, verify_shift_structure
from .walks import (
    BoundarySpec,
    LeadSpec,
    NetworkSpec,
    build_walk,
    build_walk_flux,
    check_lead_count,
    network_projection,
    basic_halfspace_projection,
    halfline_projection,
    perturb_coin_window,
    random_background,
    random_network,
    reflecting_coin,
    synthesize_lead_coin,
    validate_network,
    verify_confinement,
    verify_wandering,
    walk_index,
    boundary_projection_full,
)

RNG_ALGORITHM = "PCG64"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _child_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


# ---------------------------------------------------------------------------
# parsing helpers


def _need(spec: dict, key: str, context: str):
    if key not in spec:
        raise ValidationError(f"{context}: missing required key {key!r}")
    return spec[key]


def _lead_from_json(obj: dict) -> LeadSpec:
    kind = _need(obj, "kind", "lead")
    prefix = [tuple(int(c) for c in site) for site in _need(obj, "prefix", "lead")]
    ray = tuple(int(c) for c in _need(obj, "ray", "lead"))
    return LeadSpec(kind, prefix, ray)


def _network_from_json(obj: dict, d_total: int | None = None) -> NetworkSpec:
    incoming = tuple(_lead_from_json(x) for x in obj.get("incoming", []))
    outgoing = tuple(_lead_from_json(x) for x in obj.get("outgoing", []))
    boundary = None
    if obj.get("boundary"):
        boundary = BoundarySpec(d_total or 2)
    network = NetworkSpec(incoming=incoming, outgoing=outgoing, boundary=boundary)
    validate_network(network)
    return network


def _path_from_json(obj: dict) -> ccm.DualPath:
    ptype = obj.get("type")
    if ptype == "straight_r":
        return ccm.straight_r_path(obj.get("height", 0))
    if ptype == "crossover":
        return ccm.crossover_path(obj.get("west_first", True))
    if ptype == "wiggled_r":
        return ccm.wiggled_r_path()
    if ptype == "explicit":
        return ccm.DualPath(
            [tuple(v) for v in _need(obj, "middle", "path")],
            tuple(_need(obj, "pre", "path")),
            tuple(_need(obj, "post", "path")),
        )
    raise ValidationError(f"unknown path type {ptype!r}")


# ---------------------------------------------------------------------------
# walk scenario construction


@dataclass
class WalkSetup:
    coin: SiteMap
    projection: object
    network: NetworkSpec | None = None
    boundary: BoundarySpec | None = None


def _commuting_coin(rng: np.random.Generator, n: int, slot: int) -> np.ndarray:
    rest = [k for k in range(n) if k != slot]
    m = np.zeros((n, n), dtype=complex)
    m[slot, slot] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    if rest:
        u = haar_unitary(rng, len(rest))
        for a, sa in enumerate(rest):
            for c, sc in enumerate(rest):
                m[sc, sa] = u[c, a]
    return m


def build_walk_setup(spec: dict, rng: np.random.Generator) -> WalkSetup:
    d = int(_need(spec.get("geometry", {}), "d", "geometry"))
    coin_spec = _need(spec, "coin", "scenario")
    proj_spec = _need(spec, "projection", "scenario")
    ctype = _need(coin_spec, "type", "coin")
    ptype = _need(proj_spec, "type", "projection")

    if ctype == "basic_example":
        if d != 1:
            raise ValidationError("basic_example coin requires d = 1")
        n_cut = int(coin_spec.get("n_cut", 2))
        box = int(coin_spec.get("box", n_cut + 4))
        slot = index_of_vector((1,))
        window = {}
        for x in range(-box, n_cut):
            window[(x,)] = haar_unitary(rng, 2)
        for x in range(n_cut, n_cut + box):
            window[(x,)] = _commuting_coin(rng, 2, slot)
        tail = _commuting_coin(rng, 2, slot)
        coin = SiteMap(
            1,
            window=window,
            halfspaces=[(HalfSpace(0, 1, n_cut), tail)],
            background=np.eye(2, dtype=complex),
        )
        if ptype != "basic_halfspace":
            raise ValidationError("basic_example coin pairs with basic_halfspace")
        interior = {
            tuple(site): set(slots)
            for site, slots in proj_spec.get("interior", {}).items()
        } if isinstance(proj_spec.get("interior"), dict) else None
        proj = basic_halfspace_projection(int(proj_spec.get("n_cut", n_cut)), interior)
        return WalkSetup(coin, proj)

    if ctype == "halfline_commuting":
        sign = int(coin_spec.get("sign", 1))
        box = int(coin_spec.get("box", 3))
        n = 2 * d
        slot = index_of_vector(tuple([sign] + [0] * (d - 1)))
        window = {}
        for site in itertools.product(*([range(-box, box + 1)] * d)):
            window[site] = haar_unitary(rng, n)
        for x in range(1, box + 1):
            site = tuple([x] + [0] * (d - 1))
            window[site] = _commuting_coin(rng, n, slot)
        ray_coin = _commuting_coin(rng, n, slot)
        base = tuple([1] + [0] * (d - 1))
        step = tuple([1] + [0] * (d - 1))
        coin = SiteMap(
            d,
            window=window,
            rays=[(Ray(base, step), [ray_coin])],
            background=np.eye(n, dtype=complex),
        )
        if ptype != "halfline":
            raise ValidationError("halfline_commuting coin pairs with halfline")
        proj = halfline_projection(d, int(proj_spec.get("sign", sign)))
        return WalkSetup(coin, proj)

    if ctype == "lead_network":
        if ptype != "network":
            raise ValidationError("lead_network coin pairs with a network projection")
        network = _network_from_json(proj_spec, d_total=d)
        box = int(coin_spec.get("background_box", 4))
        if network.boundary is not None:
            background = reflecting_coin(d, rng, box=box)
        else:
            background = random_background(rng, d, box=box)
        coin = synthesize_lead_coin(network, background)
        proj = network_projection(network)
        return WalkSetup(coin, proj, network=network, boundary=network.boundary)

    if ctype == "reflecting":
        if ptype != "boundary_full":
            raise ValidationError("reflecting coin pairs with boundary_full")
        box = int(coin_spec.get("box", 3))
        coin = reflecting_coin(d, rng, box=box)
        proj = boundary_projection_full(d)
        return WalkSetup(coin, proj, boundary=BoundarySpec(d))

    raise ValidationError(f"unknown coin type {ctype!r}")


# ---------------------------------------------------------------------------
# network scenario construction


@dataclass
class CCSetup:
    scattering: SiteMap
    path: ccm.DualPath
    spec: dict


def _scattering_from_json(spec: dict, rng: np.random.Generator, window_extent: int) -> SiteMap:
    template = spec.get("template")
    if template == "critical":
        base = ccm.CRITICAL
        r_abs = float(abs(base.r))
    else:
        r_abs = float(_need(spec, "r_abs", "scattering"))
        if not 0.0 <= r_abs <= 1.0:
            raise ValidationError("r_abs must lie in [0, 1]")
        base = ccm.ScatteringParams(1.0, r_abs, math.sqrt(max(0.0, 1.0 - r_abs**2)))
    phases = spec.get("phases", "unity")
    if phases == "unity":
        return SiteMap(2, background=base)
    if phases == "random":
        extent = int(spec.get("window", window_extent))
        window = ccm.random_phase_window(
            rng, r_abs, range(-extent, extent + 1), range(-extent, extent + 1)
        )
        return SiteMap(2, window=window, background=base)
    raise ValidationError(f"unknown phase mode {phases!r}")


def _path_scattering(spec: dict, path: ccm.DualPath, rng: np.random.Generator) -> SiteMap:
    """The scenario's scattering field; a random-phase window reaches 8 cells
    beyond the path's explicit vertices."""
    (lo, lo2), (hi, hi2) = path.bounds()
    extent = max(abs(lo), abs(lo2), abs(hi), abs(hi2)) + 8
    return _scattering_from_json(_need(spec, "scattering", "scenario"), rng, extent)


def build_cc_setup(spec: dict, rng: np.random.Generator) -> CCSetup:
    path = _path_from_json(_need(spec, "path", "scenario"))
    return CCSetup(_path_scattering(spec, path, rng), path, spec)


# ---------------------------------------------------------------------------
# validation without heavy computation


def _checked_setup(spec: dict):
    """Structural and precondition checks, raising on the first violation;
    returns the setup they build, the generator that built it (to be reused
    by the analyses) and notes on what was checked."""
    notes = []
    if not isinstance(spec, dict):
        raise ValidationError("scenario must be a JSON object")
    if spec.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {spec.get('schema_version')!r}"
        )
    kind = _need(spec, "kind", "scenario")
    _need(spec, "name", "scenario")
    seed = _need(spec, "seed", "scenario")
    if not isinstance(seed, int) or seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    analyses = _need(spec, "analyses", "scenario")
    if not isinstance(analyses, list) or not analyses:
        raise ValidationError("analyses must be a nonempty list")
    rng = _rng(int(seed))
    if kind == "walk":
        setup = build_walk_setup(spec, rng)
        notes.append(f"coin and projection constructed (d = {setup.coin.d})")
        if setup.network is not None:
            notes.append(
                f"network valid: {len(setup.network.outgoing)} outgoing, "
                f"{len(setup.network.incoming)} incoming"
            )
    elif kind == "cc":
        setup = build_cc_setup(spec, rng)
        t0, t1 = setup.path.switch_window()
        probe = 30
        for t_range, side in (((-probe, t0), "pre"), ((t1, probe), "post")):
            tags = {e.tag for e in setup.path.steps(*t_range)}
            if len(tags) == 1:
                tag = tags.pop()
                deep = setup.path.step(t_range[0] - 20 if side == "pre" else t_range[1] + 20)
                params = setup.scattering.value(deep.cell)
                weight = abs(params.r) if tag == "r" else abs(params.t)
                if weight >= 1.0 - 1e-9:
                    raise ValidationError(
                        f"index undefined at infinity: {tag}-ray tail carries "
                        f"weight {weight:.6f} at cell {deep.cell}"
                    )
                notes.append(f"{side} ray is {tag}-pure with tail weight {weight:.6f}")
    else:
        raise ValidationError(f"unknown scenario kind {kind!r}")
    for i, analysis in enumerate(analyses):
        if "type" not in analysis:
            raise ValidationError(f"analysis #{i} has no type")
        if analysis["type"] not in ANALYSES.get(kind, {}):
            raise ValidationError(
                f"analysis type {analysis['type']!r} not available for kind {kind!r}"
            )
    return setup, rng, notes


def validate_scenario(spec: dict) -> list[str]:
    """Structural and precondition checks; raises on the first violation."""
    return _checked_setup(spec)[2]


# ---------------------------------------------------------------------------
# analyses: walk


def _index_analysis_dict(report, analysis) -> dict:
    """Index report fields plus the verdict on the analysis' expectation."""
    out = index_report_dict(report)
    if "expect" in analysis:
        out["expected"] = analysis["expect"]
        out["pass"] = report.index == analysis["expect"]
    elif "expect_abs" in analysis:
        out["expected_abs"] = analysis["expect_abs"]
        out["pass"] = abs(report.index) == analysis["expect_abs"]
    else:
        out["pass"] = True
    return out


def _walk_index(setup, tol):
    """Index report and flux: lead networks also check n_out - n_in.  The
    setup's coin and projection were checked against its network when it was
    built, so they are used as they are."""
    report, flux = walk_index(setup.coin, setup.projection, tol)
    if setup.network is not None:
        check_lead_count(report, setup.network)
    return report, flux


def _walk_index_analysis(setup, analysis, rng, tol, files):
    report, _ = _walk_index(setup, tol)
    return _index_analysis_dict(report, analysis)


def _walk_flux_zero_analysis(setup, analysis, rng, tol, files):
    worst = max_block_norm(build_walk_flux(setup.coin, setup.projection, tol))
    return {"max_block_norm": worst, "pass": worst <= 1e-12}


def _walk_wandering_analysis(setup, analysis, rng, tol, files):
    steps = int(analysis.get("steps", 50))
    walk = build_walk(setup.coin, tol)
    results = []
    ok = True
    rows = ["lead,step,overlap"]
    for idx, lead in enumerate(setup.network.leads() if setup.network else []):
        head, tangent = lead.head_pair()
        seed_state = LatticeState.basis(head, index_of_vector(tangent), walk.n_internal)
        rep = verify_wandering(
            walk, seed_state, steps, lead=lead, adjoint=(lead.kind == "incoming"), tol=tol
        )
        ok = ok and rep.ok
        results.append(
            {
                "lead": idx,
                "kind": lead.kind,
                "ok": rep.ok,
                "max_overlap": rep.max_overlap,
                "transport_defect": rep.transport_defect,
            }
        )
        for k, ov in enumerate(rep.overlaps, start=1):
            rows.append(f"{idx},{k},{ov:.3e}")
    files["wandering_overlaps.csv"] = "\n".join(rows) + "\n"
    return {"leads": results, "steps": steps, "pass": ok}


def _walk_confinement_analysis(setup, analysis, rng, tol, files):
    steps = int(analysis.get("steps", 30))
    walk = build_walk(setup.coin, tol)
    leak = verify_confinement(walk, rng, steps=steps, box=int(analysis.get("box", 3)))
    return {"steps": steps, "max_leak": leak, "pass": leak <= tol.wandering}


def _walk_shift_analysis(setup, analysis, rng, tol, files):
    steps = int(analysis.get("steps", 30))
    report, flux = _walk_index(setup, tol)
    kernels = extract_kernels(flux)
    perturbed = build_perturbed(flux.geometry.unitary, flux, kernels)
    shift_report = verify_shift_structure(perturbed, kernels, k_max=steps)
    out = shift_report.as_dict()
    out["index"] = report.index
    out["pass"] = shift_report.ok
    return out


def _walk_stability_analysis(setup, analysis, rng, tol, files):
    steps = int(analysis.get("steps", 20))
    strength = float(analysis.get("strength", 0.1))
    target = perturb_coin_window(setup.coin, rng, strength)
    proj = setup.projection

    def family(t):
        coin_t = interpolate_matrix_fields(setup.coin, target, t)
        return build_walk_flux(coin_t, proj, tol, selfcheck=False)

    probes = index_stability_probe(family, steps)
    indices = sorted({p.index for p in probes if p.certified})
    flagged = [p.t for p in probes if not p.certified]
    ok = len(indices) == 1 and not flagged
    return {
        "steps": steps,
        "indices": indices,
        "flagged": flagged,
        "pass": ok,
    }


def _walk_oracle_analysis(setup, analysis, rng, tol, files):
    flux = build_walk_flux(setup.coin, setup.projection, tol)
    if not flux.blocks:
        return {"applicable": True, "blockwise": 0, "dense": 0, "pass": True}
    sites = sorted(flux.blocks)
    lo = [min(s[j] for s in sites) for j in range(len(sites[0]))]
    hi = [max(s[j] for s in sites) for j in range(len(sites[0]))]
    if any(h - l + 1 > 7 for l, h in zip(lo, hi)):
        return {"applicable": False, "pass": True}
    pad = int(analysis.get("pad", 2))
    box = list(itertools.product(*[range(l - pad, h + pad + 1) for l, h in zip(lo, hi)]))
    walk = flux.geometry.unitary
    dense = dense_window_index(walk, setup.projection.apply, box, walk.n_internal, tol)
    blockwise = analyze(flux).index
    return {
        "applicable": True,
        "blockwise": blockwise,
        "dense": dense,
        "pass": blockwise == dense,
    }


def _walk_network_ensemble_analysis(setup, analysis, rng, tol, files):
    draws = int(analysis.get("draws", 100))
    max_leads = int(analysis.get("max_leads", 3))
    box = int(analysis.get("box", 10))
    failures = []
    for k in range(draws):
        n_in = int(rng.integers(0, max_leads + 1))
        n_out = int(rng.integers(0, max_leads + 1))
        if n_in + n_out == 0:
            n_out = 1
        network = random_network(rng, n_in, n_out, box=box)
        coin = synthesize_lead_coin(network, random_background(rng, 2, box=4))
        report, _ = walk_index(coin, network_projection(network), tol)
        if report.index != n_out - n_in:
            failures.append({"draw": k, "expected": n_out - n_in, "got": report.index})
    return {"draws": draws, "failures": failures, "pass": not failures}


def _spectrum_window_analysis(setup, analysis, rng, tol, files):
    box = int(analysis.get("box", 5))
    if isinstance(setup, CCSetup):
        unitary = ccm.CCUnitary(setup.scattering)
        d = 2
    else:
        unitary = build_walk(setup.coin, tol)
        d = setup.coin.d
    sites = list(itertools.product(*([range(-box, box + 1)] * d)))
    m = matrix_on_window(unitary, sites)
    evals = np.linalg.eigvals(m)
    rows = ["phase,modulus"]
    for lam in sorted(evals, key=lambda z: np.angle(z)):
        rows.append(f"{np.angle(lam):.12f},{abs(lam):.12f}")
    files["eigenphases.csv"] = "\n".join(rows) + "\n"
    return {
        "box": box,
        "count": len(evals),
        "note": "finite-window compression; boundary-affected, no assertion",
        "pass": True,
    }


# ---------------------------------------------------------------------------
# analyses: network model


def _cc_index_analysis(setup, analysis, rng, tol, files):
    report, _ = ccm.cc_index(setup.scattering, setup.path, tol)
    return _index_analysis_dict(report, analysis)


def _cc_ensemble_analysis(setup, analysis, rng, tol, files):
    draws = int(analysis.get("draws", 100))
    seeds = _child_seeds(int(setup.spec["seed"]) + 1, draws)
    indices = []
    for s in seeds:
        scattering = _path_scattering(setup.spec, setup.path, _rng(s))
        report, _ = ccm.cc_index(scattering, setup.path, tol)
        indices.append(report.index)
    out = {"draws": draws, "distinct": sorted(set(indices))}
    ok = True
    if "expect" in analysis:
        ok = all(i == analysis["expect"] for i in indices)
        out["expected"] = analysis["expect"]
    if "expect_abs" in analysis:
        ok = ok and all(abs(i) == analysis["expect_abs"] for i in indices)
        out["expected_abs"] = analysis["expect_abs"]
    if analysis.get("constant_sign", False):
        ok = ok and len(set(indices)) == 1
    out["pass"] = ok
    return out


def _cc_norm_law_analysis(setup, analysis, rng, tol, files):
    r_abs = float(analysis.get("r_abs", abs(setup.scattering.value((0, 0)).r)))
    _, flux = ccm.cc_index(setup.scattering, setup.path, tol)
    worst_norm = 0.0
    worst_eig = 0.0
    for blk in list(flux.blocks.values()) + [b for b in flux.shell.values() if b.norm() > tol.block_prune]:
        evals = np.linalg.eigvalsh(blk.matrix)
        worst_norm = max(worst_norm, abs(max(abs(evals)) - r_abs))
        for lam in evals:
            worst_eig = max(worst_eig, min(abs(lam - r_abs), abs(lam + r_abs)))
    return {
        "r_abs": r_abs,
        "norm_defect": worst_norm,
        "eigenvalue_defect": worst_eig,
        "pass": worst_norm <= 1e-10 and worst_eig <= 1e-10,
    }


def _cc_surgery_analysis(setup, analysis, rng, tol, files):
    reroutes = int(analysis.get("reroutes", 20))
    base_report, _ = ccm.cc_index(setup.scattering, setup.path, tol)
    results = []
    ok = True
    for k in range(reroutes):
        extended = setup.path.extended(12, 12)
        t0, t1 = extended.m_last // 2 - 8, extended.m_last // 2 + 8
        bumped = _random_bump(extended, rng, t0, t1)
        if bumped is None:
            continue
        new_path, expected_diff = bumped
        report, _ = ccm.cc_index(setup.scattering, new_path, tol)
        diff = ccm.region_difference_rank(extended, new_path, box=40)
        good = report.index == base_report.index and diff == expected_diff
        ok = ok and good
        results.append({"reroute": k, "index": report.index, "difference_rank": diff})
    return {
        "base_index": base_report.index,
        "reroutes": len(results),
        "results": results,
        "pass": ok and bool(results),
    }


def _random_bump(path: ccm.DualPath, rng, t_lo: int, t_hi: int):
    """Insert a parity-correct 2-column detour over a straight run."""
    candidates = []
    for t in range(max(1, t_lo), min(path.m_last - 3, t_hi)):
        a = path.vertex(t)
        b = path.vertex(t + 1)
        c = path.vertex(t + 2)
        if b[1] != a[1] or c[1] != a[1] or c[0] - a[0] not in (2, -2):
            continue
        # vertical detour links sit on columns a[0] and c[0]; their tag parity
        # must match the straight run's tag
        tag = path.step(t).tag
        col_tag = "r" if a[0] % 2 != 0 else "t"
        if col_tag != tag:
            continue
        candidates.append((t, a, b, c, tag))
    if not candidates:
        return None
    t, a, b, c, tag = candidates[int(rng.integers(len(candidates)))]
    up = 1 if rng.integers(2) else -1
    y = a[1]
    replacement = [
        a,
        (a[0], y + up),
        (a[0], y + 2 * up),
        (b[0], y + 2 * up),
        (c[0], y + 2 * up),
        (c[0], y + up),
        c,
    ]
    try:
        new_path = ccm.path_surgery(path, t, t + 2, replacement, require_tag=tag)
    except ValidationError:
        return None
    return new_path, 4


def _cc_anomalous_analysis(setup, analysis, rng, tol, files):
    epsilons = [float(e) for e in analysis.get("epsilons", [0.25, 0.125, 0.0625])]
    draws = int(analysis.get("draws", 1))
    seeds = _child_seeds(int(setup.spec["seed"]) + 2, draws)
    traces = []
    ok = True
    base_index = None
    for s in seeds:
        scattering = _path_scattering(setup.spec, setup.path, _rng(s))
        result = ccm.anomalous_transport(scattering, setup.path, epsilons, tol)
        if base_index is None:
            base_index = result["index"]
        ok = ok and result["index"] == base_index
        for eps, tr in result["traces"]:
            ok = ok and abs(tr - result["index"]) <= tol.trace_match
            traces.append([eps, tr])
    return {
        "index": base_index,
        "epsilons": epsilons,
        "draws": draws,
        "traces": traces[: 4 * len(epsilons)],
        "pass": ok,
    }


ANALYSES = {
    "walk": {
        "index": _walk_index_analysis,
        "flux_zero": _walk_flux_zero_analysis,
        "wandering": _walk_wandering_analysis,
        "confinement": _walk_confinement_analysis,
        "shift_decomposition": _walk_shift_analysis,
        "stability_probe": _walk_stability_analysis,
        "oracle_equivalence": _walk_oracle_analysis,
        "network_ensemble": _walk_network_ensemble_analysis,
        "spectrum_window": _spectrum_window_analysis,
    },
    "cc": {
        "index": _cc_index_analysis,
        "ensemble_index": _cc_ensemble_analysis,
        "norm_law": _cc_norm_law_analysis,
        "surgery": _cc_surgery_analysis,
        "anomalous_transport": _cc_anomalous_analysis,
        "spectrum_window": _spectrum_window_analysis,
    },
}


# ---------------------------------------------------------------------------
# runner


@dataclass
class ScenarioResult:
    report: dict
    files: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.report.get("pass"))


def run_scenario(
    spec: dict,
    seed_override: int | None = None,
    profile: str = "default",
) -> ScenarioResult:
    if profile not in PROFILES:
        raise ValidationError(f"unknown tolerance profile {profile!r}")
    tol = PROFILES[profile]
    if seed_override is not None and isinstance(spec, dict):
        spec = {**spec, "seed": seed_override}
    setup, rng, _ = _checked_setup(spec)
    seed = spec["seed"]
    kind = spec["kind"]
    files: dict[str, str] = {}
    analyses_out = {}
    all_ok = True
    for i, analysis in enumerate(spec["analyses"]):
        handler = ANALYSES[kind][analysis["type"]]
        try:
            result = handler(setup, analysis, rng, tol, files)
        except FluxwalkError as exc:
            result = {"pass": False, "error": str(exc)}
        key = analysis.get("label", f"{analysis['type']}#{i}")
        analyses_out[key] = result
        all_ok = all_ok and bool(result.get("pass", False))
    report = {
        "schema_version": SCHEMA_VERSION,
        "name": spec.get("name"),
        "kind": kind,
        "seed": seed,
        "rng": {"algorithm": RNG_ALGORITHM, "seed": seed},
        "tolerance_profile": profile,
        "analyses": analyses_out,
        "pass": all_ok,
    }
    return ScenarioResult(report=report, files=files)
