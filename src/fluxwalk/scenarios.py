"""Scenario files: parsing, validation, setups, and batch analyses.

A scenario is a JSON object that names a model (walk or network), how to
build its coin or scattering data from a seeded generator, the projection
geometry, and a list of analyses with embedded expectations.

Validation turns the file into a setup (``WalkSetup`` or ``CCSetup``) that
owns the model's data, the scenario generator and the validation notes; it
builds no operator and no flux.  A run gives the setup its tolerance profile
and passes it to each analysis in turn.  The checked unitary, the base flux
and the base index are built by the first analysis that reads them and then
shared.  The same file and seed produce byte-identical reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cc as ccm
from .config import DEFAULT, PROFILES, Tolerances
from .errors import FluxwalkError, ValidationError
from .fields import HalfSpace, Ray, SiteMap, interpolate_matrix_fields
from .flux import analyze, check_rank_formula, dense_window_index, index_stability_probe, max_block_norm
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


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{context} must be a JSON object")
    return value


def _list(value, context: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{context} must be a list")
    return value


def _need(spec: dict, key: str, context: str):
    if key not in _object(spec, context):
        raise ValidationError(f"{context}: missing required key {key!r}")
    return spec[key]


def _number(value, name: str, kind=int):
    """A numeric scenario or analysis field as ``kind``.  Booleans are not
    numbers, and an integer field takes only integral values (numbers or
    strings such as the ``interior`` keys)."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and out != value:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return out


def _numbers(value, name: str, length: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers, of ``length`` entries when given."""
    if not isinstance(value, list) or length not in (None, len(value)):
        count = "" if length is None else f"{length} "
        raise ValidationError(f"{name} must be a list of {count}integers, got {value!r}")
    return tuple(_number(c, name) for c in value)


def _interior_from_json(obj) -> dict:
    """Open slots chosen in the strip of a ``basic_halfspace`` projection.
    JSON object keys are strings, so each key is the site's one integer
    coordinate, bare or in brackets (``"-1"``, ``"[-1]"``)."""
    if not isinstance(obj, dict):
        raise ValidationError("projection interior must map sites to slot lists")
    interior = {}
    for key, slots in obj.items():
        site = (_number(key.strip("[] "), f"interior key {key!r}"),)
        if not isinstance(slots, list) or not all(type(s) is int and 0 <= s < 2 for s in slots):
            raise ValidationError(f"interior slots at {key!r} must be a list of slots 0 and 1")
        interior[site] = set(slots)
    return interior


def _lead_from_json(obj: dict) -> LeadSpec:
    kind = _need(obj, "kind", "lead")
    prefix = [_numbers(site, "lead site") for site in _list(_need(obj, "prefix", "lead"), "lead prefix")]
    ray = _numbers(_need(obj, "ray", "lead"), "lead ray")
    return LeadSpec(kind, prefix, ray)


def _network_from_json(obj: dict, d_total: int | None = None) -> NetworkSpec:
    incoming = tuple(map(_lead_from_json, _list(obj.get("incoming", []), "network incoming")))
    outgoing = tuple(map(_lead_from_json, _list(obj.get("outgoing", []), "network outgoing")))
    boundary = None
    if obj.get("boundary"):
        boundary = BoundarySpec(d_total or 2)
    network = NetworkSpec(incoming=incoming, outgoing=outgoing, boundary=boundary)
    validate_network(network)
    return network


def _path_from_json(obj: dict) -> ccm.DualPath:
    ptype = _need(obj, "type", "path")
    if ptype == "straight_r":
        return ccm.straight_r_path(_number(obj.get("height", 0), "path height"))
    if ptype == "crossover":
        return ccm.crossover_path(obj.get("west_first", True))
    if ptype == "wiggled_r":
        return ccm.wiggled_r_path()
    if ptype == "explicit":
        return ccm.DualPath(
            [_numbers(v, "path vertex", 2) for v in _list(_need(obj, "middle", "path"), "path middle")],
            _numbers(_need(obj, "pre", "path"), "path pre", 2),
            _numbers(_need(obj, "post", "path"), "path post", 2),
        )
    raise ValidationError(f"unknown path type {ptype!r}")


# ---------------------------------------------------------------------------
# setups and walk scenario construction


@dataclass(kw_only=True)
class _Setup:
    """A setup's generator, tolerance profile and notes.  ``unitary``, ``flux``
    and ``index_report`` are built on first use and kept; a build that raises
    keeps nothing, so the next reader retries."""

    rng: np.random.Generator
    tol: Tolerances = DEFAULT
    notes: list[str] = field(default_factory=list)
    network = None

    @cached_property
    def index_report(self):
        """The base index, checked by the rank formula and any lead count."""
        report = analyze(self.flux)
        check_rank_formula(report, self.flux, self.rank_formula)
        if self.network is not None:
            check_lead_count(report, self.network)
        return report


@dataclass
class WalkSetup(_Setup):
    """A coined walk: coin field, adapted projection and lead network, if
    any.  ``unitary`` is the checked walk; ``flux`` is self-checked."""

    coin: SiteMap
    projection: object
    network: NetworkSpec | None = None
    rank_formula = "rank-difference formula"

    @cached_property
    def unitary(self):
        return build_walk(self.coin, self.tol)

    @cached_property
    def flux(self):
        return build_walk_flux(self.unitary, self.projection, self.tol)


def _commuting_coin(rng: np.random.Generator, n: int, slot: int) -> np.ndarray:
    rest = [k for k in range(n) if k != slot]
    m = np.zeros((n, n), dtype=complex)
    m[slot, slot] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    if rest:
        m[np.ix_(rest, rest)] = haar_unitary(rng, len(rest))
    return m


def build_walk_setup(spec: dict, rng: np.random.Generator) -> WalkSetup:
    d = _number(_need(spec.get("geometry", {}), "d", "geometry"), "geometry d")
    coin_spec = _need(spec, "coin", "scenario")
    proj_spec = _need(spec, "projection", "scenario")
    ctype = _need(coin_spec, "type", "coin")
    ptype = _need(proj_spec, "type", "projection")

    if ctype == "basic_example":
        if d != 1:
            raise ValidationError("basic_example coin requires d = 1")
        n_cut = _number(coin_spec.get("n_cut", 2), "coin n_cut")
        box = _number(coin_spec.get("box", n_cut + 4), "coin box")
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
        interior = proj_spec.get("interior")
        if interior is not None:
            interior = _interior_from_json(interior)
        proj = basic_halfspace_projection(_number(proj_spec.get("n_cut", n_cut), "n_cut"), interior)
        setup = WalkSetup(coin, proj, rng=rng)

    elif ctype == "halfline_commuting":
        sign = _number(coin_spec.get("sign", 1), "coin sign")
        box = _number(coin_spec.get("box", 3), "coin box")
        n = 2 * d
        slot = index_of_vector(tuple([sign] + [0] * (d - 1)))
        window = {}
        for site in itertools.product(*([range(-box, box + 1)] * d)):
            window[site] = haar_unitary(rng, n)
        for x in range(1, box + 1):
            site = tuple([x] + [0] * (d - 1))
            window[site] = _commuting_coin(rng, n, slot)
        ray_coin = _commuting_coin(rng, n, slot)
        e1 = tuple([1] + [0] * (d - 1))
        coin = SiteMap(
            d,
            window=window,
            rays=[(Ray(e1, e1), [ray_coin])],
            background=np.eye(n, dtype=complex),
        )
        if ptype != "halfline":
            raise ValidationError("halfline_commuting coin pairs with halfline")
        proj = halfline_projection(d, _number(proj_spec.get("sign", sign), "projection sign"))
        setup = WalkSetup(coin, proj, rng=rng)

    elif ctype == "lead_network":
        if ptype != "network":
            raise ValidationError("lead_network coin pairs with a network projection")
        network = _network_from_json(proj_spec, d_total=d)
        box = _number(coin_spec.get("background_box", 4), "coin background_box")
        if network.boundary is not None:
            background = reflecting_coin(d, rng, box=box)
        else:
            background = random_background(rng, d, box=box)
        coin = synthesize_lead_coin(network, background)
        proj = network_projection(network)
        setup = WalkSetup(coin, proj, network=network, rng=rng)

    elif ctype == "reflecting":
        if ptype != "boundary_full":
            raise ValidationError("reflecting coin pairs with boundary_full")
        box = _number(coin_spec.get("box", 3), "coin box")
        coin = reflecting_coin(d, rng, box=box)
        proj = boundary_projection_full(d)
        setup = WalkSetup(coin, proj, rng=rng)

    else:
        raise ValidationError(f"unknown coin type {ctype!r}")
    setup.notes.append(f"coin and projection constructed (d = {setup.coin.d})")
    if setup.network is not None:
        setup.notes.append(
            f"network valid: {len(setup.network.outgoing)} outgoing, "
            f"{len(setup.network.incoming)} incoming"
        )
    return setup


# ---------------------------------------------------------------------------
# network scenario construction


@dataclass
class CCSetup(_Setup):
    """A Chalker-Coddington network: scattering field, the dual path whose
    left region is the projection, and the spec, which seeds the ensembles.
    ``unitary`` is the checked network; ``flux`` is self-checked."""

    scattering: SiteMap
    path: ccm.DualPath
    spec: dict
    rank_formula = "the cell rank formula"

    @cached_property
    def unitary(self):
        return ccm.CCUnitary(self.scattering)

    @cached_property
    def flux(self):
        return ccm.cc_flux(self.scattering, self.path, self.tol)


def _path_scattering(spec: dict, path: ccm.DualPath, rng: np.random.Generator) -> SiteMap:
    """The scenario's scattering field; a random-phase window reaches 8 cells
    beyond the path's explicit vertices unless the spec sets its extent."""
    spec = _object(_need(spec, "scattering", "scenario"), "scattering")
    template = spec.get("template")
    if template == "critical":
        base = ccm.CRITICAL
        r_abs = float(abs(base.r))
    else:
        r_abs = _number(_need(spec, "r_abs", "scattering"), "scattering r_abs", float)
        if not 0.0 <= r_abs <= 1.0:
            raise ValidationError("r_abs must lie in [0, 1]")
        base = ccm.ScatteringParams(1.0, r_abs, math.sqrt(max(0.0, 1.0 - r_abs**2)))
    phases = spec.get("phases", "unity")
    if phases == "unity":
        return SiteMap(2, background=base)
    if phases == "random":
        (lo, lo2), (hi, hi2) = path.bounds()
        extent = _number(spec.get("window", max(abs(lo), abs(lo2), abs(hi), abs(hi2)) + 8), "window")
        window = ccm.random_phase_window(
            rng, r_abs, range(-extent, extent + 1), range(-extent, extent + 1)
        )
        return SiteMap(2, window=window, background=base)
    raise ValidationError(f"unknown phase mode {phases!r}")


def build_cc_setup(spec: dict, rng: np.random.Generator) -> CCSetup:
    """The setup, once the index is defined at infinity: a ray whose steps
    all carry one weight tag must not conduct perfectly along that tag."""
    path = _path_from_json(_need(spec, "path", "scenario"))
    setup = CCSetup(_path_scattering(spec, path, rng), path, spec, rng=rng)
    t0, t1 = path.switch_window()
    for side, t_lo, t_hi, far in (("pre", -30, t0, -50), ("post", t1, 30, 50)):
        tags = {e.tag for e in path.steps(t_lo, t_hi)}
        if len(tags) == 1:
            tag = tags.pop()
            deep = path.step(far)
            params = setup.scattering.value(deep.cell)
            weight = abs(params.r) if tag == "r" else abs(params.t)
            if weight >= 1.0 - 1e-9:
                raise ValidationError(
                    f"index undefined at infinity: {tag}-ray tail carries "
                    f"weight {weight:.6f} at cell {deep.cell}"
                )
            setup.notes.append(f"{side} ray is {tag}-pure with tail weight {weight:.6f}")
    return setup


# ---------------------------------------------------------------------------
# validation without heavy computation


def _checked_setup(spec: dict):
    """Structural and precondition checks, raising on the first violation;
    returns the setup they build, with its generator and notes."""
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
    build_setup = {"walk": build_walk_setup, "cc": build_cc_setup}
    if kind not in build_setup:
        raise ValidationError(f"unknown scenario kind {kind!r}")
    setup = build_setup[kind](spec, _rng(int(seed)))
    for i, analysis in enumerate(analyses):
        atype = _need(analysis, "type", f"analysis #{i}")
        if not isinstance(atype, str) or atype not in ANALYSES[kind]:
            raise ValidationError(f"analysis type {atype!r} not available for kind {kind!r}")
        if not isinstance(analysis.get("label", ""), str):
            raise ValidationError(f"analysis #{i} label must be a string")
    return setup


def validate_scenario(spec: dict) -> list[str]:
    """Structural and precondition checks; raises on the first violation."""
    return _checked_setup(spec).notes


# ---------------------------------------------------------------------------
# analyses: both models, then walks


def _index_analysis(setup, analysis, files):
    """Index report fields plus the verdict on the analysis' expectation."""
    report = setup.index_report
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


def _spectrum_window_analysis(setup, analysis, files):
    box = _number(analysis.get("box", 5), "box")
    unitary = setup.unitary
    sites = list(itertools.product(*([range(-box, box + 1)] * unitary.d)))
    m = matrix_on_window(unitary, sites)
    evals = np.linalg.eigvals(m)
    rows = ["phase,modulus"]
    rows += [f"{np.angle(z):.12f},{abs(z):.12f}" for z in sorted(evals, key=np.angle)]
    files["eigenphases.csv"] = "\n".join(rows) + "\n"
    return {
        "box": box,
        "count": len(evals),
        "note": "finite-window compression; boundary-affected, no assertion",
        "pass": True,
    }


def _walk_flux_zero_analysis(setup, analysis, files):
    worst = max_block_norm(setup.flux)
    return {"max_block_norm": worst, "pass": worst <= 1e-12}


def _walk_wandering_analysis(setup, analysis, files):
    steps = _number(analysis.get("steps", 50), "steps")
    walk = setup.unitary
    results = []
    ok = True
    rows = ["lead,step,overlap"]
    for idx, lead in enumerate(setup.network.leads() if setup.network else []):
        head, tangent = lead.head_pair()
        seed_state = LatticeState.basis(head, index_of_vector(tangent), walk.n_internal)
        rep = verify_wandering(
            walk, seed_state, steps, lead=lead, adjoint=(lead.kind == "incoming"), tol=setup.tol
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


def _walk_confinement_analysis(setup, analysis, files):
    steps = _number(analysis.get("steps", 30), "steps")
    leak = verify_confinement(setup.unitary, setup.rng, steps=steps, box=_number(analysis.get("box", 3), "box"))
    return {"steps": steps, "max_leak": leak, "pass": leak <= setup.tol.wandering}


def _walk_shift_analysis(setup, analysis, files):
    steps = _number(analysis.get("steps", 30), "steps")
    index = setup.index_report.index
    flux = setup.flux
    kernels = extract_kernels(flux)
    perturbed = build_perturbed(flux.geometry.unitary, flux, kernels)
    shift_report = verify_shift_structure(perturbed, kernels, k_max=steps)
    return {**shift_report.as_dict(), "index": index, "pass": shift_report.ok}


def _walk_stability_analysis(setup, analysis, files):
    steps = _number(analysis.get("steps", 20), "steps")
    strength = _number(analysis.get("strength", 0.1), "strength", float)
    target = perturb_coin_window(setup.coin, setup.rng, strength)

    def family(t):
        coin_t = interpolate_matrix_fields(setup.coin, target, t)
        return build_walk_flux(coin_t, setup.projection, setup.tol, selfcheck=False)

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


def _walk_oracle_analysis(setup, analysis, files):
    """Dense index of the compression to a padded box around the kept window
    blocks; not applicable without such blocks or when the box is wide."""
    sites = sorted(setup.flux.blocks)
    lo = [min(c) for c in zip(*sites)]
    hi = [max(c) for c in zip(*sites)]
    if not sites or any(h - l + 1 > 7 for l, h in zip(lo, hi)):
        return {"applicable": False, "pass": True}
    pad = _number(analysis.get("pad", 2), "pad")
    box = list(itertools.product(*[range(l - pad, h + pad + 1) for l, h in zip(lo, hi)]))
    walk = setup.flux.geometry.unitary
    dense = dense_window_index(walk, setup.projection.apply, box, walk.n_internal, setup.tol)
    blockwise = setup.index_report.index
    return {
        "applicable": True,
        "blockwise": blockwise,
        "dense": dense,
        "pass": blockwise == dense,
    }


def _walk_network_ensemble_analysis(setup, analysis, files):
    rng = setup.rng
    draws = _number(analysis.get("draws", 100), "draws")
    max_leads = _number(analysis.get("max_leads", 3), "max_leads")
    box = _number(analysis.get("box", 10), "box")
    failures = []
    for k in range(draws):
        n_in = int(rng.integers(0, max_leads + 1))
        n_out = int(rng.integers(0, max_leads + 1))
        if n_in + n_out == 0:
            n_out = 1
        network = random_network(rng, n_in, n_out, box=box)
        coin = synthesize_lead_coin(network, random_background(rng, 2, box=4))
        report, _ = walk_index(coin, network_projection(network), setup.tol)
        if report.index != n_out - n_in:
            failures.append({"draw": k, "expected": n_out - n_in, "got": report.index})
    return {"draws": draws, "failures": failures, "pass": not failures}


# ---------------------------------------------------------------------------
# analyses: network model


def _cc_ensemble_analysis(setup, analysis, files):
    draws = _number(analysis.get("draws", 100), "draws")
    seeds = _child_seeds(int(setup.spec["seed"]) + 1, draws)
    indices = []
    for s in seeds:
        scattering = _path_scattering(setup.spec, setup.path, _rng(s))
        report, _ = ccm.cc_index(scattering, setup.path, setup.tol)
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


def _cc_norm_law_analysis(setup, analysis, files):
    r_abs = _number(analysis.get("r_abs", abs(setup.scattering.value((0, 0)).r)), "r_abs", float)
    flux = setup.flux
    shell = [b for b in flux.shell.values() if b.norm() > setup.tol.block_prune]
    worst_norm = 0.0
    worst_eig = 0.0
    for blk in list(flux.blocks.values()) + shell:
        evals = blk.eigenvalues
        worst_norm = max(worst_norm, abs(max(abs(evals)) - r_abs))
        for lam in evals:
            worst_eig = max(worst_eig, min(abs(lam - r_abs), abs(lam + r_abs)))
    return {
        "r_abs": r_abs,
        "norm_defect": worst_norm,
        "eigenvalue_defect": worst_eig,
        "pass": worst_norm <= 1e-10 and worst_eig <= 1e-10,
    }


def _cc_surgery_analysis(setup, analysis, files):
    reroutes = _number(analysis.get("reroutes", 20), "reroutes")
    base_report = setup.index_report
    extended = setup.path.extended(12, 12)
    t0, t1 = extended.m_last // 2 - 8, extended.m_last // 2 + 8
    results = []
    ok = True
    for k in range(reroutes):
        bumped = ccm.random_bump(extended, setup.rng, t0, t1)
        if bumped is None:
            continue
        new_path, expected_diff = bumped
        report, _ = ccm.cc_index(setup.scattering, new_path, setup.tol)
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


def _cc_anomalous_analysis(setup, analysis, files):
    epsilons = analysis.get("epsilons", [0.25, 0.125, 0.0625])
    if not isinstance(epsilons, list):
        raise ValidationError("epsilons must be a list of numbers")
    epsilons = [_number(e, "epsilons", float) for e in epsilons]
    draws = _number(analysis.get("draws", 1), "draws")
    seeds = _child_seeds(int(setup.spec["seed"]) + 2, draws)
    traces = []
    ok = True
    base_index = None
    for s in seeds:
        scattering = _path_scattering(setup.spec, setup.path, _rng(s))
        result = ccm.anomalous_transport(scattering, setup.path, epsilons, setup.tol)
        if base_index is None:
            base_index = result["index"]
        ok = ok and result["index"] == base_index
        for eps, tr in result["traces"]:
            ok = ok and abs(tr - result["index"]) <= setup.tol.trace_match
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
        "index": _index_analysis,
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
        "index": _index_analysis,
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
    if seed_override is not None and isinstance(spec, dict):
        spec = {**spec, "seed": seed_override}
    setup = _checked_setup(spec)
    setup.tol = PROFILES[profile]
    seed = spec["seed"]
    kind = spec["kind"]
    files: dict[str, str] = {}
    analyses_out = {}
    all_ok = True
    for i, analysis in enumerate(spec["analyses"]):
        handler = ANALYSES[kind][analysis["type"]]
        try:
            result = handler(setup, analysis, files)
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
