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
from .config import DEFAULT, DENSE_BASIS, PROFILES, WINDOW_SITES, Tolerances
from .errors import FluxwalkError, ValidationError
from .fields import HalfSpace, Ray, SiteMap, interpolate_matrix_fields
from .flux import VANISHING_FLUX_BOUND, analyze, dense_window_index, index_stability_probe, max_block_norm
from .lattice import haar_unitary, index_of_vector
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
    walk_flux_window,
    walk_index,
    boundary_projection_full,
)

RNG_ALGORITHM = "PCG64"
TAIL_WEIGHT_MARGIN = 1e-9  # least distance from 1 of a pure ray tail's weight
NORM_LAW_BOUND = 1e-10  # largest miss of |r| by a block norm or eigenvalue modulus


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _child_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


# ---------------------------------------------------------------------------
# parsing helpers


def _object(value, context: str, allowed=None) -> dict:
    """``value`` once it is a JSON object with no key outside ``allowed``, if given."""
    if not isinstance(value, dict):
        raise ValidationError(f"{context} must be a JSON object")
    unknown = [] if allowed is None else [key for key in value if key not in allowed]
    if unknown:
        raise ValidationError(f"{context} has unknown key {unknown[0]!r}; allowed keys: {', '.join(allowed)}")
    return value


def _list(value, context: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{context} must be a list")
    return value


def _need(spec: dict, key: str, context: str):
    if key not in _object(spec, context):
        raise ValidationError(f"{context}: missing required key {key!r}")
    return spec[key]


def _number(value, name: str, kind=int, low=None):
    """A numeric scenario or analysis field as ``kind``, at least ``low``
    when given.  Booleans are not numbers, a float field must be finite
    (Python's ``json`` reads ``NaN`` and ``Infinity``), and an integer field
    takes only integral values within int64 (numbers or strings such as the
    ``interior`` keys)."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if kind is float and not math.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if kind is int and isinstance(value, float) and out != value:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if kind is int and not -(1 << 63) <= out < 1 << 63:
        raise ValidationError(f"{name} must fit in 64 bits, got {value!r}")
    if low is not None and out < low:
        raise ValidationError(f"{name} must be at least {low}, got {value!r}")
    return out


def _flag(value, name: str) -> bool:
    """A JSON boolean field; strings such as ``"false"`` are not flags."""
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be true or false, got {value!r}")
    return value


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


def _leads_from_json(obj: dict, side: str, d: int) -> tuple[LeadSpec, ...]:
    """The ``side`` leads, named by side and place, with ``d`` integers in each site and ray."""
    leads = []
    for i, lead in enumerate(_list(obj.get(side, []), f"network {side}")):
        name = f"{side}[{i}] lead"
        kind = _need(_object(lead, name, ("kind", "prefix", "ray")), "kind", name)
        prefix = [_numbers(site, f"{name} site", d) for site in _list(_need(lead, "prefix", name), f"{name} prefix")]
        leads.append(LeadSpec(kind, prefix, _numbers(_need(lead, "ray", name), f"{name} ray", d)))
    return tuple(leads)


def _network_from_json(obj: dict, d_total: int) -> NetworkSpec:
    incoming, outgoing = (_leads_from_json(obj, side, d_total) for side in ("incoming", "outgoing"))
    boundary = BoundarySpec(d_total) if _flag(obj.get("boundary", False), "projection boundary") else None
    return validate_network(NetworkSpec(incoming=incoming, outgoing=outgoing, boundary=boundary))


def _path_from_json(obj: dict) -> ccm.DualPath:
    ptype = _need(obj, "type", "path")
    if ptype == "straight_r":
        return ccm.straight_r_path(_number(obj.get("height", 0), "path height"))
    if ptype == "crossover":
        return ccm.crossover_path(_flag(obj.get("west_first", True), "path west_first"))
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
        """The base index from ``analyze``, which checks it against the rank
        formula, checked against the lead count too where there are leads."""
        report = analyze(self.flux)
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


def build_walk_setup(spec: dict, rng: np.random.Generator, tol: Tolerances) -> WalkSetup:
    d = _number(_need(_object(spec.get("geometry", {}), "geometry", ("d",)), "d", "geometry"), "geometry d", low=1)
    coin_spec = _need(spec, "coin", "scenario")
    proj_spec = _need(spec, "projection", "scenario")
    ctype = _need(coin_spec, "type", "coin")
    ptype = _need(proj_spec, "type", "projection")
    network = None

    if ctype == "basic_example":
        if d != 1:
            raise ValidationError("basic_example coin requires d = 1")
        n_cut = _number(coin_spec.get("n_cut", 2), "coin n_cut", low=0)
        box = _number(coin_spec.get("box", n_cut + 4), "coin box", low=0)
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

    elif ctype == "halfline_commuting":
        sign = _number(coin_spec.get("sign", 1), "coin sign")
        if sign not in (-1, 1):
            raise ValidationError(f"coin sign must be 1 or -1, got {sign}")
        box = _number(coin_spec.get("box", 3), "coin box", low=0)
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
        proj_sign = _number(proj_spec.get("sign", sign), "projection sign")
        if proj_sign not in (-1, 1):
            raise ValidationError(f"projection sign must be 1 or -1, got {proj_sign}")
        proj = halfline_projection(d, proj_sign)

    elif ctype == "lead_network":
        if ptype != "network":
            raise ValidationError("lead_network coin pairs with a network projection")
        network = _network_from_json(proj_spec, d_total=d)
        box = _number(coin_spec.get("background_box", 4), "coin background_box", low=0)
        if network.boundary is not None:
            background = reflecting_coin(d, rng, box=box)
        else:
            background = random_background(rng, d, box=box)
        coin = synthesize_lead_coin(network, background, tol)
        proj = network_projection(network)

    elif ctype == "reflecting":
        if ptype != "boundary_full":
            raise ValidationError("reflecting coin pairs with boundary_full")
        box = _number(coin_spec.get("box", 3), "coin box", low=0)
        coin = reflecting_coin(d, rng, box=box)
        proj = boundary_projection_full(d)

    else:
        raise ValidationError(f"unknown coin type {ctype!r}")
    setup = WalkSetup(coin, proj, network=network, rng=rng, tol=tol)
    walk_flux_window(setup.coin, setup.projection)  # the window checks, before any flux is built
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

    @cached_property
    def unitary(self):
        return ccm.CCUnitary(self.scattering)

    @cached_property
    def flux(self):
        return ccm.cc_flux([self.scattering], self.path, self.tol)[0]


def _path_scattering(spec: dict, path: ccm.DualPath, rng: np.random.Generator) -> SiteMap:
    """The scenario's scattering field; a random-phase window reaches 8 cells
    beyond the path's explicit vertices unless the spec sets its extent."""
    spec = _object(_need(spec, "scattering", "scenario"), "scattering", ("template", "r_abs", "phases", "window"))
    template = spec.get("template")
    if template not in (None, "critical"):
        raise ValidationError(f"unknown scattering template {template!r}")
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
        extent = max(map(abs, (lo, lo2, hi, hi2))) + 8
        if "window" in spec:
            extent = _number(spec["window"], "window", low=0)
        cells = (2 * extent + 1) * (extent // 2 * 2 + 1)
        if cells > WINDOW_SITES:
            raise ValidationError(f"the phase window holds {cells} cells, more than {WINDOW_SITES}")
        window = ccm.random_phase_window(
            rng, r_abs, range(-extent, extent + 1), range(-extent, extent + 1)
        )
        return SiteMap(2, window=window, background=base)
    raise ValidationError(f"unknown phase mode {phases!r}")


def build_cc_setup(spec: dict, rng: np.random.Generator, tol: Tolerances) -> CCSetup:
    """The setup, once the index is defined at infinity: a ray whose steps
    all carry one weight tag must not conduct perfectly along that tag."""
    path = _path_from_json(_need(spec, "path", "scenario"))
    setup = CCSetup(_path_scattering(spec, path, rng), path, spec, rng=rng, tol=tol)
    ccm.region_box(*ccm.points_box(ccm.cc_flux_window(setup.scattering, path)))  # the window and region box checks
    path.crossings(-50, path.m_last + 51)  # one pass over every step read below
    t0, t1 = path.switch_window()
    for side, t_lo, t_hi, far in (("pre", -30, t0, -50), ("post", t1, 30, 50)):
        tags = set(path.crossings(t_lo, t_hi)[1].tolist())
        if len(tags) == 1:
            tag = tags.pop()
            cell = tuple(path.crossings(far, far + 1)[0][0].tolist())
            _, r, t = setup.scattering.value(cell)
            weight = abs(r) if tag == "r" else abs(t)
            if weight >= 1.0 - TAIL_WEIGHT_MARGIN:
                raise ValidationError(
                    f"index undefined at infinity: {tag}-ray tail carries "
                    f"weight {weight:.6f} at cell {cell}"
                )
            setup.notes.append(f"{side} ray is {tag}-pure with tail weight {weight:.6f}")
    return setup


# ---------------------------------------------------------------------------
# validation without heavy computation


def _checked_setup(spec: dict, tol: Tolerances = DEFAULT):
    """Structural and precondition checks, raising on the first violation;
    returns the setup they build under ``tol``, with its generator and notes."""
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
    if not isinstance(kind, str) or kind not in build_setup:
        raise ValidationError(f"unknown scenario kind {kind!r}")
    _object(spec, "scenario", ("schema_version", "name", "description", "kind", "seed", *KEYS[kind], "analyses"))
    setup = build_setup[kind](spec, _rng(int(seed)), tol)
    for name in ("coin", "projection", "path"):  # each of a type that the setup's builder accepted
        if name in spec:
            _object(spec[name], name, ("type", *KEYS[spec[name]["type"]]))
    for i, analysis in enumerate(analyses):
        atype = _need(analysis, "type", f"analysis #{i}")
        if not isinstance(atype, str) or atype not in ANALYSES[kind]:
            raise ValidationError(f"analysis type {atype!r} not available for kind {kind!r}")
        if not isinstance(analysis.get("label", ""), str):
            raise ValidationError(f"analysis #{i} label must be a string")
        _object(analysis, f"analysis #{i} ({atype})", ("type", "label", *ANALYSIS_KEYS[atype]))
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
        out["expected"] = _number(analysis["expect"], "expect")
        out["pass"] = report.index == out["expected"]
    elif "expect_abs" in analysis:
        out["expected_abs"] = _number(analysis["expect_abs"], "expect_abs", low=0)
        out["pass"] = abs(report.index) == out["expected_abs"]
    else:
        out["pass"] = True
    return out


def _dense_window(ranges, n_internal: int) -> list:
    """The sites of a dense window compression over unit-step ``ranges``,
    refused above ``DENSE_BASIS`` basis vectors before any is listed."""
    basis = math.prod(r.stop - r.start for r in ranges) * n_internal
    if basis > DENSE_BASIS:
        raise ValidationError(f"a dense window of {basis} basis vectors exceeds DENSE_BASIS = {DENSE_BASIS}")
    return list(itertools.product(*ranges))


def _spectrum_window_analysis(setup, analysis, files):
    box = _number(analysis.get("box", 5), "box", low=0)
    unitary = setup.unitary
    sites = _dense_window([range(-box, box + 1)] * unitary.d, unitary.n_internal)
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
    return {"max_block_norm": worst, "pass": worst <= VANISHING_FLUX_BOUND}


def _walk_wandering_analysis(setup, analysis, files):
    steps = _number(analysis.get("steps", 50), "steps")
    if setup.network is None or not setup.network.leads():
        raise ValidationError("wandering needs a lead network with at least one lead")
    results = []
    ok = True
    rows = ["lead,step,overlap"]
    for idx, lead in enumerate(setup.network.leads()):
        rep = verify_wandering(setup.unitary, lead, steps, tol=setup.tol)
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
    steps = _number(analysis.get("steps", 30), "steps", low=1)
    box = _number(analysis.get("box", 3), "box", low=0)
    leak = verify_confinement(setup.unitary, setup.rng, steps=steps, box=box)
    return {"steps": steps, "max_leak": leak, "pass": leak <= setup.tol.wandering}


def _walk_shift_analysis(setup, analysis, files):
    steps = _number(analysis.get("steps", 30), "steps")
    index = setup.index_report.index
    flux = setup.flux
    kernels = extract_kernels(flux)
    perturbed = build_perturbed(flux, kernels)
    shift_report = verify_shift_structure(perturbed, k_max=steps)
    return {**shift_report.as_dict(), "index": index, "pass": shift_report.ok}


def _walk_stability_analysis(setup, analysis, files):
    steps = _number(analysis.get("steps", 20), "steps", low=1)
    strength = _number(analysis.get("strength", 0.1), "strength", float)
    target = perturb_coin_window(setup.coin, setup.rng, strength)

    def family(t):
        walk = build_walk(interpolate_matrix_fields(setup.coin, target, t), setup.tol)
        return build_walk_flux(walk, setup.projection, setup.tol, selfcheck=False)

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
    pad = _number(analysis.get("pad", 2), "pad", low=0)
    flux = setup.flux
    labels = flux.box.index.table[flux.kept]
    if not len(labels) or np.ptp(labels, axis=0).max() + 1 > 7:
        return {"applicable": False, "pass": True}
    lo, hi = labels.min(axis=0).tolist(), labels.max(axis=0).tolist()
    walk = flux.geometry.unitary
    box = _dense_window([range(l - pad, h + pad + 1) for l, h in zip(lo, hi)], walk.n_internal)
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
    draws = _number(analysis.get("draws", 100), "draws", low=1)
    max_leads = _number(analysis.get("max_leads", 3), "max_leads", low=0)
    box = _number(analysis.get("box", 10), "box", low=0)
    failures = []
    for k in range(draws):
        n_in = int(rng.integers(0, max_leads + 1))
        n_out = int(rng.integers(0, max_leads + 1))
        if n_in + n_out == 0:
            n_out = 1
        network = random_network(rng, n_in, n_out, box=box)
        coin = synthesize_lead_coin(network, random_background(rng, 2, box=4), setup.tol)
        report, _ = walk_index(coin, network_projection(network), setup.tol)
        if report.index != n_out - n_in:
            failures.append({"draw": k, "expected": n_out - n_in, "got": report.index})
    return {"draws": draws, "failures": failures, "pass": not failures}


# ---------------------------------------------------------------------------
# analyses: network model


def _cc_ensemble_analysis(setup, analysis, files):
    draws = _number(analysis.get("draws", 100), "draws", low=1)
    expect = _number(analysis["expect"], "expect") if "expect" in analysis else None
    expect_abs = _number(analysis["expect_abs"], "expect_abs", low=0) if "expect_abs" in analysis else None
    constant_sign = _flag(analysis.get("constant_sign", False), "constant_sign")
    seeds = _child_seeds(int(setup.spec["seed"]) + 1, draws)
    indices = []
    plan = ccm.FluxPlan()
    for s in seeds:
        scattering = _path_scattering(setup.spec, setup.path, _rng(s))
        report, _ = ccm.cc_index(scattering, setup.path, setup.tol, plan)
        indices.append(report.index)
    out = {"draws": draws, "distinct": sorted(set(indices))}
    ok = True
    if expect is not None:
        ok = all(i == expect for i in indices)
        out["expected"] = expect
    if expect_abs is not None:
        ok = ok and all(abs(i) == expect_abs for i in indices)
        out["expected_abs"] = expect_abs
    if constant_sign:
        ok = ok and len(set(indices)) == 1
    out["pass"] = ok
    return out


def _cc_norm_law_analysis(setup, analysis, files):
    _, r, _ = setup.scattering.value((0, 0))
    r_abs = _number(analysis.get("r_abs", abs(r)), "r_abs", float)
    # every window and shell block above the pruning threshold
    box = setup.flux.box
    rows = box.norms > setup.tol.block_prune
    evals = box.eigenvalues[rows]
    worst_norm = float(np.abs(box.norms[rows] - r_abs).max(initial=0.0))
    worst_eig = float(np.minimum(np.abs(evals - r_abs), np.abs(evals + r_abs)).max(initial=0.0))
    return {
        "r_abs": r_abs,
        "norm_defect": worst_norm,
        "eigenvalue_defect": worst_eig,
        "pass": worst_norm <= NORM_LAW_BOUND and worst_eig <= NORM_LAW_BOUND,
    }


def _cc_surgery_analysis(setup, analysis, files):
    reroutes = _number(analysis.get("reroutes", 20), "reroutes")
    base_report = setup.index_report
    extended = setup.path.extended(12, 12)
    split = ccm.RegionSplit(extended, (-40, -40), (40, 40))
    t0, t1 = extended.m_last // 2 - 8, extended.m_last // 2 + 8
    results = []
    ok = True
    seen = {}  # the index and difference rank of each distinct rerouted path
    for k in range(reroutes):
        bumped = ccm.random_bump(extended, setup.rng, t0, t1)
        if bumped is None:
            continue
        new_path, expected_diff = bumped
        if new_path.middle not in seen:
            index = ccm.cc_index(setup.scattering, new_path, setup.tol)[0].index
            seen[new_path.middle] = index, ccm.region_difference_rank(split, new_path)
        index, diff = seen[new_path.middle]
        good = index == base_report.index and diff == expected_diff
        ok = ok and good
        results.append({"reroute": k, "index": index, "difference_rank": diff})
    return {
        "base_index": base_report.index,
        "reroutes": len(results),
        "results": results,
        "pass": ok and bool(results),
    }


def _cc_anomalous_analysis(setup, analysis, files):
    epsilons = analysis.get("epsilons", [0.25, 0.125, 0.0625])
    if not isinstance(epsilons, list) or not epsilons:
        raise ValidationError("epsilons must be a nonempty list of numbers")
    epsilons = [_number(e, "epsilons", float) for e in epsilons]
    draws = _number(analysis.get("draws", 1), "draws", low=1)
    seeds = _child_seeds(int(setup.spec["seed"]) + 2, draws)
    traces = []
    ok = True
    base_index = None
    plan = ccm.FluxPlan()
    for s in seeds:
        scattering = _path_scattering(setup.spec, setup.path, _rng(s))
        result = ccm.anomalous_transport(scattering, setup.path, epsilons, setup.tol, plan)
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

# the top-level keys of each kind besides the common ones, and the keys of each coin, projection and path type
KEYS = {
    "walk": ("geometry", "coin", "projection"), "cc": ("path", "scattering"),
    "basic_example": ("n_cut", "box"), "halfline_commuting": ("sign", "box"), "reflecting": ("box",),
    "lead_network": ("background_box",), "basic_halfspace": ("n_cut", "interior"), "halfline": ("sign",),
    "network": ("incoming", "outgoing", "boundary"), "boundary_full": (), "straight_r": ("height",),
    "crossover": ("west_first",), "wiggled_r": (), "explicit": ("middle", "pre", "post"),
}
# the keys each analysis type reads besides "type" and "label"
ANALYSIS_KEYS = {
    "index": ("expect", "expect_abs"),
    "flux_zero": (),
    "wandering": ("steps",),
    "confinement": ("steps", "box"),
    "shift_decomposition": ("steps",),
    "stability_probe": ("steps", "strength"),
    "oracle_equivalence": ("pad",),
    "network_ensemble": ("draws", "max_leads", "box"),
    "spectrum_window": ("box",),
    "ensemble_index": ("draws", "expect", "expect_abs", "constant_sign"),
    "norm_law": ("r_abs",),
    "surgery": ("reroutes",),
    "anomalous_transport": ("epsilons", "draws"),
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
    setup = _checked_setup(spec, PROFILES[profile])
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
