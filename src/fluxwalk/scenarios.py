"""Scenario files: parsing, validation, setups, and batch analyses.

A scenario is a JSON object that names a model (walk or network), how to
build its coin or scattering data from a seeded generator, the projection
geometry, and a list of analyses with embedded expectations.

Validation turns the file into a setup (``WalkSetup`` or ``CCSetup``) that
owns the model's data, the scenario generator and the validation notes; it
builds no operator and no flux.  It parses every part (geometry, coin,
projection, path, scattering) by its rows of ``PARTS`` before the builders
run, which read only parsed values and size each window before listing or
drawing it; it parses each analysis's arguments by their row of
``ARGUMENTS`` and refuses two analyses with one report key, so a bad value
fails before any analysis runs.  A run gives the setup its tolerance profile
and passes each analysis its parsed arguments in turn.
The checked unitary, the base flux and the base index are built by the
first analysis that reads them and then shared.  The same file and seed
produce byte-identical reports.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cc as ccm
from .config import DEFAULT, DENSE_BASIS, DRAWS_MOST, EPSILON_LEAST, LEADS_MOST, NETWORK_BOX_MOST, PROFILES, STEPS_MOST
from .config import Tolerances, check_size
from .errors import FluxwalkError, ValidationError
from .fields import HalfSpace, Ray, SiteMap, interpolate_matrix_fields
from .flux import VANISHING_FLUX_BOUND, analyze, dense_window_index, index_stability_probe, max_block_norm
from .lattice import haar_unitaries, haar_unitary, index_of_vector
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
    window_sites,
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
    """A numeric scenario or analysis field as ``kind``, within ``low`` when
    given: a least value, or a ``(least, most)`` pair.  Only JSON numbers
    are numbers, not booleans or strings; a float field must be finite
    (Python's ``json`` reads ``NaN`` and ``Infinity``), and an integer field
    takes only integral values within int64."""
    try:
        out = None if isinstance(value, (bool, str)) else kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None:
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if kind is float and not math.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if kind is int and isinstance(value, float) and out != value:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if kind is int and not -(1 << 63) <= out < 1 << 63:
        raise ValidationError(f"{name} must fit in 64 bits, got {value!r}")
    least, most = low if isinstance(low, tuple) else (low, None)
    if least is not None and out < least:
        raise ValidationError(f"{name} must be at least {least}, got {value!r}")
    if most is not None and out > most:
        raise ValidationError(f"{name} must be at most {most}, got {value!r}")
    return out


def _numbers(value, name: str, length: int) -> tuple[int, ...]:
    """A JSON list of ``length`` integers."""
    if not isinstance(value, list) or len(value) != length:
        raise ValidationError(f"{name} must be a list of {length} integers, got {value!r}")
    return tuple(_number(c, name) for c in value)


def _vertex(value, name: str, parts=None) -> tuple[int, int]:
    return _numbers(value, name, 2)


def _vertices(value, name: str, parts) -> list[tuple[int, int]]:
    return [_vertex(v, f"{name} vertex") for v in _list(value, name)]


def _steps(value, name: str, setup) -> int:
    """Walk steps, at most ``STEPS_MOST``, whose (2 steps + 1)^d reach is sized."""
    steps = _number(value, name, int, (1, STEPS_MOST))
    check_size((2 * steps + 1) ** setup.coin.d, f"box that {name} reach", "sites")
    return steps


def _interior_from_json(obj, name: str, parts) -> dict:
    """Open slots chosen in the strip of a ``basic_halfspace`` projection.
    JSON object keys are strings, so each key is the site's one integer
    coordinate, bare or in brackets (``"-1"``, ``"[-1]"``): the only field
    read from a string."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{name} must map sites to slot lists")
    interior = {}
    for key, slots in obj.items():
        text = key.strip("[] ")
        site = (_number(int(text) if text.removeprefix("-").isdecimal() else text, f"{name} key {key!r}"),)
        if not isinstance(slots, list) or not all(type(s) is int and 0 <= s < 2 for s in slots):
            raise ValidationError(f"{name} slots at {key!r} must be a list of slots 0 and 1")
        interior[site] = set(slots)
    return interior


def _leads_from_json(side: str, value, name: str, parts) -> tuple[LeadSpec, ...]:
    """The ``side`` leads, named by side and place, each of kind ``side``
    and with ``d`` integers in each site and ray."""
    d = parts["geometry"]["d"]
    leads = []
    for i, lead in enumerate(_list(value, name)):
        where = f"{side}[{i}] lead"
        kind = _need(_object(lead, where, ("kind", "prefix", "ray")), "kind", where)
        if kind != side:
            raise ValidationError(f"{where} kind must be {json.dumps(side)}, got {json.dumps(kind, default=repr)}")
        prefix = [_numbers(site, f"{where} site", d) for site in _list(_need(lead, "prefix", where), f"{where} prefix")]
        leads.append(LeadSpec(kind, prefix, _numbers(_need(lead, "ray", where), f"{where} ray", d)))
    return tuple(leads)


# ---------------------------------------------------------------------------
# setups and walk scenario construction


@dataclass(kw_only=True)
class _Setup:
    """A setup's generator, tolerance profile and notes; validation adds the
    seed and each analysis's type and parsed arguments under its report key.
    ``unitary``, ``flux`` and ``index_report`` are built on first use and
    kept; a build that raises keeps nothing, so the next reader retries."""

    rng: np.random.Generator
    tol: Tolerances = DEFAULT
    notes: list[str] = field(default_factory=list)
    seed: int = 0
    analyses: dict[str, tuple[str, dict]] = field(default_factory=dict)
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
    """The walk of a scenario whose parts ``_checked_setup`` parsed; each
    coin window is sized before any of its sites is listed or drawn."""
    d, coin_part, proj_part = spec["geometry"]["d"], spec["coin"], spec["projection"]
    ctype = coin_part["type"]
    network = None

    if ctype == "basic_example":
        if d != 1:
            raise ValidationError("basic_example coin requires d = 1")
        n_cut, box = coin_part["n_cut"], coin_part["box"]
        slot = index_of_vector((1,))
        sites = window_sites([range(-box, n_cut + box)])
        window = dict(zip(sites, haar_unitaries(rng, 2, box + n_cut)))
        for site in sites[box + n_cut :]:
            window[site] = _commuting_coin(rng, 2, slot)
        tail = _commuting_coin(rng, 2, slot)
        coin = SiteMap(1, window=window, halfspaces=[(HalfSpace(0, 1, n_cut), tail)], background=np.eye(2, dtype=complex))
        proj = basic_halfspace_projection(proj_part["n_cut"], proj_part["interior"])

    elif ctype == "halfline_commuting":
        box, n, e1 = coin_part["box"], 2 * d, (1,) + (0,) * (d - 1)
        sites = window_sites([range(-box, box + 1)] * d)
        slot = index_of_vector((coin_part["sign"],) + e1[1:])
        window = dict(zip(sites, haar_unitaries(rng, n, len(sites))))
        for x in range(1, box + 1):
            window[(x,) + e1[1:]] = _commuting_coin(rng, n, slot)
        ray_coin = _commuting_coin(rng, n, slot)
        coin = SiteMap(d, window=window, rays=[(Ray(e1, e1), [ray_coin])], background=np.eye(n, dtype=complex))
        proj = halfline_projection(d, proj_part["sign"])

    elif ctype == "lead_network":
        boundary = BoundarySpec(d) if proj_part["boundary"] else None
        network = validate_network(NetworkSpec(proj_part["incoming"], proj_part["outgoing"], boundary))
        box = coin_part["background_box"]
        background = reflecting_coin(d, rng, box=box) if proj_part["boundary"] else random_background(rng, d, box=box)
        coin = synthesize_lead_coin(network, background, tol)
        proj = network_projection(network)

    else:
        coin = reflecting_coin(d, rng, box=coin_part["box"])
        proj = boundary_projection_full(d)
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
    left region is the projection, and the parsed scenario, which seeds the
    ensembles.  ``unitary`` is the checked network; ``flux`` is self-checked."""

    scattering: SiteMap
    path: ccm.DualPath
    spec: dict

    @cached_property
    def unitary(self):
        return ccm.CCUnitary(self.scattering)

    @cached_property
    def flux(self):
        return ccm.cc_flux([self.scattering], self.path, self.tol)[0]


def _path_scattering(part: dict, path: ccm.DualPath, rng: np.random.Generator) -> SiteMap:
    """The scattering field of a parsed ``scattering`` part; a random-phase
    window reaches 8 cells beyond the path's explicit vertices unless the
    part sets its extent."""
    if part["template"]:
        base = ccm.CRITICAL
        r_abs = float(abs(base.r))
    else:
        r_abs = part["r_abs"]
        base = ccm.ScatteringParams(1.0, r_abs, math.sqrt(max(0.0, 1.0 - r_abs**2)))
    if part["phases"] == "unity":
        return SiteMap(2, background=base)
    extent = part["window"]
    if extent is None:
        (lo, lo2), (hi, hi2) = path.bounds()
        extent = max(map(abs, (lo, lo2, hi, hi2))) + 8
    check_size((2 * extent + 1) * (extent // 2 * 2 + 1), "phase window", "cells")
    window = ccm.random_phase_window(rng, r_abs, range(-extent, extent + 1), range(-extent, extent + 1))
    return SiteMap(2, window=window, background=base)


def build_cc_setup(spec: dict, rng: np.random.Generator, tol: Tolerances) -> CCSetup:
    """The setup of parsed parts, once the index is defined at infinity: a
    ray whose steps all carry one weight tag must not conduct perfectly along that tag."""
    ptype = spec["path"]["type"]
    path = PATHS[ptype](*(spec["path"][key] for key in PARTS[ptype]))
    setup = CCSetup(_path_scattering(spec["scattering"], path, rng), path, spec, rng=rng, tol=tol)
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
    returns the setup they build under ``tol``, with its generator, notes and
    parsed analyses."""
    if not isinstance(spec, dict):
        raise ValidationError("scenario must be a JSON object")
    version = spec.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}")
    kind = _need(spec, "kind", "scenario")
    name = _need(spec, "name", "scenario")
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValidationError(f"scenario name {name!r} must name one file: not empty, . or .., and no /, \\ or NUL")
    seed = _number(_need(spec, "seed", "scenario"), "seed", low=0)
    analyses = _need(spec, "analyses", "scenario")
    if not isinstance(analyses, list) or not analyses:
        raise ValidationError("analyses must be a nonempty list")
    build_setup = {"walk": build_walk_setup, "cc": build_cc_setup}
    if not isinstance(kind, str) or kind not in build_setup:
        raise ValidationError(f"unknown scenario kind {kind!r}")
    _object(spec, "scenario", ("schema_version", "name", "description", "kind", "seed", *SLOTS[kind], "analyses"))
    parts = {"seed": seed}
    for slot, types in SLOTS[kind].items():  # a coin's type fixes its projection's
        part = _object(_need(spec, slot, "scenario"), slot)
        types = (PAIRS[parts["coin"]["type"]],) if slot == "projection" else types
        ptype = _arguments(parts, {"type": (types, None, REQUIRED)}, part, slot)["type"] if types else slot
        _object(part, slot, ("type", *PARTS[ptype]) if types else PARTS[ptype])
        parts[slot] = {"type": ptype}
        _arguments(parts, PARTS[ptype], part, slot, parts[slot])
    setup = build_setup[kind](parts, _rng(seed), tol)
    setup.seed = seed
    for i, analysis in enumerate(analyses):
        atype = _need(analysis, "type", f"analysis #{i}")
        if not isinstance(atype, str) or atype not in ANALYSES[kind]:
            raise ValidationError(f"analysis type {atype!r} not available for kind {kind!r}")
        key = analysis.get("label", f"{atype}#{i}")
        if not isinstance(key, str):
            raise ValidationError(f"analysis #{i} label must be a string")
        if key in setup.analyses:
            raise ValidationError(f"analyses #{list(setup.analyses).index(key)} and #{i} share the report key {key!r}")
        context = f"analysis #{i} ({atype})"
        _object(analysis, context, ("type", "label", *ARGUMENTS[atype]))
        setup.analyses[key] = atype, _arguments(setup, ARGUMENTS[atype], analysis, context)
    return setup


def _arguments(source, rows: dict, given: dict, context: str, out: dict | None = None) -> dict:
    """``out``, or a new dict, with each key of ``rows`` parsed from ``given``
    by its row and named ``"{context} {key}"``.  An absent key takes its
    default, where it is a function read from ``source``: the setup for an
    analysis, the parts parsed so far for a part."""
    out = {} if out is None else out
    for key, (kind, low, default) in rows.items():
        name = f"{context} {key}"
        value = given[key] if key in given else default(source) if callable(default) else default
        if value is REQUIRED:
            raise ValidationError(f"{context}: missing required key {key!r}")
        if key not in given and value is None:
            out[key] = None
        elif kind in (int, float):
            out[key] = _number(value, name, kind, low)
        elif isinstance(kind, tuple):  # one of these values, of its JSON type: neither true nor 1.0 is the sign 1
            if type(value) not in map(type, kind) or value not in kind:
                raise ValidationError(f"{name} must be {' or '.join(map(json.dumps, kind))}, got {value!r}")
            out[key] = value
        elif kind is not list:
            out[key] = kind(value, name, source)
        elif isinstance(value, list) and value:
            out[key] = [_number(v, name, float, low) for v in value]
        else:
            raise ValidationError(f"{name} must be a nonempty list of numbers")
    return out


def validate_scenario(spec: dict) -> list[str]:
    """Structural and precondition checks; raises on the first violation."""
    return _checked_setup(spec).notes


# ---------------------------------------------------------------------------
# analyses: both models, then walks


def _expected(out: dict, indices: list[int], args: dict) -> bool:
    """Whether every index meets each expectation that ``args`` sets, each
    recorded in ``out``: ``expect`` of the index, ``expect_abs`` of its size."""
    ok = True
    for key, name, of in (("expect", "expected", int), ("expect_abs", "expected_abs", abs)):
        if args[key] is not None:
            out[name] = args[key]
            ok = ok and all(of(i) == args[key] for i in indices)
    return ok


def _index_analysis(setup, args, files):
    """Index report fields plus the verdict on the analysis' expectations."""
    report = setup.index_report
    out = index_report_dict(report)
    out["pass"] = _expected(out, [report.index], args)
    return out


def _dense_window(ranges, n_internal: int) -> list:
    """The sites of a dense window compression over unit-step ``ranges``,
    refused above ``DENSE_BASIS`` basis vectors before any is listed."""
    basis = math.prod(r.stop - r.start for r in ranges) * n_internal
    if basis > DENSE_BASIS:
        raise ValidationError(f"a dense window of {basis} basis vectors exceeds DENSE_BASIS = {DENSE_BASIS}")
    return window_sites(ranges, "dense window")


def _spectrum_window_analysis(setup, args, files):
    box = args["box"]
    unitary = setup.unitary
    sites = _dense_window([range(-box, box + 1)] * unitary.d, unitary.n_internal)
    m = matrix_on_window(unitary, sites)
    evals = np.linalg.eigvals(m)
    rows = ["phase,modulus"]
    rows += [f"{np.angle(z):.12f},{abs(z):.12f}" for z in sorted(evals, key=np.angle)]
    files["eigenphases.csv"] = "\n".join(rows) + "\n"
    note = "finite-window compression; boundary-affected, no assertion"
    return {"box": box, "count": len(evals), "note": note, "pass": True}


def _walk_flux_zero_analysis(setup, args, files):
    worst = max_block_norm(setup.flux)
    return {"max_block_norm": worst, "pass": worst <= VANISHING_FLUX_BOUND}


def _walk_wandering_analysis(setup, args, files):
    steps = args["steps"]
    if setup.network is None or not setup.network.leads():
        raise ValidationError("wandering needs a lead network with at least one lead")
    results = []
    rows = ["lead,step,overlap"]
    for idx, lead in enumerate(setup.network.leads()):
        rep = verify_wandering(setup.unitary, lead, steps, tol=setup.tol)
        results.append(
            {
                "lead": idx,
                "kind": lead.kind,
                "ok": rep.ok,
                "max_overlap": rep.max_overlap,
                "transport_defect": rep.transport_defect,
            }
        )
        rows += [f"{idx},{k},{ov:.3e}" for k, ov in enumerate(rep.overlaps, start=1)]
    files["wandering_overlaps.csv"] = "\n".join(rows) + "\n"
    return {"leads": results, "steps": steps, "pass": all(r["ok"] for r in results)}


def _walk_confinement_analysis(setup, args, files):
    leak = verify_confinement(setup.unitary, setup.rng, steps=args["steps"], box=args["box"])
    return {"steps": args["steps"], "max_leak": leak, "pass": leak <= setup.tol.wandering}


def _walk_shift_analysis(setup, args, files):
    index = setup.index_report.index
    perturbed = build_perturbed(setup.flux, extract_kernels(setup.flux))
    shift_report = verify_shift_structure(perturbed, k_max=args["steps"])
    return {**shift_report.as_dict(), "index": index, "pass": shift_report.ok}


def _walk_stability_analysis(setup, args, files):
    steps = args["steps"]
    target = perturb_coin_window(setup.coin, setup.rng, args["strength"])

    def family(t):
        walk = build_walk(interpolate_matrix_fields(setup.coin, target, t), setup.tol)
        return build_walk_flux(walk, setup.projection, setup.tol, selfcheck=False)

    probes = index_stability_probe(family, steps)
    indices = sorted({p.index for p in probes if p.certified})
    flagged = [p.t for p in probes if not p.certified]
    return {"steps": steps, "indices": indices, "flagged": flagged, "pass": len(indices) == 1 and not flagged}


def _walk_oracle_analysis(setup, args, files):
    """Dense index of the compression to a padded box around the kept window
    blocks; not applicable without such blocks or when the box is wide."""
    pad = args["pad"]
    flux = setup.flux
    labels = flux.box.index.table[flux.kept]
    if not len(labels) or np.ptp(labels, axis=0).max() + 1 > 7:
        return {"applicable": False, "pass": True}
    lo, hi = labels.min(axis=0).tolist(), labels.max(axis=0).tolist()
    walk = flux.geometry.unitary
    box = _dense_window([range(l - pad, h + pad + 1) for l, h in zip(lo, hi)], walk.n_internal)
    dense = dense_window_index(walk, setup.projection.apply, box, walk.n_internal, setup.tol)
    blockwise = setup.index_report.index
    return {"applicable": True, "blockwise": blockwise, "dense": dense, "pass": blockwise == dense}


def _walk_network_ensemble_analysis(setup, args, files):
    rng = setup.rng
    draws, max_leads, box = args["draws"], args["max_leads"], args["box"]
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


def _cc_ensemble_analysis(setup, args, files):
    seeds = _child_seeds(setup.seed + 1, args["draws"])
    indices = []
    plan = ccm.FluxPlan()
    for s in seeds:
        scattering = _path_scattering(setup.spec["scattering"], setup.path, _rng(s))
        report, _ = ccm.cc_index(scattering, setup.path, setup.tol, plan)
        indices.append(report.index)
    out = {"draws": args["draws"], "distinct": sorted(set(indices))}
    out["pass"] = _expected(out, indices, args) and (len(set(indices)) == 1 or not args["constant_sign"])
    return out


def _cc_norm_law_analysis(setup, args, files):
    r_abs = args["r_abs"]
    # every window and shell block above the pruning threshold
    box = setup.flux.box
    rows = box.norms > setup.tol.block_prune
    evals = box.eigenvalues[rows]
    worst_norm = float(np.abs(box.norms[rows] - r_abs).max(initial=0.0))
    worst_eig = float(np.minimum(np.abs(evals - r_abs), np.abs(evals + r_abs)).max(initial=0.0))
    ok = worst_norm <= NORM_LAW_BOUND and worst_eig <= NORM_LAW_BOUND
    return {"r_abs": r_abs, "norm_defect": worst_norm, "eigenvalue_defect": worst_eig, "pass": ok}


def _cc_surgery_analysis(setup, args, files):
    base_report = setup.index_report
    extended = setup.path.extended(12, 12)
    split = ccm.RegionSplit(extended, (-40, -40), (40, 40))
    t0, t1 = extended.m_last // 2 - 8, extended.m_last // 2 + 8
    results = []
    ok = True
    seen = {}  # the index and difference rank of each distinct rerouted path
    for k in range(args["reroutes"]):
        bumped = ccm.random_bump(extended, setup.rng, t0, t1)
        if bumped is None:
            continue
        new_path, expected_diff = bumped
        if new_path.middle not in seen:
            index = ccm.cc_index(setup.scattering, new_path, setup.tol)[0].index
            seen[new_path.middle] = index, ccm.region_difference_rank(split, new_path)
        index, diff = seen[new_path.middle]
        ok = ok and index == base_report.index and diff == expected_diff
        results.append({"reroute": k, "index": index, "difference_rank": diff})
    return {"base_index": base_report.index, "reroutes": len(results), "results": results, "pass": ok and bool(results)}


def _cc_anomalous_analysis(setup, args, files):
    epsilons, draws = args["epsilons"], args["draws"]
    seeds = _child_seeds(setup.seed + 2, draws)
    traces = []
    ok = True
    base_index = None
    plan = ccm.FluxPlan()
    for s in seeds:
        scattering = _path_scattering(setup.spec["scattering"], setup.path, _rng(s))
        result = ccm.anomalous_transport(scattering, setup.path, epsilons, setup.tol, plan)
        if base_index is None:
            base_index = result["index"]
        ok = ok and result["index"] == base_index
        for eps, tr in result["traces"]:
            ok = ok and abs(tr - result["index"]) <= setup.tol.trace_match
            traces.append([eps, tr])
    traces = traces[: 4 * len(epsilons)]
    return {"index": base_index, "epsilons": epsilons, "draws": draws, "traces": traces, "pass": ok}


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

REQUIRED = object()  # the default of a key that must be given
# each coin type with the projection type it pairs with, each path type with
# its builder, which takes the path's keys in order, and each kind's parts in
# parse order with their types (None: an untyped part, parsed by its own rows)
PAIRS = {
    "basic_example": "basic_halfspace", "halfline_commuting": "halfline",
    "lead_network": "network", "reflecting": "boundary_full",
}
PATHS = {
    "straight_r": ccm.straight_r_path, "crossover": ccm.crossover_path,
    "wiggled_r": ccm.wiggled_r_path, "explicit": ccm.DualPath,
}
SLOTS = {
    "walk": {"geometry": None, "coin": tuple(PAIRS), "projection": tuple(PAIRS.values())},
    "cc": {"path": tuple(PATHS), "scattering": None},
}
# the keys of each part type (and of the untyped geometry and scattering) but
# "type": each with its kind (int, float, a tuple of the values it may take,
# or a parser of structured values), its least value or (least, most) pair,
# and its default: REQUIRED, None (optional), or a function of earlier parts
PARTS = {
    "geometry": {"d": (int, 1, REQUIRED)},
    "basic_example": {"n_cut": (int, 0, 2), "box": (int, 0, lambda parts: parts["coin"]["n_cut"] + 4)},
    "halfline_commuting": {"sign": ((1, -1), None, 1), "box": (int, 0, 3)},
    "lead_network": {"background_box": (int, 0, 4)}, "reflecting": {"box": (int, 0, 3)}, "boundary_full": {},
    "basic_halfspace": {
        "n_cut": (int, 0, lambda parts: parts["coin"]["n_cut"]), "interior": (_interior_from_json, None, None),
    },
    "halfline": {"sign": ((1, -1), None, lambda parts: parts["coin"]["sign"])},
    "network": {
        "incoming": (functools.partial(_leads_from_json, "incoming"), None, []),
        "outgoing": (functools.partial(_leads_from_json, "outgoing"), None, []),
        "boundary": ((True, False), None, False),
    },
    "straight_r": {"height": (int, None, 0)}, "crossover": {"west_first": ((True, False), None, True)}, "wiggled_r": {},
    "explicit": {
        "middle": (_vertices, None, REQUIRED), "pre": (_vertex, None, REQUIRED), "post": (_vertex, None, REQUIRED),
    },
    "scattering": {
        "template": (("critical",), None, None),
        "r_abs": (float, (0, 1), lambda parts: None if parts["scattering"]["template"] else REQUIRED),
        "phases": (("unity", "random"), None, "unity"), "window": (int, 0, None),
    },
}
# the keys each analysis type reads besides "type" and "label", in the row
# format of PARTS (the kind list: a nonempty list of floats within its pair);
# norm_law's r_abs defaults to the setup's |r| at the origin
ARGUMENTS = {
    "index": {"expect": (int, None, None), "expect_abs": (int, 0, None)},
    "flux_zero": {},
    "wandering": {"steps": (_steps, None, 50)},
    "confinement": {"steps": (_steps, None, 30), "box": (int, 0, 3)},
    "shift_decomposition": {"steps": (_steps, None, 30)},
    "stability_probe": {"steps": (int, (1, STEPS_MOST), 20), "strength": (float, None, 0.1)},
    "oracle_equivalence": {"pad": (int, 0, 2)},
    "network_ensemble": {"draws": (int, (1, DRAWS_MOST), 100), "max_leads": (int, (0, LEADS_MOST), 3),
                         "box": (int, (0, NETWORK_BOX_MOST), 10)},
    "spectrum_window": {"box": (int, 0, 5)},
    "ensemble_index": {
        "draws": (int, (1, DRAWS_MOST), 100), "expect": (int, None, None), "expect_abs": (int, 0, None),
        "constant_sign": ((True, False), None, False),
    },
    "norm_law": {"r_abs": (float, 0, lambda setup: abs(setup.scattering.value((0, 0))[1]))},
    "surgery": {"reroutes": (int, (1, DRAWS_MOST), 20)},
    "anomalous_transport": {"epsilons": (list, (EPSILON_LEAST, 1), [0.25, 0.125, 0.0625]), "draws": (int, (1, DRAWS_MOST), 1)},
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


def run_scenario(spec: dict, seed_override: int | None = None, profile: str = "default") -> ScenarioResult:
    if profile not in PROFILES:
        raise ValidationError(f"unknown tolerance profile {profile!r}")
    if seed_override is not None and isinstance(spec, dict):
        spec = {**spec, "seed": seed_override}
    setup = _checked_setup(spec, PROFILES[profile])
    kind = spec["kind"]
    files: dict[str, str] = {}
    analyses_out = {}
    all_ok = True
    for i, (key, (atype, args)) in enumerate(setup.analyses.items()):
        try:
            result = ANALYSES[kind][atype](setup, args, files)
        except FluxwalkError as exc:
            result = {"pass": False, "error": str(exc)}
        except Exception as exc:  # an internal fault: logged, recorded, and the other analyses still run
            import logging  # here, so that a run without one never loads it
            logging.getLogger(__name__).exception("analysis #%d (%s) raised an internal error", i, atype)
            result = {"pass": False, "error": f"{type(exc).__name__}: {exc}", "internal_error": type(exc).__name__}
        analyses_out[key] = result
        all_ok = all_ok and bool(result.get("pass", False))
    report = {
        "schema_version": SCHEMA_VERSION,
        "name": spec["name"],
        "kind": kind,
        "seed": setup.seed,
        "rng": {"algorithm": RNG_ALGORITHM, "seed": setup.seed},
        "tolerance_profile": profile,
        "analyses": analyses_out,
        "pass": all_ok,
    }
    return ScenarioResult(report=report, files=files)
