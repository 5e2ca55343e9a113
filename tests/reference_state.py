"""Per-site reference models for the packed ``LatticeState``, the batched
actions that consume it and the array cell protocol of ``flux.CellGeometry``.

``DictState`` is the dict-of-site-vectors state that ``fluxwalk.lattice``
used before the packed layout, and the functions below are the per-site
loops that the walk, projection, network and cell actions ran on it.  The
tests compare the packed results against them bit for bit, row order
included; ``state`` packs a dict of site vectors, the form that tests write
states in, and ``columns`` splits a stacked state into single-column
states.  ``flux_apply`` applies a flux through its box stack alone.
The cell references describe one cell, or one site of a region,
at a time, from the model's fields and the scalar ``in_cell``/``out_cell``.
``random_phase_window`` is the per-cell draw loop that ``fluxwalk.cc``
ran before it drew every phase of a window in one call, and
``random_state`` and ``probe_sites`` the per-site and per-coordinate draws
of the selfcheck probes, and ``probe_states`` the function that stacked
three ``lattice.random_state`` calls into them.

The dual-path references classify one step at a time: ``in_cell`` and
``out_cell`` own one point, ``crossed_points`` and ``edge_between`` give
the primal edge of one dual step and its orientation, and ``classify_step``
its ``CrossedEdge`` with the r/t tag.  ``switch_window``, ``is_pure`` and
``region_labels`` are the loops that ``DualPath`` and ``RegionSplit`` ran on
them before ``cc.classify_steps`` classified every step in one array pass.

``kitaev_sum`` is the per-row loop that ``flux.kitaev_sum`` ran before it
formed the terms in stacked passes, ``classify_unit`` the per-eigenvalue
loop that ``flux.classify_unit`` ran on one block before it classified a
field's whole ``eigh`` stack in one array pass, and ``two_call_box`` the assembly that
``flux.assemble_field`` ran before it called ``block_fn`` once: one call for
the window and shell labels, a second for the tripwire labels, whose shell
partners it found through an index of its own over the shell rows.  It
enumerates the labels with ``itertools.product`` and clamps each tripwire
label one coordinate at a time (``tail_partner``), so it checks the window's
own enumeration and clamp rather than reusing them.

``identity_coin`` and ``conditional_shift`` build the bare conditional
shift, a walk that only tests step; ``items`` reads a single-vector state
site by site, ``kept_labels`` gives a field's kept labels as tuples, and
``lead_flux_index`` and ``bulk_boundary_flux`` check a lead network's index
and a reflecting coin's vanishing flux, all for tests alone.  ``per_epsilon_capped`` is the capped
field of one epsilon as ``cc.anomalous_transport`` built it before every
capped field of an analysis took one cap reach: the epsilon's own reach.
``dict_merge`` is the window that ``SiteMap.overridden`` merged as a dict
before a map kept its window in one form, a site array and its values.

``check_lead`` runs the checks of the ``LeadSpec`` constructor as it ran
them before a lead built its window pairs and junctions in one
chronological pass, and ``junctions`` recomputes a lead's junctions from
``LeadSpec.site`` and ``LeadSpec.tangent``.  ``synthesize_lead_coin`` is
the synthesis that ``fluxwalk.walks`` ran before it kept each completed
permutation coin and counted a ray's run through the background box:
``complete_unitary`` builds a fresh coin per constrained site, and the run
is walked site by site.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from fluxwalk.cc import FULL_REFLECTION, FULL_TRANSMISSION, CCUnitary, RegionSplit, ScatteringParams, _deep_cell_ray
from fluxwalk.config import DEFAULT
from fluxwalk.errors import DimensionMismatchError, EigenvalueAmbiguityError, ValidationError
from fluxwalk import lattice
from fluxwalk.flux import TRIPWIRE_BOUND, UNIT_MODULUS_BOUND, VANISHING_FLUX_BOUND, max_block_norm
from fluxwalk.fields import Ray, SiteMap
from fluxwalk.lattice import LatticeState, SiteIndex, add, all_direction_vectors, index_of_vector, sub
from fluxwalk.operators import CoinedWalk
from fluxwalk.walks import (
    boundary_projection_full,
    build_walk,
    build_walk_flux,
    check_lead_count,
    network_projection,
    verify_lead_condition,
    walk_index,
)


class DictState:
    """Finitely supported vector as an insertion-ordered dict of site vectors.

    Exactly-zero site vectors are dropped on construction.
    """

    __slots__ = ("n_internal", "_data")

    def __init__(self, n_internal: int, entries=None, _take=False):
        self.n_internal = int(n_internal)
        data: dict = {}
        if entries:
            for site, vec in entries.items():
                arr = vec if _take else np.asarray(vec, dtype=complex).copy()
                if arr.shape != (self.n_internal,):
                    raise DimensionMismatchError(
                        f"site vector at {site!r} has shape {arr.shape}, "
                        f"expected ({self.n_internal},)"
                    )
                if arr.any():
                    data[tuple(site)] = arr
        self._data = data

    def items(self):
        return iter(self._data.items())

    def support_size(self) -> int:
        return len(self._data)

    def norm(self) -> float:
        return float(np.sqrt(sum(np.vdot(v, v).real for v in self._data.values())))

    def inner(self, other: "DictState") -> complex:
        if other.n_internal != self.n_internal:
            raise DimensionMismatchError("internal dimensions differ")
        small, big = self._data, other._data
        if len(big) < len(small):
            return np.conj(other.inner(self))
        acc = 0.0 + 0.0j
        for site, vec in small.items():
            w = big.get(site)
            if w is not None:
                acc += np.vdot(vec, w)
        return complex(acc)

    def scaled(self, factor: complex) -> "DictState":
        if factor == 0:
            return DictState(self.n_internal)
        return DictState(
            self.n_internal, {s: factor * v for s, v in self._data.items()}, _take=True
        )

    def __add__(self, other: "DictState") -> "DictState":
        if other.n_internal != self.n_internal:
            raise DimensionMismatchError("internal dimensions differ")
        data = {s: v.copy() for s, v in self._data.items()}
        for site, vec in other._data.items():
            if site in data:
                data[site] = data[site] + vec
            else:
                data[site] = vec.copy()
        return DictState(self.n_internal, data, _take=True)

    def __sub__(self, other: "DictState") -> "DictState":
        return self + other.scaled(-1.0)


def items(psi: LatticeState):
    """Each site with its vector, of a single-vector state, in row order."""
    if psi.n_columns != 1:
        raise DimensionMismatchError(f"a single-vector reader on {psi.n_columns} columns")
    return zip(psi.site_list(), psi.value_array[:, :, 0])


def to_dict(psi: LatticeState) -> DictState:
    return DictState(psi.n_internal, {site: vec.copy() for site, vec in items(psi)}, _take=True)


def state(n_internal: int, entries: dict) -> LatticeState:
    """The single-vector state of a dict of site vectors, rows in the dict's
    order; the empty dict gives ``LatticeState.zero``."""
    if not entries:
        return LatticeState.zero(n_internal)
    values = np.array([np.asarray(v, dtype=complex) for v in entries.values()])
    return LatticeState(n_internal, np.array(list(entries), dtype=np.int64), values[:, :, None])


def columns(psi: LatticeState) -> list[LatticeState]:
    """Every column of ``psi`` as a state of its own, with the rows where it
    is nonzero, in ``psi``'s row order."""
    return [LatticeState(psi.n_internal, psi.site_array, psi.value_array[:, :, [k]]) for k in range(psi.n_columns)]


def flux_apply(flux, psi: LatticeState) -> LatticeState:
    """The flux applied to a finitely supported state, exactly, through its
    box stack: the selfcheck's blockwise route for one flux."""
    return flux.geometry.apply_blocks(psi, flux._box_rows, [flux.box.flux])


def same_state(packed: LatticeState, ref: DictState) -> bool:
    """Same sites in the same row order, bitwise equal vectors."""
    got = [(site, vec.tobytes()) for site, vec in items(packed)]
    want = [(site, vec.tobytes()) for site, vec in ref.items()]
    return packed.n_internal == ref.n_internal and got == want


# ---------------------------------------------------------------------------
# one cell, one site


def in_cell(site):
    """Cell label and incoming slot owning a lattice point."""
    m, n = site
    m_even, n_even = m % 2 == 0, n % 2 == 0
    if m_even and n_even:
        return (m, n), 0
    if not m_even and not n_even:
        return (m - 1, n + 1), 1
    if not m_even and n_even:
        return (m, n), 0
    return (m - 1, n - 1), 1


def out_cell(site):
    """Cell label and outgoing slot owning a lattice point."""
    m, n = site
    m_even, n_even = m % 2 == 0, n % 2 == 0
    if m_even and not n_even:
        return (m, n + 1), 0
    if not m_even and n_even:
        return (m - 1, n), 1
    if m_even and n_even:
        return (m - 1, n), 0
    return (m, n - 1), 1


def scattering_matrix(value) -> np.ndarray:
    """S = q [[r, -t], [conj(t), conj(r)]] of one cell, built through
    ``ScatteringParams(*value)`` from a template or a window row."""
    p = ScatteringParams(*value)
    return p.q * np.array([[p.r, -p.t], [np.conj(p.t), np.conj(p.r)]], dtype=complex)


def cell_in_basis(z):
    """The incoming pair of network cell z."""
    a, b = z
    if a % 2 == 0:
        return (a, b), (a + 1, b - 1)
    return (a, b), (a + 1, b + 1)


def cell_out_basis(z):
    """The outgoing pair of network cell z."""
    a, b = z
    if a % 2 == 0:
        return (a, b - 1), (a + 1, b)
    return (a + 1, b), (a, b + 1)


def reference_cell(unitary, label):
    """``(matrix, ins, outs)`` of one cell: U (outgoing x incoming) between
    the bases ``ins`` and ``outs``, listed as ``(site, slots)``.  A walk cell
    is a site whose coin sends every slot k to x + dir_k; a network cell
    sends its incoming pair to its outgoing pair through S(z)^T."""
    if isinstance(unitary, CCUnitary):
        (a, b), (c, d) = cell_in_basis(label), cell_out_basis(label)
        matrix = scattering_matrix(unitary.scattering.value(label)).T
        return matrix, [(a, (0,)), (b, (0,))], [(c, (0,)), (d, (0,))]
    dirs = all_direction_vectors(unitary.d)
    outs = [(tuple(map(operator.add, label, step)), (k,)) for k, step in enumerate(dirs)]
    return unitary.coin.value(label), [(label, tuple(range(unitary.n_internal)))], outs


def cell_of(unitary, site):
    """Label of the cell whose incoming basis holds ``site``."""
    return in_cell(site)[0] if isinstance(unitary, CCUnitary) else site


def region_side(split, point) -> int:
    """1 inside the region of a ``RegionSplit``, 0 outside, read from its
    label array at the point clamped into the box."""
    x = min(max(point[0], split.lo[0]), split.hi[0]) - split.lo[0]
    y = min(max(point[1], split.lo[1]), split.hi[1]) - split.lo[1]
    return int(split._labels[x, y])


def open_slots(proj, site) -> frozenset:
    """The slots a projection opens at one site."""
    if isinstance(proj, RegionSplit):
        return frozenset((0,)) if region_side(proj, site) else frozenset()
    return proj.open_slots(site)


def diagonal(proj, site) -> np.ndarray:
    """The 0/1 diagonal of an adapted projection at one site."""
    diag = np.zeros(proj.n)
    for k in proj.open_slots(site):
        diag[k] = 1.0
    return diag


# ---------------------------------------------------------------------------
# per-site actions


def walk_apply(walk, psi: DictState) -> DictState:
    dirs = all_direction_vectors(walk.d)
    out: dict = {}
    for site, vec in psi.items():
        w = walk.coin.value(site) @ vec
        for k, amp in enumerate(w):
            if amp == 0:
                continue
            target = tuple(map(operator.add, site, dirs[k]))
            buf = out.get(target)
            if buf is None:
                buf = np.zeros(walk.n_internal, dtype=complex)
                out[target] = buf
            buf[k] += amp
    return DictState(walk.n_internal, out, _take=True)


def walk_apply_adjoint(walk, psi: DictState) -> DictState:
    dirs = all_direction_vectors(walk.d)
    gathered: dict = {}
    for site, vec in psi.items():
        for k, amp in enumerate(vec):
            if amp == 0:
                continue
            source = tuple(map(operator.sub, site, dirs[k]))
            buf = gathered.get(source)
            if buf is None:
                buf = np.zeros(walk.n_internal, dtype=complex)
                gathered[source] = buf
            buf[k] += amp
    out = {s: walk.coin.value(s).conj().T @ v for s, v in gathered.items()}
    return DictState(walk.n_internal, out, _take=True)


def projection_apply(proj, psi: DictState) -> DictState:
    data = {site: diagonal(proj, site) * vec for site, vec in psi.items()}
    return DictState(psi.n_internal, data, _take=True)


def region_apply(split, psi: DictState) -> DictState:
    return DictState(psi.n_internal, {s: v for s, v in psi.items() if region_side(split, s)})


def _cc_scatter(unitary, psi: DictState, locate, targets, weights) -> DictState:
    out: dict = {}
    for site, vec in psi.items():
        z, k = locate(site)
        matrix = scattering_matrix(unitary.scattering.value(z))
        for target, weight in zip(targets(z), weights(matrix, k)):
            amp = weight * vec[0]
            if amp != 0:
                out[target] = out.get(target, 0) + amp
    return DictState(1, {p: np.array([a]) for p, a in out.items()}, _take=True)


def cc_apply(unitary, psi: DictState) -> DictState:
    return _cc_scatter(unitary, psi, in_cell, cell_out_basis, lambda s, j: s[j])


def cc_apply_adjoint(unitary, psi: DictState) -> DictState:
    return _cc_scatter(unitary, psi, out_cell, cell_in_basis, lambda s, b: s[:, b].conj())


def cell_state(geometry, label, coords) -> DictState:
    """The state with the given coordinates in the cell's incoming basis."""
    n = geometry.state_dim
    data, i = {}, 0
    for site, slots in reference_cell(geometry.unitary, label)[1]:
        data[site] = np.zeros(n, dtype=complex)
        data[site][list(slots)] = coords[i : i + len(slots)]
        i += len(slots)
    return DictState(n, data, _take=True)


def apply_blocks(geometry, psi: DictState, matrix_at) -> DictState:
    """Per-cell gather, product and ``out = out + ...`` accumulation."""
    n = geometry.state_dim
    out = DictState(n)
    for label in sorted({cell_of(geometry.unitary, site) for site, _ in psi.items()}):
        m = matrix_at(label)
        if m is None:
            continue
        coords = np.concatenate(
            [
                psi._data.get(site, np.zeros(n, dtype=complex))[list(slots)]
                for site, slots in reference_cell(geometry.unitary, label)[1]
            ]
        )
        out = out + cell_state(geometry, label, m @ coords)
    return out


def trace_norm_hermitian(m: np.ndarray) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    if m.size == 0:
        return 0.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def compress(apply, sites, n: int) -> np.ndarray:
    """Dense matrix of ``apply`` on the span of ``sites``, one basis vector
    at a time: the loop that ``operators.compress`` ran before it stacked
    the basis vectors as the columns of one state."""
    index = {site: i for i, site in enumerate(sites)}
    m = np.zeros((len(sites) * n, len(sites) * n), dtype=complex)
    for j_site, site in enumerate(sites):
        for slot in range(n):
            image = apply(LatticeState.basis(site, slot, n))
            for target, vec in items(image):
                i_site = index.get(target)
                if i_site is not None:
                    m[i_site * n : (i_site + 1) * n, j_site * n + slot] = vec
    return m


def random_phase_window(rng, r_abs: float, a_range: range, b_range: range) -> dict:
    """Three scalar phase draws and three scalar ``np.exp`` calls per cell
    of even b, in a-major order."""
    t_abs = math.sqrt(max(0.0, 1.0 - r_abs**2))
    window = {}
    for a in a_range:
        for b in b_range:
            if b % 2 != 0:
                continue
            q = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            r = r_abs * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            t = t_abs * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            window[(a, b)] = ScatteringParams(q, r, t)
    return window


def random_state(rng, sites, n_internal: int) -> LatticeState:
    """Two ``standard_normal`` calls per site, into a dict of site vectors."""
    data = {}
    for site in sites:
        data[tuple(site)] = rng.standard_normal(n_internal) + 1j * rng.standard_normal(n_internal)
    return state(n_internal, data).normalized()


def probe_sites(geometry, rng) -> set:
    """One ``rng.integers`` call per coordinate of each probe site."""
    return {
        tuple(int(rng.integers(l, h + 1)) for l, h in zip(geometry.window.lo, geometry.window.hi))
        for _ in range(geometry.probes)
    }


def probe_states(geometry, rng) -> LatticeState:
    """The three probe states as ``CellGeometry.probe_states`` built them
    before it drew them in one pass: per state one ``rng.integers`` call
    for its sites, into a set, and ``lattice.random_state`` on them, then
    one ``LatticeState.stack``."""
    states, (lo, hi) = [], (geometry.window.lo, geometry.window.hi)
    for _ in range(3):
        draw = rng.integers(lo, np.add(hi, 1), size=(geometry.probes, len(lo)))
        states.append(lattice.random_state(rng, set(map(tuple, draw.tolist())), geometry.state_dim))
    return LatticeState.stack(states)


# ---------------------------------------------------------------------------
# dual paths, one step at a time


@dataclass(frozen=True)
class CrossedEdge:
    """One primal edge bisected by a dual step, with its cell bookkeeping."""

    t: int
    source: tuple
    target: tuple
    cell: tuple
    slot_in: int
    slot_out: int
    tag: str


def crossed_points(v, w):
    """Endpoints of the primal edge bisected by the dual step v -> w,
    returned as (left of the step, right of the step).  Dual label u sits at
    real position u + (1/2, -1/2); all arithmetic stays integral."""
    d = (w[0] - v[0], w[1] - v[1])
    if abs(d[0]) + abs(d[1]) != 1:
        raise ValidationError(f"dual step {v} -> {w} is not a unit step")
    mid2 = (v[0] + w[0] + 1, v[1] + w[1] - 1)
    perp = (-d[1], d[0])
    left = ((mid2[0] + perp[0]) // 2, (mid2[1] + perp[1]) // 2)
    right = ((mid2[0] - perp[0]) // 2, (mid2[1] - perp[1]) // 2)
    return left, right


def edge_between(p, q):
    """Orient the primal edge {p, q}: returns (source, target, cell, slot_in,
    slot_out).  Exactly one orientation is carried by the network."""
    z_p, j_p = in_cell(p)
    z_q, b_q = out_cell(q)
    if z_p == z_q:
        return p, q, z_p, j_p, b_q
    z_q2, j_q = in_cell(q)
    z_p2, b_p = out_cell(p)
    if z_q2 == z_p2:
        return q, p, z_q2, j_q, b_p
    raise ValidationError(f"points {p}, {q} do not share a scattering cell")


def classify_step(t: int, v, w) -> CrossedEdge:
    """Crossed edge of one dual step with its r/t weight tag.

    The tag comes from which matrix entry carries the amplitude (diagonal
    entries are r, off-diagonal are t); the geometric parity rule is
    re-checked as an independent consistency test.
    """
    left, right = crossed_points(v, w)
    source, target, cell, slot_in, slot_out = edge_between(left, right)
    tag = "r" if slot_in == slot_out else "t"
    # parity rule: vertical edges are r iff their lower row is odd,
    # horizontal edges are r iff their left column is odd
    if source[0] == target[0]:
        expected = "r" if min(source[1], target[1]) % 2 != 0 else "t"
    else:
        expected = "r" if min(source[0], target[0]) % 2 != 0 else "t"
    if tag != expected:
        raise ValidationError(
            f"edge {source}->{target}: amplitude tag {tag} contradicts parity rule"
        )
    return CrossedEdge(t, source, target, cell, slot_in, slot_out, tag)


def step(path, t: int) -> CrossedEdge:
    """Crossed edge of the dual step t -> t+1 of a path."""
    return classify_step(t, path.vertex(t), path.vertex(t + 1))


def is_pure(path, t0: int, t1: int, tag: str) -> bool:
    return all(step(path, t).tag == tag for t in range(t0, t1))


def switch_window(path, probe: int = 40):
    """Smallest [t0, t1] outside of which the step tags are constant."""
    pre_tag = step(path, -probe).tag
    post_tag = step(path, probe).tag
    t0 = 0
    for t in range(-probe, path.m_last + probe):
        if step(path, t).tag != pre_tag:
            t0 = t
            break
    t1 = t0
    for t in range(probe + path.m_last, t0 - 1, -1):
        if step(path, t).tag != post_tag:
            t1 = t + 1
            break
    return t0, t1


def region_labels(path, lo, hi) -> np.ndarray:
    """The label array of ``RegionSplit(path, lo, hi)``: seeds and cut edges
    from one ``crossed_points`` call per step near the box, then the same
    parity sums and checks."""
    (mx0, my0), (mx1, my1) = path.bounds()
    lo = (min(lo[0], mx0 - 2), min(lo[1], my0 - 2))
    hi = (max(hi[0], mx1 + 2), max(hi[1], my1 + 2))
    shape = (hi[0] - lo[0] + 1, hi[1] - lo[1] + 1)

    def in_box(p, margin=0):
        return all(l - margin <= c <= h + margin for c, l, h in zip(p, lo, hi))

    span = (
        hi[0] - lo[0] + hi[1] - lo[1] + len(path.middle)
        + abs(mx0) + abs(mx1) + abs(my0) + abs(my1) + 8
    )
    cut = [np.zeros((shape[0] - 1, shape[1]), dtype=np.int64), np.zeros((shape[0], shape[1] - 1), dtype=np.int64)]
    seeds = {}
    for t in range(-span, path.m_last + span):
        v, w = path.vertex(t), path.vertex(t + 1)
        if not (in_box(v, 2) or in_box(w, 2)):
            continue
        left, right = crossed_points(v, w)
        for point, side in ((left, 1), (right, 0)):
            if in_box(point):
                if seeds.setdefault(point, side) != side:
                    raise ValidationError(f"conflicting side labels at {point}")
        if in_box(left) and in_box(right):
            axis = 0 if left[0] != right[0] else 1
            low = min(left, right)
            cut[axis][low[0] - lo[0], low[1] - lo[1]] = 1
    if not seeds:
        raise ValidationError("path does not meet the labeling box")
    (sx, sy), side = next(iter(seeds.items()))
    i0, j0 = sx - lo[0], sy - lo[1]
    column = np.concatenate([[0], np.cumsum(cut[1][i0])])
    rows = np.concatenate([np.zeros((1, shape[1]), dtype=np.int64), np.cumsum(cut[0], axis=0)])
    labels = (side + column - column[j0] + rows - rows[i0]) % 2
    for (x, y), side in seeds.items():
        if labels[x - lo[0], y - lo[1]] != side:
            raise ValidationError(f"inconsistent region labels at {(x, y)}")
    for i in range(shape[0]):
        for j in range(shape[1] - 1):
            if (labels[i, j + 1] != labels[i, j]) != cut[1][i, j]:
                raise ValidationError(f"inconsistent region labels at {(lo[0] + i, lo[1] + j + 1)}")
    return labels


def region_points(split) -> set:
    """The points of a split's box that lie in its region."""
    return {(split.lo[0] + i, split.lo[1] + j) for i, j in np.argwhere(split._labels).tolist()}


def region_difference(path_a, path_b, box: int = 30) -> int:
    """``cc.region_difference_rank`` as the symmetric difference of two sets
    of region points, each from ``region_labels`` inside its own box."""
    regions = []
    for path in (path_a, path_b):
        (mx0, my0), _ = path.bounds()
        lo = (min(-box, mx0 - 2), min(-box, my0 - 2))
        labels = region_labels(path, (-box, -box), (box, box))
        regions.append({(lo[0] + i, lo[1] + j) for i, j in np.argwhere(labels).tolist()})
    diff = regions[0] ^ regions[1]
    for p in diff:
        if abs(p[0]) >= box - 2 or abs(p[1]) >= box - 2:
            raise ValidationError("region difference reaches the box boundary")
    return len(diff)


def kitaev_sum(flux) -> complex:
    """The Kitaev sum of a zero-tail flux, one window row at a time."""
    box = flux.box
    rows = np.flatnonzero(box.window & (box.p_in.any(axis=1) | box.p_out.any(axis=1)))
    total = 0.0
    for i in rows.tolist():
        a2 = np.abs(box.cells[i]) ** 2
        total += float(box.p_out[i] @ a2.sum(axis=1) - a2.sum(axis=0) @ box.p_in[i])
    return complex(total)


def classify_unit(evals, tol, label):
    """``(plus_idx, minus_idx, max_inside)`` of one block's eigenvalues: the
    indices within ``tol.eigenvalue_unit`` of +1 and of -1, and the largest
    modulus among the rest.  Each eigenvalue is checked in turn: a modulus
    above ``UNIT_MODULUS_BOUND`` raises ``ValidationError``, one inside the
    guard band but outside the unit window ``EigenvalueAmbiguityError``;
    ``label`` names the block."""
    plus_idx = []
    minus_idx = []
    max_inside = 0.0
    for i, lam in enumerate(evals):
        if abs(lam) > UNIT_MODULUS_BOUND:
            raise ValidationError(f"flux eigenvalue {lam:g} at {label} exceeds 1 in modulus")
        d_plus = abs(lam - 1.0)
        d_minus = abs(lam + 1.0)
        if d_plus <= tol.eigenvalue_unit:
            plus_idx.append(i)
        elif d_minus <= tol.eigenvalue_unit:
            minus_idx.append(i)
        elif min(d_plus, d_minus) <= tol.guard_band:
            raise EigenvalueAmbiguityError(label, float(lam), tol.eigenvalue_unit)
        else:
            max_inside = max(max_inside, abs(float(lam)))
    return plus_idx, minus_idx, max_inside


def tail_partner(label, window) -> tuple:
    """The shell label whose block repeats at ``label``: each coordinate
    beyond the shell moves inward by whole band widths until it lies in the
    shell band on its side."""
    partner = []
    for x, l, h, band in zip(label, window.lo, window.hi, window.bands):
        while x > h + band:
            x -= band
        while x < l - band:
            x += band
        partner.append(x)
    return tuple(partner)


def two_call_box(flux):
    """``(arrays, (bound, witness), rank sum)`` of ``flux``'s window from two
    ``geometry.block`` calls: the box arrays by ``StackedBox`` field name,
    the certificate's tail bound and witness, and the window's sum of rank
    P_out - rank P_in.  Every tripwire block must match its partner's."""
    window = flux.geometry.window
    lo, hi, bands = (np.array(v, dtype=np.int64) for v in (window.lo, window.hi, window.bands))
    axes = [range(l - 2 * b, h + 2 * b + 1, s) for l, h, b, s in zip(window.lo, window.hi, window.bands, window.steps)]
    labels = np.array(list(itertools.product(*axes)), dtype=np.int64).reshape(-1, len(axes))
    outside = np.maximum(lo - labels, labels - hi)
    zone = np.where(outside <= 0, 0, np.where(outside <= bands, 1, 2)).max(axis=1)
    box = labels[zone < 2]
    *stacks, which = flux.geometry.block(box)
    blocks, p_in, p_out, cells, evals = (a[which] for a in (*stacks, np.linalg.eigvalsh(stacks[0])))
    zone_box = zone[zone < 2]
    shell_rows = np.flatnonzero(zone_box == 1)
    tripwire = labels[zone == 2]
    partners = [tail_partner(label, window) for label in tripwire.tolist()]
    found = SiteIndex(box[shell_rows]).rows(np.array(partners, dtype=np.int64).reshape(-1, len(axes)))
    tw_blocks, *_, tw_which = flux.geometry.block(tripwire)
    assert (found >= 0).all()
    assert (np.abs(tw_blocks[tw_which] - blocks[shell_rows[found]]).max(axis=(1, 2)) <= TRIPWIRE_BOUND).all()
    norms = np.abs(evals).max(axis=1)
    rank_differences = np.rint(p_out.sum(axis=1) - p_in.sum(axis=1)).astype(int)
    window = zone_box == 0
    j = shell_rows[int(np.argmax(norms[shell_rows]))]
    tail = (float(norms[j]), tuple(box[j].tolist())) if norms[j] > 0.0 else (0.0, None)
    arrays = {
        "flux": blocks, "p_in": p_in, "p_out": p_out, "cells": cells, "eigenvalues": evals,
        "norms": norms, "window": window, "labels": box,
    }
    return arrays, tail, int(rank_differences[window].sum())


def kept_labels(flux) -> list[tuple]:
    """The labels of a field's kept window blocks, as tuples in kept order."""
    return [flux.box.label(row) for row in flux.kept.tolist()]


def lead_flux_index(network, coin: SiteMap, tol=DEFAULT):
    """Index of the total lead projection of a lead network, with the lead
    condition checked first and the count n_out - n_in checked after."""
    verify_lead_condition(coin, network, tol)
    report, flux = walk_index(coin, network_projection(network), tol)
    check_lead_count(report, network)
    return report, flux


def bulk_boundary_flux(coin: SiteMap, tol=DEFAULT):
    """Flux of the homogeneous half-space symbol under a reflecting coin;
    every block must vanish."""
    flux = build_walk_flux(build_walk(coin, tol), boundary_projection_full(coin.d), tol)
    worst = max_block_norm(flux)
    if not (worst <= VANISHING_FLUX_BOUND):
        raise ValidationError(f"reflecting configuration has a nonzero flux block (norm {worst:g})")
    return flux


def identity_coin(d: int) -> SiteMap:
    return SiteMap(d, background=np.eye(2 * d, dtype=complex))


def conditional_shift(d: int) -> CoinedWalk:
    """The bare conditional shift (identity coin)."""
    return CoinedWalk(identity_coin(d))


def per_epsilon_capped(scattering, path, eps, flux):
    """``scattering`` capped at 1/``eps`` along ``path``, out to that
    epsilon's own reach: max(1/eps, the uncapped ``flux``'s radius) plus four
    bands and 12, then cap rays that continue the outermost capped cells."""
    cut = math.ceil(1.0 / eps)
    reach = max(cut, flux.certificate.radius) + 4 * max(flux.geometry.window.bands) + 12
    cells = path.crossings(-reach, -cut)[0], path.crossings(cut, reach)[0]
    caps = np.array([tuple(FULL_TRANSMISSION), tuple(FULL_REFLECTION)], dtype=complex)
    window = np.concatenate(cells), caps.repeat([len(c) for c in cells], axis=0)
    r_base, r_inward = _deep_cell_ray(path, list(range(-reach, -reach + 9)))
    t_base, t_inward = _deep_cell_ray(path, list(range(reach - 1, reach - 10, -1)))
    rays = [
        (Ray(r_base, tuple(-c for c in r_inward)), [FULL_TRANSMISSION]),
        (Ray(t_base, tuple(-c for c in t_inward)), [FULL_REFLECTION]),
    ]
    return scattering.overridden(window=window, rays=rays)


def dict_merge(field: SiteMap, new: dict) -> dict:
    """The window of ``field.overridden(window=new)`` by the dict merge: the
    new entries first, each at its first position with its last value, then
    the old entries they leave, in window order."""
    old = dict(zip(map(tuple, field.window_coords.T.tolist()), field.window_values))
    new = {tuple(k): v for k, v in new.items()}
    return {**new, **{k: v for k, v in old.items() if k not in new}}


# ---------------------------------------------------------------------------
# lead synthesis, one constraint and one completed coin at a time


def check_lead(kind, prefix, ray_dir) -> None:
    """The checks of the ``LeadSpec`` constructor on site tuples: the same
    errors in the same order."""
    if kind not in ("outgoing", "incoming"):
        raise ValidationError(f"unknown lead kind {kind!r}")
    if not prefix:
        raise ValidationError("lead prefix must be nonempty")
    prefix, ray_dir = tuple(tuple(s) for s in prefix), tuple(ray_dir)
    try:
        index_of_vector(ray_dir)
    except ValueError:
        raise ValidationError("ray direction must be a unit lattice step") from None
    if any(sum(map(abs, sub(b, a))) != 1 for a, b in zip(prefix, prefix[1:])):
        raise ValidationError("lead prefix must take unit steps")
    if len(set(prefix)) != len(prefix):
        raise ValidationError("lead prefix revisits a site")
    ray = Ray(add(prefix[-1] if kind == "outgoing" else prefix[0], ray_dir), ray_dir)
    if any(ray.locate(p) is not None for p in prefix):
        raise ValidationError("lead ray re-enters its own prefix")


def junctions(lead) -> tuple:
    """(site, in_slot, out_slot) of the explicit conduction condition, from
    the per-t site and tangent: t = 1..m outgoing, t = -m-1..-2 incoming."""
    m = len(lead.prefix)
    ts = range(1, m + 1) if lead.kind == "outgoing" else range(-m - 1, -1)
    return tuple((lead.site(t), index_of_vector(lead.tangent(t)), index_of_vector(lead.tangent(t + 1))) for t in ts)


def complete_unitary(n: int, pairs: dict) -> np.ndarray:
    """A partial slot permutation completed deterministically: prescribed
    transitions get amplitude +1, the remaining input slots map to the
    remaining output slots in increasing order."""
    outs = list(pairs.values())
    if len(set(outs)) != len(outs):
        raise ValidationError(f"conflicting coin constraints: outputs {outs}")
    free_in = [k for k in range(n) if k not in pairs]
    free_out = [k for k in range(n) if k not in set(outs)]
    m = np.zeros((n, n), dtype=complex)
    for i, o in pairs.items():
        m[o, i] = 1.0
    for i, o in zip(free_in, free_out):
        m[o, i] = 1.0
    return m


def synthesize_lead_coin(network, background: SiteMap, tol=DEFAULT) -> SiteMap:
    """The lead coin of a network taken unchecked, re-checked by
    ``walks.verify_lead_condition``."""
    leads = network.leads()
    n = 2 * background.d
    boundary = network.boundary
    constraints: dict = {}

    def add_constraint(site, slot_in, slot_out):
        entry = constraints.setdefault(tuple(site), {})
        if slot_in in entry and entry[slot_in] != slot_out:
            raise ValidationError(
                f"conflicting coin constraints at {site}: slot {slot_in} must map to "
                f"both {entry[slot_in]} and {slot_out}"
            )
        entry[slot_in] = slot_out

    for lead in leads:
        for item in junctions(lead):
            add_constraint(*item)
    rules = [(ray, slot) for ray, _, slot in (lead.ray_family for lead in leads)]
    tails = []
    for i, (ray_i, slot_i) in enumerate(rules):
        for ray_j, slot_j in rules[i + 1 :]:
            where = ray_i.meet(ray_j)
            if isinstance(where, Ray):
                tails.append((where, {slot_i: slot_i, slot_j: slot_j}))
            elif where:
                for site in where:
                    add_constraint(site, slot_i, slot_i)
                    add_constraint(site, slot_j, slot_j)
    for ray, slot in rules:
        for site in list(constraints):
            if ray.locate(site) is not None:
                add_constraint(site, slot, slot)

    def reflect(pairs):
        if boundary is not None:
            up, down = boundary.normal_slots()
            pairs = {**pairs, up: down, down: up}
        return pairs

    layers = [(ray, [complete_unitary(n, reflect(pairs))]) for ray, pairs in tails]
    lo, hi = background.bounds()
    for ray, slot in rules:
        layers.append((ray, [complete_unitary(n, reflect({slot: slot}))]))
        k = 0
        while all(l - 2 <= x <= h + 2 for x, l, h in zip(ray.site_at(k), lo, hi)):
            add_constraint(ray.site_at(k), slot, slot)
            k += 1
    if boundary is not None:
        up, down = boundary.normal_slots()
        for site in list(constraints):
            if site[boundary.axis] == 0:
                add_constraint(site, up, down)
                add_constraint(site, down, up)
    coins = np.array([complete_unitary(n, pairs) for pairs in constraints.values()], dtype=complex).reshape(-1, n, n)
    coin = background.overridden(window=([*constraints], coins), rays=layers)
    verify_lead_condition(coin, network, tol)
    return coin
