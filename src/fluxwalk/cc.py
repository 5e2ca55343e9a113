"""Chalker--Coddington networks: scattering cells, dual paths, and flux.

The model lives on l^2(Z^2) and is assembled from 2x2 scattering matrices
S = q [[r, -t], [conj(t), conj(r)]] indexed by cells z in Z x 2Z.  Each cell
carries a two-dimensional incoming subspace and a two-dimensional outgoing
subspace; the unitary maps one onto the other cell by cell, so the flux of a
region projection is block diagonal over cells and ``flux.CellGeometry``
assembles it exactly as for coined walks.

A separating curve is given on the dual lattice (vertices at face centers).
Each dual step bisects exactly one primal edge; the crossed edge carries the
r- or t-entry of its cell, which classifies path segments.  The region to the
left of the oriented curve defines the projection whose flux is analyzed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import ValidationError
from .fields import Ray, SiteMap
from .flux import (
    CellGeometry,
    FluxField,
    analyze,
    assemble_field,
    check_rank_formula,
    index_by_odd_trace,
    selfcheck_against_operator,
)
from .lattice import LatticeState, Site
from .operators import LocalUnitary


# ---------------------------------------------------------------------------
# cell geometry


def in_cell(site: Site) -> tuple[Site, int]:
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


def out_cell(site: Site) -> tuple[Site, int]:
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


def in_cells(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``in_cell`` of every row of an (M, 2) integer point array: the (M, 2)
    cell labels and the M incoming slots."""
    m, n = points[:, 0], points[:, 1]
    slots = n % 2
    labels = np.empty_like(points)
    labels[:, 0] = m - slots
    labels[:, 1] = n + slots * (2 * (m % 2) - 1)
    return labels, slots


def out_cells(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``out_cell`` of every row of an (M, 2) integer point array: the (M, 2)
    cell labels and the M outgoing slots."""
    m, n = points[:, 0], points[:, 1]
    slots, odd_n = m % 2, n % 2
    labels = np.empty_like(points)
    labels[:, 0] = m - 1 + odd_n
    labels[:, 1] = n + odd_n * (1 - 2 * slots)
    return labels, slots


# ---------------------------------------------------------------------------
# scattering data


@dataclass(frozen=True)
class ScatteringParams:
    """Parameters (q, r, t) of one scattering matrix."""

    q: complex
    r: complex
    t: complex

    def __post_init__(self):
        if abs(abs(self.q) - 1.0) > 1e-12:
            raise ValidationError(f"|q| = {abs(self.q):.6g} is not unimodular")
        if abs(abs(self.r) ** 2 + abs(self.t) ** 2 - 1.0) > 1e-12:
            raise ValidationError("|r|^2 + |t|^2 must equal 1")

    def matrix(self) -> np.ndarray:
        return self.q * np.array(
            [[self.r, -self.t], [np.conj(self.t), np.conj(self.r)]], dtype=complex
        )


CRITICAL = ScatteringParams(1.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
FULL_REFLECTION = ScatteringParams(1.0, 1.0, 0.0)   # identity matrix
FULL_TRANSMISSION = ScatteringParams(1.0, 0.0, 1.0)  # antidiagonal [[0,-1],[1,0]]


def random_phase_window(
    rng: np.random.Generator,
    r_abs: float,
    a_range: range,
    b_range: range,
) -> dict:
    """Window of cells with fixed |r| and independent uniform phases."""
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


class CCUnitary(LocalUnitary):
    """The network unitary: each cell's incoming pair scatters to its
    outgoing pair through the cell's matrix.

    ``scattering`` maps cell labels in Z x 2Z to ``ScatteringParams``; every
    template value and every window label is checked here.  For
    ``flux.CellGeometry``, cell z maps its incoming pair onto its outgoing
    pair through S(z)^T (outgoing x incoming), and ``cell_labels`` is
    ``in_cells``; ``cells`` builds every S^T of a label array at once.
    """

    d = 2
    n_internal = 1

    def __init__(self, scattering: SiteMap):
        if scattering.d != 2:
            raise ValidationError(f"scattering data live on Z^2, got d = {scattering.d}")
        for z in scattering.window:
            if z[1] % 2 != 0:
                raise ValidationError(f"cell label {z} has odd second coordinate")
        for desc, params in scattering.template_values():
            if not isinstance(params, ScatteringParams):
                raise ValidationError(f"{desc} is not a ScatteringParams")
        self.scattering = scattering

    def cell_labels(self, sites: np.ndarray) -> np.ndarray:
        return in_cells(np.asarray(sites, dtype=np.int64))[0]

    def in_basis(self, labels: np.ndarray):
        labels = np.asarray(labels, dtype=np.int64)
        a, b = labels[:, 0], labels[:, 1]
        sites = np.empty((len(labels), 2, 2), dtype=np.int64)
        sites[:, 0] = labels
        sites[:, 1, 0] = a + 1
        sites[:, 1, 1] = b - 1 + 2 * (a % 2)
        return sites, _SLOTS

    def out_basis(self, labels: np.ndarray):
        a, b = labels[:, 0], labels[:, 1]
        odd = a % 2
        sites = np.empty((len(labels), 2, 2), dtype=np.int64)
        sites[:, 0, 0] = a + odd
        sites[:, 0, 1] = b - 1 + odd
        sites[:, 1, 0] = a + 1 - odd
        sites[:, 1, 1] = b + odd
        return sites, _SLOTS

    def cells(self, labels: np.ndarray):
        labels = np.asarray(labels, dtype=np.int64)
        return self._transposed(labels), self.in_basis(labels), self.out_basis(labels)

    def _transposed(self, labels: np.ndarray) -> np.ndarray:
        """The stacked S(z)^T of an (N, 2) label array."""
        distinct, which = self.scattering.distinct_values(labels)
        # entries spelled as in ScatteringParams.matrix, so real parameters
        # keep the same signed zeros
        s = np.array(
            [[[p.r, -p.t], [p.t.conjugate(), p.r.conjugate()]] for p in distinct], dtype=complex
        )
        q = np.array([p.q for p in distinct], dtype=complex)
        return (q[:, None, None] * s).transpose(0, 2, 1)[which]

    def apply(self, psi: LatticeState) -> LatticeState:
        return self._scatter(psi, adjoint=False)

    def apply_adjoint(self, psi: LatticeState) -> LatticeState:
        return self._scatter(psi, adjoint=True)

    def _scatter(self, psi: LatticeState, adjoint: bool) -> LatticeState:
        """Send the amplitude at each point, sitting in slot k of cell z, to
        the two outgoing points of z with weights S(z)[k, :] (to the two
        incoming points with conj(S(z)[:, k]) for the adjoint): one stacked
        S(z)^T for every point's cell, one product, one scatter."""
        self._check(psi)
        points = psi.site_array
        if not len(points):
            return psi
        labels, k = (out_cells if adjoint else in_cells)(points)
        transposed = self._transposed(labels)
        at = np.arange(len(points))
        if adjoint:
            targets, weights = self.in_basis(labels), transposed[at, k, :].conj()
        else:
            targets, weights = self.out_basis(labels), transposed[at, :, k]
        return LatticeState.scatter(1, targets, _scalar_products(weights, psi.value_array))


# every point of a cell's incoming or outgoing pair has the one slot 0
_SLOTS = np.zeros(2, dtype=np.int64)


def _scalar_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` for complex arrays, ``b`` broadcasting to ``a``'s shape,
    rounded like the product of two NumPy complex scalars: the array ufunc
    may fuse multiply and add, the scalar product does not."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = np.empty_like(a)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


# ---------------------------------------------------------------------------
# dual paths


@dataclass(frozen=True)
class CrossedEdge:
    """One primal edge bisected by a dual step, with its cell bookkeeping."""

    t: int
    source: Site
    target: Site
    cell: Site
    slot_in: int
    slot_out: int
    tag: str


def crossed_points(v: Site, w: Site) -> tuple[Site, Site]:
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


def edge_between(p: Site, q: Site) -> tuple[Site, Site, Site, int, int]:
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


def classify_step(t: int, v: Site, w: Site) -> CrossedEdge:
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


class DualPath:
    """A bi-infinite simple dual-lattice curve: explicit middle vertices plus
    two straight rays.  vertex(t) = middle[0] - t*pre_dir for t <= 0, the
    middle for 0 <= t <= m, and middle[m] + (t-m)*post_dir beyond.

    The curve never changes, so each step is classified once: ``step`` keeps
    the crossed edge of every t it has seen."""

    def __init__(self, middle, pre_dir: Site, post_dir: Site):
        self.middle = tuple(tuple(v) for v in middle)
        self.pre_dir = tuple(pre_dir)
        self.post_dir = tuple(post_dir)
        self._edges: dict[int, CrossedEdge] = {}
        if not self.middle:
            raise ValidationError("path needs at least one explicit vertex")
        for d in (self.pre_dir, self.post_dir):
            if abs(d[0]) + abs(d[1]) != 1:
                raise ValidationError("ray directions must be unit steps")
        for a, b in zip(self.middle, self.middle[1:]):
            if abs(b[0] - a[0]) + abs(b[1] - a[1]) != 1:
                raise ValidationError(f"middle step {a} -> {b} is not a unit step")
        if len(set(self.middle)) != len(self.middle):
            raise ValidationError("path revisits a dual vertex")
        pre_ray = Ray(self.vertex(-1), self.pre_dir)
        post_ray = Ray(self.vertex(self.m_last + 1), self.post_dir)
        for v in self.middle:
            if pre_ray.locate(v) is not None or post_ray.locate(v) is not None:
                raise ValidationError("path ray re-enters the explicit middle")
        if pre_ray.meet(post_ray) is not None:
            raise ValidationError("path rays intersect")

    @property
    def m_last(self) -> int:
        return len(self.middle) - 1

    def vertex(self, t: int) -> Site:
        if t < 0:
            v0 = self.middle[0]
            return (v0[0] - t * self.pre_dir[0], v0[1] - t * self.pre_dir[1])
        if t <= self.m_last:
            return self.middle[t]
        vm = self.middle[-1]
        k = t - self.m_last
        return (vm[0] + k * self.post_dir[0], vm[1] + k * self.post_dir[1])

    def vertices(self, t0: int, t1: int) -> np.ndarray:
        """``vertex(t)`` for t0 <= t < t1 as a (t1 - t0, 2) integer array."""
        t = np.arange(t0, t1)[:, None]
        middle = np.array(self.middle)
        inner = middle[np.clip(t[:, 0], 0, self.m_last)]
        before = middle[0] - t * np.array(self.pre_dir)
        after = middle[-1] + (t - self.m_last) * np.array(self.post_dir)
        return np.where(t < 0, before, np.where(t <= self.m_last, inner, after))

    def step(self, t: int) -> CrossedEdge:
        """Crossed edge of the dual step t -> t+1."""
        edge = self._edges.get(t)
        if edge is None:
            edge = self._edges[t] = classify_step(t, self.vertex(t), self.vertex(t + 1))
        return edge

    def steps(self, t0: int, t1: int) -> list[CrossedEdge]:
        return [self.step(t) for t in range(t0, t1)]

    def is_pure(self, t0: int, t1: int, tag: str) -> bool:
        return all(e.tag == tag for e in self.steps(t0, t1))

    def switch_window(self, probe: int = 40) -> tuple[int, int]:
        """Smallest [t0, t1] outside of which the step tags are constant."""
        pre_tag = self.step(-probe).tag
        post_tag = self.step(probe).tag
        t0 = 0
        for t in range(-probe, self.m_last + probe):
            if self.step(t).tag != pre_tag:
                t0 = t
                break
        t1 = t0
        for t in range(probe + self.m_last, t0 - 1, -1):
            if self.step(t).tag != post_tag:
                t1 = t + 1
                break
        return t0, t1

    def bounds(self):
        xs = [v[0] for v in self.middle]
        ys = [v[1] for v in self.middle]
        return (min(xs), min(ys)), (max(xs), max(ys))

    def extended(self, pre_steps: int, post_steps: int) -> "DualPath":
        """Same curve with ray vertices materialized into the middle."""
        if pre_steps < 0 or post_steps < 0:
            raise ValidationError("extension step counts must be nonnegative")
        middle = [self.vertex(t) for t in range(-pre_steps, self.m_last + post_steps + 1)]
        return DualPath(middle, self.pre_dir, self.post_dir)


# ---------------------------------------------------------------------------
# region to the left of the curve


class RegionSplit:
    """Membership in the subgraph left of an oriented dual curve.

    Every dual step bisects one primal edge and labels its two endpoints
    (left point inside, right point outside).  Inside a finite box the
    labels are the parity of cut edges crossed on the way from one seed
    point, taken down the seed's column and then along every row; every
    seed and every vertical edge then confirms them (an uncut edge joins
    equal labels, a cut edge unequal ones).  Beyond the box the labels are
    constant along outward directions, so clamping is exact.  As a
    projection it offers ``diagonal_entries`` and ``apply``.
    """

    def __init__(self, path: DualPath, lo: Site, hi: Site):
        (mx0, my0), (mx1, my1) = path.bounds()
        self.lo = (min(lo[0], mx0 - 2), min(lo[1], my0 - 2))
        self.hi = (max(hi[0], mx1 + 2), max(hi[1], my1 + 2))
        self.path = path
        span = (
            (self.hi[0] - self.lo[0])
            + (self.hi[1] - self.lo[1])
            + len(path.middle)
            + abs(mx0) + abs(mx1) + abs(my0) + abs(my1)
            + 8
        )
        vertices = path.vertices(-span, path.m_last + span + 1)
        near = np.all(
            (vertices >= np.subtract(self.lo, 2)) & (vertices <= np.add(self.hi, 2)), axis=1
        )
        shape = (self.hi[0] - self.lo[0] + 1, self.hi[1] - self.lo[1] + 1)
        # cut[0][i, j] marks the edge (i, j)-(i+1, j), cut[1][i, j] the edge
        # (i, j)-(i, j+1), in box coordinates
        cut = [
            np.zeros((shape[0] - 1, shape[1]), dtype=np.int64),
            np.zeros((shape[0], shape[1] - 1), dtype=np.int64),
        ]
        seeds: dict[Site, int] = {}
        for k in np.flatnonzero(near[:-1] | near[1:]).tolist():
            v, w = vertices[k : k + 2].tolist()
            left, right = crossed_points(tuple(v), tuple(w))
            for point, side in ((left, 1), (right, 0)):
                if self._in_box(point):
                    prev = seeds.get(point)
                    if prev is not None and prev != side:
                        raise ValidationError(f"conflicting side labels at {point}")
                    seeds[point] = side
            if self._in_box(left) and self._in_box(right):
                axis = 0 if left[0] != right[0] else 1
                low = min(left, right)
                cut[axis][low[0] - self.lo[0], low[1] - self.lo[1]] = 1
        if not seeds:
            raise ValidationError("path does not meet the labeling box")
        (sx, sy), side = next(iter(seeds.items()))
        i0, j0 = sx - self.lo[0], sy - self.lo[1]
        column = np.concatenate([[0], np.cumsum(cut[1][i0])])
        rows = np.concatenate([np.zeros((1, shape[1]), dtype=np.int64), np.cumsum(cut[0], axis=0)])
        labels = (side + column - column[j0] + rows - rows[i0]) % 2
        for (x, y), side in seeds.items():
            if labels[x - self.lo[0], y - self.lo[1]] != side:
                raise ValidationError(f"inconsistent region labels at {(x, y)}")
        wrong = np.argwhere((labels[:, 1:] != labels[:, :-1]) != cut[1])
        if len(wrong):
            i, j = wrong[0].tolist()
            raise ValidationError(
                f"inconsistent region labels at {(self.lo[0] + i, self.lo[1] + j + 1)}"
            )
        self._labels = labels

    def _in_box(self, p: Site) -> bool:
        return self.lo[0] <= p[0] <= self.hi[0] and self.lo[1] <= p[1] <= self.hi[1]

    def diagonal_entries(self, sites: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """0/1 diagonal entries at an (M, 2) integer array of points (every
        slot is 0), read from the label array at clamped coordinates."""
        x = np.clip(sites[:, 0], self.lo[0], self.hi[0]) - self.lo[0]
        y = np.clip(sites[:, 1], self.lo[1], self.hi[1]) - self.lo[1]
        return self._labels[x, y].astype(float)

    def apply(self, psi: LatticeState) -> LatticeState:
        """Keep the rows of ``psi`` at points inside the region."""
        if not psi.support_size():
            return psi
        inside = self.diagonal_entries(psi.site_array, None) > 0
        return LatticeState(psi.n_internal, (psi.site_array[inside], psi.value_array[inside]), _take=True)

    def region_points(self) -> set[Site]:
        return {(self.lo[0] + i, self.lo[1] + j) for i, j in np.argwhere(self._labels).tolist()}


# ---------------------------------------------------------------------------
# flux over cells


def cc_flux(scattering: SiteMap, path: DualPath, tol: Tolerances = DEFAULT) -> FluxField:
    """Blockwise flux of the left-region projection of a dual path, checked
    against the operator on random states.

    Block at cell z in the incoming basis: conj(S) D_out S^T - D_in with the
    0/1 region memberships of the outgoing and incoming points on the
    diagonals (``flux.CellGeometry`` with matrix S^T).  The window covers the
    path and the scattering features plus a margin of 4.
    """
    unitary = CCUnitary(scattering)
    (plo, phi_) = path.bounds()
    s_lo, s_hi = scattering.bounds()
    lo = [min(s_lo[0], plo[0]) - 4, min(s_lo[1], plo[1]) - 4]
    hi = [max(s_hi[0], phi_[0]) + 4, max(s_hi[1], phi_[1]) + 4]
    lo[1] -= lo[1] % 2
    hi[1] += hi[1] % 2
    per = scattering.periods()
    bands = [math.lcm(2, per[0]), math.lcm(2, per[1])]
    steps = [1, 2]

    point_lo = (lo[0] - 2 * bands[0] - 3, lo[1] - 2 * bands[1] - 3)
    point_hi = (hi[0] + 2 * bands[0] + 4, hi[1] + 2 * bands[1] + 4)
    split = RegionSplit(path, point_lo, point_hi)

    geometry = CellGeometry(unitary, split, lo, hi, probes=8)
    flux = assemble_field(geometry, geometry.block, lo, hi, bands, steps, tol)
    selfcheck_against_operator(flux, unitary)
    return flux


def cc_index(scattering: SiteMap, path: DualPath, tol: Tolerances = DEFAULT):
    """Index report with the geometric rank formula cross-checked against
    kernel counting."""
    flux = cc_flux(scattering, path, tol)
    report = analyze(flux)
    check_rank_formula(report, flux, "the cell rank formula")
    return report, flux


# ---------------------------------------------------------------------------
# canonical paths


def straight_r_path(height_cells: int = 0) -> DualPath:
    """Horizontal dual line at an even height: every crossed edge carries r."""
    y = 2 * height_cells
    return DualPath([(0, y)], pre_dir=(-1, 0), post_dir=(1, 0))


def crossover_path(west_first: bool = True) -> DualPath:
    """Path that is r-type on one side and t-type on the other, switching at
    a single dual vertex.  ``west_first`` runs the r-ray westward."""
    if west_first:
        return DualPath([(0, 0), (0, 1)], pre_dir=(-1, 0), post_dir=(1, 0))
    return DualPath([(0, 0), (0, 1)], pre_dir=(1, 0), post_dir=(-1, 0))


def wiggled_r_path() -> DualPath:
    """A pure-r path with a local detour (stays on r-carrying links)."""
    middle = [
        (-5, 0),
        (-4, 0),
        (-3, 0),
        (-3, 1),
        (-3, 2),
        (-2, 2),
        (-1, 2),
        (-1, 1),
        (-1, 0),
        (0, 0),
    ]
    return DualPath(middle, pre_dir=(-1, 0), post_dir=(1, 0))


# ---------------------------------------------------------------------------
# path surgery


def path_surgery(
    path: DualPath,
    t_from: int,
    t_to: int,
    replacement,
    require_tag: str | None = None,
) -> DualPath:
    """Replace the part of the path between two of its middle vertices.

    ``replacement`` must start at vertex(t_from) and end at vertex(t_to).
    When ``require_tag`` is given, every replaced link must carry that weight
    tag; a wrong endpoint parity surfaces here as a tag violation.
    """
    if not 0 <= t_from < t_to <= path.m_last:
        raise ValidationError("surgery endpoints must lie in the explicit middle")
    replacement = [tuple(v) for v in replacement]
    if replacement[0] != path.vertex(t_from) or replacement[-1] != path.vertex(t_to):
        raise ValidationError("replacement does not match the surgery endpoints")
    if require_tag is not None:
        for t, (v, w) in enumerate(zip(replacement, replacement[1:])):
            edge = classify_step(t, v, w)
            if edge.tag != require_tag:
                raise ValidationError(
                    f"replacement step {v} -> {w} carries tag {edge.tag}, "
                    f"needs {require_tag}"
                )
    middle = list(path.middle[: t_from]) + replacement + list(path.middle[t_to + 1 :])
    return DualPath(middle, path.pre_dir, path.post_dir)


def random_bump(path: DualPath, rng, t_lo: int, t_hi: int):
    """Insert a parity-correct 2-column detour over a straight run between
    steps t_lo and t_hi: (new path, region difference rank 4), or None."""
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
        new_path = path_surgery(path, t, t + 2, replacement, require_tag=tag)
    except ValidationError:
        return None
    return new_path, 4


def region_difference_rank(path_a: DualPath, path_b: DualPath, box: int = 30) -> int:
    """Rank of the difference of the two region projections: the size of the
    symmetric difference of the left regions."""
    lo = (-box, -box)
    hi = (box, box)
    split_a = RegionSplit(path_a, lo, hi)
    split_b = RegionSplit(path_b, lo, hi)
    diff = split_a.region_points() ^ split_b.region_points()
    for p in diff:
        if abs(p[0]) >= box - 2 or abs(p[1]) >= box - 2:
            raise ValidationError("region difference reaches the box boundary")
    return len(diff)


# ---------------------------------------------------------------------------
# anomalous transport family


def _deep_cell_ray(path: DualPath, ts: list[int]) -> tuple[Site, Site]:
    """Arithmetic progression of cells along a ray, from deep step samples."""
    cells = []
    for t in ts:
        c = path.step(t).cell
        if not cells or cells[-1] != c:
            cells.append(c)
    if len(cells) < 3:
        raise ValidationError("not enough distinct deep cells to fit a ray")
    step = (cells[1][0] - cells[0][0], cells[1][1] - cells[0][1])
    for a, b in zip(cells, cells[1:]):
        if (b[0] - a[0], b[1] - a[1]) != step:
            raise ValidationError("deep cells are not an arithmetic progression")
    return cells[0], step


def anomalous_transport(
    scattering: SiteMap,
    path: DualPath,
    epsilons,
    tol: Tolerances = DEFAULT,
) -> dict:
    """Trace of the flux after capping both rays: full transmission far on
    the r side, full reflection far on the t side.

    Each capped flux has finitely many nonzero blocks, so its plain trace is
    defined, and it must equal the integer index of the uncapped flux.
    """
    report, flux = cc_index(scattering, path, tol)
    t0, t1 = path.switch_window()
    results = []
    for eps in epsilons:
        if not 0.0 < eps <= 1.0:
            raise ValidationError(f"epsilon {eps} out of range")
        cut = math.ceil(1.0 / eps)
        if not path.is_pure(-cut - 40, t0, "r") or not path.is_pure(t1, cut + 40, "t"):
            raise ValidationError(
                f"path is not r-pure left and t-pure right of the 1/eps={cut} cutoffs"
            )
        deep = max(abs(flux.lo[0]), abs(flux.hi[0]), abs(flux.lo[1]), abs(flux.hi[1]))
        reach = max(cut, deep) + 4 * max(flux.bands) + 12
        window = {}
        for e in path.steps(-reach, -cut):
            window[e.cell] = FULL_TRANSMISSION
        for e in path.steps(cut, reach):
            window[e.cell] = FULL_REFLECTION
        # seamless continuation: the cell rays start at the outermost window
        # cells and run outward
        r_base, r_inward = _deep_cell_ray(path, list(range(-reach, -reach + 9)))
        t_base, t_inward = _deep_cell_ray(path, list(range(reach - 1, reach - 10, -1)))
        rays = [
            (Ray(r_base, tuple(-c for c in r_inward)), [FULL_TRANSMISSION]),
            (Ray(t_base, tuple(-c for c in t_inward)), [FULL_REFLECTION]),
        ]
        capped = scattering.overridden(window=window, rays=rays)
        flux_eps = cc_flux(capped, path, tol)
        if not flux_eps.tail_zero:
            raise ValidationError("capped flux still has nonzero tail blocks")
        trace = index_by_odd_trace(flux_eps, 0)
        results.append((float(eps), complex(trace)))
    return {"index": report.index, "traces": results}
