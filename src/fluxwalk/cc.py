"""Chalker--Coddington networks: scattering cells, dual paths, and flux.

The model lives on l^2(Z^2) and is assembled from 2x2 scattering matrices
S = q [[r, -t], [conj(t), conj(r)]] indexed by cells z in Z x 2Z.  Each cell
carries a two-dimensional incoming subspace and a two-dimensional outgoing
subspace; the unitary maps one onto the other cell by cell, so the flux of a
region projection is block diagonal over cells and ``flux.CellGeometry``
assembles it exactly as for coined walks.

A random scattering window stays one checked (N, 3) complex block of
(q, r, t) rows, capped or not, from the draw to the stacked S^T of ``CCUnitary``.

A separating curve is given on the dual lattice (vertices at face centers).
Each dual step bisects exactly one primal edge; the crossed edge carries the
r- or t-entry of its cell, which classifies path segments.  ``classify_steps``
classifies a run of steps in one array pass, and a ``DualPath`` keeps what
it has classified.  The region to the left of the oriented curve defines the
projection whose flux is analyzed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .config import DEFAULT, EPSILON_LEAST, Tolerances, check_size
from .errors import ValidationError
from .fields import Ray, SiteMap
from .flux import (
    CellGeometry,
    FluxWindow,
    analyze,
    assemble_field,
    index_by_odd_trace,
    selfcheck_against_operator,
)
from .lattice import LatticeState, Site, add, group_sites
from .operators import LocalUnitary


# ---------------------------------------------------------------------------
# cell geometry


def in_cells(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cell labels (M, 2) and incoming slots (M,) owning every row of an
    (M, 2) integer point array: slot 0 is the label (a, b) itself, slot
    1 the point one step right and one step down (a even) or up (a odd)."""
    m, n = points[:, 0], points[:, 1]
    slots = n % 2
    labels = np.empty_like(points)
    labels[:, 0] = m - slots
    labels[:, 1] = n + slots * (2 * (m % 2) - 1)
    return labels, slots


def out_cells(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cell labels (M, 2) and outgoing slots (M,) owning every row of an
    (M, 2) integer point array, the pairs of ``CCUnitary.out_basis``."""
    m, n = points[:, 0], points[:, 1]
    slots, odd_n = m % 2, n % 2
    labels = np.empty_like(points)
    labels[:, 0] = m - 1 + odd_n
    labels[:, 1] = n + odd_n * (1 - 2 * slots)
    return labels, slots


# ---------------------------------------------------------------------------
# scattering data

SCATTERING_BOUND = 1e-12  # largest miss of |q| = 1 and |r|^2 + |t|^2 = 1 a cell may have


@dataclass(frozen=True)
class ScatteringParams:
    """Parameters (q, r, t) of one scattering matrix, checked as a row of
    ``check_rows``; it unpacks as ``q, r, t`` like a row of a scattering block."""

    q: complex
    r: complex
    t: complex

    def __post_init__(self):
        check_rows(np.array([tuple(self)], dtype=complex))

    def __iter__(self):
        return iter((self.q, self.r, self.t))


def check_rows(qrt: np.ndarray) -> np.ndarray:
    """``qrt``, an (N, 3) complex array of (q, r, t) rows, once every row
    has |q| = 1 and |r|^2 + |t|^2 = 1 within ``SCATTERING_BOUND`` (a NaN
    fails); otherwise ``ValidationError`` for the first row that fails."""
    q, r, t = np.abs(qrt).T
    bad_q = ~(np.abs(q - 1.0) <= SCATTERING_BOUND)
    bad = np.flatnonzero(bad_q | ~(np.abs(r**2 + t**2 - 1.0) <= SCATTERING_BOUND))
    if bad.size:
        if bad_q[bad[0]]:
            raise ValidationError(f"|q| = {q[bad[0]]:.6g} is not unimodular")
        raise ValidationError("|r|^2 + |t|^2 must equal 1")
    return qrt


CRITICAL = ScatteringParams(1.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
FULL_REFLECTION = ScatteringParams(1.0, 1.0, 0.0)   # identity matrix
FULL_TRANSMISSION = ScatteringParams(1.0, 0.0, 1.0)  # antidiagonal [[0,-1],[1,0]]


def random_phase_window(
    rng: np.random.Generator,
    r_abs: float,
    a_range: range,
    b_range: range,
) -> tuple[np.ndarray, np.ndarray]:
    """``(cells, qrt)``: the (N, 2) cells (a, b), b even, a-major, and their
    checked (N, 3) (q, r, t) rows with fixed |r| and uniform phases, drawn
    for each cell in turn by one ``rng.uniform`` call and one ``np.exp``."""
    t_abs = math.sqrt(max(0.0, 1.0 - r_abs**2))
    cells = np.array([(a, b) for a in a_range for b in b_range if b % 2 == 0], dtype=np.int64).reshape(-1, 2)
    qrt = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(len(cells), 3)))
    qrt[:, 1:] *= (r_abs, t_abs)
    return cells, check_rows(qrt)


def _is_value(p) -> bool:
    """Whether ``p`` is a ``ScatteringParams`` or one complex (q, r, t) row."""
    return isinstance(p, ScatteringParams) or (isinstance(p, np.ndarray) and p.shape == (3,) and p.dtype == complex)


class CCUnitary(LocalUnitary):
    """The network unitary: each cell's incoming pair scatters to its
    outgoing pair through the cell's matrix.

    ``scattering`` maps cell labels in Z x 2Z to ``ScatteringParams``
    (templates) or to rows of a complex (N, 3) block of (q, r, t), such as
    a window of ``random_phase_window`` and its caps in
    ``anomalous_transport``.  Every value and window label is checked here,
    a block in one array pass.  For ``flux.CellGeometry``, cell z maps its
    incoming pair onto its outgoing pair through S(z)^T (outgoing x
    incoming), and ``cell_labels`` is ``in_cells``.  The S^T of every table
    row is stacked once; ``table_rows`` gives that stack and each label's
    ``value_index`` row, and the actions take from it."""

    d = 2
    n_internal = 1

    def __init__(self, scattering: SiteMap):
        if scattering.d != 2:
            raise ValidationError(f"scattering data live on Z^2, got d = {scattering.d}")
        odd = np.flatnonzero(scattering.window_coords[1] % 2)
        if odd.size:
            label = tuple(scattering.window_coords[:, odd[0]].tolist())
            raise ValidationError(f"cell label {label} has odd second coordinate")
        values, entries = scattering.window_values, scattering.templates
        if not (isinstance(values, np.ndarray) and values.shape[1:] == (3,) and values.dtype == complex):
            values, entries = np.zeros((0, 3), dtype=complex), (*values, *entries)
        if not all(map(_is_value, entries)):
            desc = next(d for d, p in scattering.template_values() if not _is_value(p))
            raise ValidationError(f"{desc} is not a ScatteringParams")
        self._qrt = check_rows(np.concatenate([values, np.array([tuple(p) for p in entries], dtype=complex).reshape(-1, 3)]))
        # whether each row's r and t are complex numbers (rows always are)
        self._complex = np.ones((len(self._qrt), 2), dtype=bool)
        self._complex[len(values) :] = [[isinstance(v, (complex, np.complexfloating)) for v in (r, t)] for _, r, t in entries]
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

    def table_rows(self, labels: np.ndarray):
        return self._transposed_table, self.scattering.value_index(np.asarray(labels, dtype=np.int64))

    @cached_property
    def _transposed_table(self) -> np.ndarray:
        """S^T = q [[r, conj(t)], [-t, conj(r)]] of every table row, with
        the bits of ``q * np.array(...)`` on the row's entries: negating or
        conjugating a real r or t leaves +0 as its imaginary part."""
        q, r, t = self._qrt.T
        r_im, t_im = np.where(self._complex, -np.stack([r.imag, t.imag], axis=1), 0.0).T
        entries = np.stack([r.real, r.imag, t.real, t_im, -t.real, t_im, r.real, r_im], axis=1).view(complex)
        return (q[:, None] * entries).reshape(-1, 2, 2)

    def apply(self, psi: LatticeState, *stacked: "CCUnitary") -> LatticeState:
        """U psi.  Given ``stacked`` networks (the rest of a flux axis, as
        ``CellGeometry.block`` takes them), column block f of psi, of ``1 +
        len(stacked)`` equal runs, goes through network f, this one first:
        one ``in_cells`` pass, each network's own ``value_index`` rows."""
        return self.step(psi, False, *(network.coins for network in (self, *stacked)))

    def apply_adjoint(self, psi: LatticeState, *stacked: "CCUnitary") -> LatticeState:
        """U* psi, column blocks as in ``apply``: one ``out_cells`` pass."""
        return self.step(psi, True, *(network.coins for network in (self, *stacked)))

    def step(self, psi: LatticeState, adjoint: bool, *coins) -> LatticeState:
        """Send the amplitude at each point, sitting in slot k of cell z, to
        the two outgoing points of z with weights S(z)[k, :] (to the two
        incoming points with conj(S(z)[:, k]) for the adjoint), S its column
        block's: ``coins[f]`` gives the stacked S(z)^T of column block f for
        every point's cell (a network's ``coins``, or a shift check's
        ``shift.SiteFrame.coins``), then one product for every column, one
        scatter."""
        self._check(psi)
        points = psi.site_array
        if not len(points):
            return psi
        labels, k = (out_cells if adjoint else in_cells)(points)
        at = np.arange(len(points))
        weights = np.empty((len(points), 2, len(coins), 1), dtype=complex)
        for f, transposed in enumerate(cell_coins(labels) for cell_coins in coins):
            weights[:, :, f, 0] = transposed[at, k, :].conj() if adjoint else transposed[at, :, k]
        targets = (self.in_basis if adjoint else self.out_basis)(labels)
        values = psi.value_array[:, 0].reshape(len(points), 1, len(coins), -1)
        amps = _scalar_products(weights, values)
        return LatticeState.scatter(1, targets, amps.reshape(len(points), 2, -1))

    def frame_step(self, frame, psi: LatticeState, adjoint: bool) -> LatticeState:
        """``step`` on the points of a ``shift.SiteFrame``'s keys, whose
        cells read the frame's ``coins``."""
        return frame.state(self.step(frame.on_sites(psi), adjoint, lambda labels: frame.coins(frame.keys(labels))))


# every point of a cell's incoming or outgoing pair has the one slot 0
_SLOTS = np.zeros(2, dtype=np.int64)


def _scalar_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` for broadcasting complex arrays, rounded like the product of
    two NumPy complex scalars: the array ufunc may fuse multiply and add, the
    scalar product does not."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    real = ar * br - ai * bi
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = ar * bi + ai * br
    return out


# ---------------------------------------------------------------------------
# dual paths


def classify_steps(v: np.ndarray, w: np.ndarray):
    """``(points, cells, slots, tags)`` of the dual steps v[i] -> w[i] of two
    (n, 2) integer vertex arrays, in one array pass.

    Step i bisects the primal edge ``points[i]`` = (left point, right
    point); dual label u sits at real position u + (1/2, -1/2).  The
    network carries the edge inside cell ``cells[i]``, from incoming slot
    ``slots[i, 0]`` to outgoing slot ``slots[i, 1]``, and the tag is "r"
    for a diagonal entry of S (equal slots), "t" otherwise.  The parity rule
    (vertical edges carry r iff their lower row is odd, horizontal ones iff
    their left column is) is re-checked as an independent consistency test.
    ``ValidationError`` names the first step that is not a unit step or
    fails a check."""
    d = w - v
    bad = np.flatnonzero(np.abs(d).sum(axis=1) != 1)
    if bad.size:
        raise ValidationError(f"dual step {tuple(v[bad[0]].tolist())} -> {tuple(w[bad[0]].tolist())} is not a unit step")
    n, mid2, turned = len(d), v + w + np.array([1, -1]), d[:, ::-1] * np.array([-1, 1])
    points = np.concatenate([mid2 + turned, mid2 - turned]) // 2  # the n left points, then the n right ones
    (ins, j), (outs, b) = in_cells(points), out_cells(points)
    # the edge runs left -> right when left's incoming cell is right's outgoing
    # cell, right -> left when the reverse holds
    same = ins == np.concatenate([outs[n:], outs[:n]])
    same = same[:, 0] & same[:, 1]
    lefts, rights = np.arange(n), np.arange(n, 2 * n)
    sources, targets = np.where(same[:n], lefts, rights), np.where(same[:n], rights, lefts)
    cells, slots = ins[sources], np.stack([j[sources], b[targets]], axis=1)
    is_r = slots[:, 0] == slots[:, 1]
    low = np.minimum(points[:n], points[n:])
    odd = np.where(points[:n, 0] == points[n:, 0], low[:, 1], low[:, 0]) % 2 != 0
    tags = np.where(is_r, "r", "t")
    bad = np.flatnonzero(~(same[:n] | same[n:]) | (is_r != odd))
    if bad.size:
        i = bad[0]
        p, q = tuple(points[i].tolist()), tuple(points[n + i].tolist())
        if not (same[i] or same[n + i]):
            raise ValidationError(f"points {p}, {q} do not share a scattering cell")
        source, target = (p, q) if same[i] else (q, p)
        raise ValidationError(f"edge {source}->{target}: amplitude tag {tags[i]} contradicts parity rule")
    return points.reshape(2, n, 2).swapaxes(0, 1), cells, slots, tags


class DualPath:
    """A bi-infinite simple dual-lattice curve: explicit middle vertices plus
    two straight rays.  ``vertices(t0, t1)`` gives its vertices t0 <= t < t1:
    middle[0] - t*pre_dir for t <= 0, the middle for 0 <= t <= m, and
    middle[m] + (t-m)*post_dir beyond.

    The curve never changes, so each step is classified once: ``crossings``
    keeps the cells and tags of one range of t and grows it as asked."""

    def __init__(self, middle, pre_dir: Site, post_dir: Site):
        self.middle = tuple(tuple(v) for v in middle)
        self.pre_dir = tuple(pre_dir)
        self.post_dir = tuple(post_dir)
        self._crossed = (0, np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype="<U1"))
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
        pre_ray = Ray(add(self.middle[0], self.pre_dir), self.pre_dir)
        post_ray = Ray(add(self.middle[-1], self.post_dir), self.post_dir)
        for v in self.middle:
            if pre_ray.locate(v) is not None or post_ray.locate(v) is not None:
                raise ValidationError("path ray re-enters the explicit middle")
        if pre_ray.meet(post_ray) is not None:
            raise ValidationError("path rays intersect")

    @property
    def m_last(self) -> int:
        return len(self.middle) - 1

    def vertices(self, t0: int, t1: int) -> np.ndarray:
        """Vertices t0 <= t < t1 as a (t1 - t0, 2) integer array."""
        m, middle = self.m_last, np.array(self.middle, dtype=np.int64)
        before = middle[0] - np.arange(t0, min(t1, 0))[:, None] * self.pre_dir
        after = middle[m] + np.arange(max(t0, m + 1) - m, t1 - m)[:, None] * self.post_dir
        return np.concatenate([before, middle[max(t0, 0) : max(t1, 0)], after])

    def _classify(self, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """Cells and tags of the steps t0 <= t < t1, in one pass."""
        v = self.vertices(t0, t1 + 1)
        _, cells, _, tags = classify_steps(v[:-1], v[1:])
        return cells, tags

    def crossings(self, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """The (n, 2) cells and n "r"/"t" tags of the steps t -> t+1 for
        t0 <= t < t1; only steps outside the kept range are classified, and
        the kept range grows to the smallest one covering both."""
        lo, cells, tags = self._crossed
        if t1 <= t0:
            return cells[:0], tags[:0]
        if not len(tags):
            lo = t0
        hi = lo + len(tags)
        if t0 < lo:
            cells, tags = (np.concatenate(pair) for pair in zip(self._classify(t0, lo), (cells, tags)))
            lo = t0
        if t1 > hi:
            cells, tags = (np.concatenate(pair) for pair in zip((cells, tags), self._classify(hi, t1)))
        self._crossed = lo, cells, tags
        return cells[t0 - lo : t1 - lo], tags[t0 - lo : t1 - lo]

    def is_pure(self, t0: int, t1: int, tag: str) -> bool:
        return bool((self.crossings(t0, t1)[1] == tag).all())

    def switch_window(self, probe: int = 40) -> tuple[int, int]:
        """Smallest [t0, t1] outside of which the tags of steps -probe to
        m + probe are those of step -probe (before t0) and probe (from t1)."""
        _, tags = self.crossings(-probe, self.m_last + probe + 1)
        off = np.flatnonzero(tags[:-1] != tags[0])
        t0 = int(off[0]) - probe if off.size else 0
        off = np.flatnonzero(tags[t0 + probe :] != tags[2 * probe])
        return t0, (t0 + int(off[-1]) + 1 if off.size else t0)

    def bounds(self):
        xs = [v[0] for v in self.middle]
        ys = [v[1] for v in self.middle]
        return (min(xs), min(ys)), (max(xs), max(ys))

    def extended(self, pre_steps: int, post_steps: int) -> "DualPath":
        """Same curve with ray vertices materialized into the middle."""
        if pre_steps < 0 or post_steps < 0:
            raise ValidationError("extension step counts must be nonnegative")
        return DualPath(self.vertices(-pre_steps, self.m_last + post_steps + 1).tolist(), self.pre_dir, self.post_dir)


# ---------------------------------------------------------------------------
# region to the left of the curve


def region_box(lo: Site, hi: Site) -> tuple[int, int]:
    """The shape of the box of points from corner ``lo`` to corner ``hi``;
    ``ValidationError`` when it holds more than ``WINDOW_SITES`` points."""
    shape = (hi[0] - lo[0] + 1, hi[1] - lo[1] + 1)
    check_size(math.prod(shape), "region box", "points")
    return shape


class RegionSplit:
    """Membership in the subgraph left of an oriented dual curve.

    Every dual step bisects one primal edge and labels its two endpoints
    (left point inside, right point outside).  Inside a finite box the
    labels are the parity of cut edges crossed on the way from one seed
    point, taken down the seed's column and then along every row; every
    seed and every vertical edge then confirms them (an uncut edge joins
    equal labels, a cut edge unequal ones).  The crossed points of the steps
    near the box come from one ``classify_steps`` pass.  Beyond the box the
    labels are constant along outward directions, so clamping is exact.  As
    a projection it offers ``diagonal_entries`` and ``apply``; ``box`` is the
    box asked for, and ``lo``-``hi`` that box widened to the path plus 2.
    """

    def __init__(self, path: DualPath, lo: Site, hi: Site):
        (mx0, my0), (mx1, my1) = path.bounds()
        self.box = (tuple(lo), tuple(hi))
        self.lo = (min(lo[0], mx0 - 2), min(lo[1], my0 - 2))
        self.hi = (max(hi[0], mx1 + 2), max(hi[1], my1 + 2))
        shape = region_box(self.lo, self.hi)
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
        steps = np.flatnonzero(near[:-1] | near[1:])
        points = classify_steps(vertices[steps], vertices[steps + 1])[0]
        inside = ((points >= self.lo) & (points <= self.hi)).all(axis=2)
        # cut[0][i, j] marks the edge (i, j)-(i+1, j), cut[1][i, j] the edge
        # (i, j)-(i, j+1), in box coordinates
        cut = [
            np.zeros((shape[0] - 1, shape[1]), dtype=np.int64),
            np.zeros((shape[0], shape[1] - 1), dtype=np.int64),
        ]
        edges = points[inside.all(axis=1)]
        low = edges.min(axis=1) - self.lo
        across = edges[:, 0, 0] != edges[:, 1, 0]
        cut[0][tuple(low[across].T)] = 1
        cut[1][tuple(low[~across].T)] = 1
        # the in-box points in step order, left (side 1) before right (side 0)
        seeds, sides = points[inside], np.broadcast_to([1, 0], inside.shape)[inside]
        if not len(seeds):
            raise ValidationError("path does not meet the labeling box")
        first, which = group_sites(seeds)
        conflict = np.flatnonzero(sides != sides[first][which])
        if conflict.size:
            raise ValidationError(f"conflicting side labels at {tuple(seeds[conflict[0]].tolist())}")
        i0, j0 = (seeds[0] - self.lo).tolist()
        column = np.concatenate([[0], np.cumsum(cut[1][i0])])
        rows = np.concatenate([np.zeros((1, shape[1]), dtype=np.int64), np.cumsum(cut[0], axis=0)])
        labels = (sides[0] + column - column[j0] + rows - rows[i0]) % 2
        seeds, sides = seeds[first], sides[first]
        wrong = np.flatnonzero(labels[tuple((seeds - self.lo).T)] != sides)
        if wrong.size:
            raise ValidationError(f"inconsistent region labels at {tuple(seeds[wrong[0]].tolist())}")
        wrong = np.argwhere((labels[:, 1:] != labels[:, :-1]) != cut[1])
        if len(wrong):
            i, j = wrong[0].tolist()
            raise ValidationError(
                f"inconsistent region labels at {(self.lo[0] + i, self.lo[1] + j + 1)}"
            )
        self._labels = labels

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
        return LatticeState(psi.n_internal, psi.site_array[inside], psi.value_array[inside])


# ---------------------------------------------------------------------------
# flux over cells


def cc_flux_window(scattering: SiteMap, path: DualPath) -> FluxWindow:
    """The ``FluxWindow`` of the network flux, on cells of Z x 2Z: a window
    over the path and the scattering features with a margin of 4, and tail
    bands of the scattering period."""
    (plo, phi_) = path.bounds()
    s_lo, s_hi = scattering.bounds()
    lo = [min(s_lo[0], plo[0]) - 4, min(s_lo[1], plo[1]) - 4]
    hi = [max(s_hi[0], phi_[0]) + 4, max(s_hi[1], phi_[1]) + 4]
    lo[1] -= lo[1] % 2
    hi[1] += hi[1] % 2
    return FluxWindow(lo, hi, [math.lcm(2, p) for p in scattering.periods()], [1, 2])


def points_box(window: FluxWindow):
    """The corners of the box of points whose region labels the cells that
    ``window`` enumerates read."""
    (x0, y0), (x1, y1), (bx, by) = window.lo, window.hi, window.bands
    return (x0 - 2 * bx - 3, y0 - 2 * by - 3), (x1 + 2 * bx + 4, y1 + 2 * by + 4)


class FluxPlan:
    """What the fluxes of one path share, owned by the CC analysis that builds
    them (across its draws, which share a window extent): the ``split``, one
    ``RegionSplit`` built over the ``points_box`` of the first flux's own
    window, and the selfcheck ``probes`` keyed by probe window and stack
    size.  A later flux may read the split beyond its box; clamping is exact
    there, since region labels are constant along outward directions beyond
    any box.  The split is the one projection of a stack of fluxes
    (``assemble_field``'s flux axis)."""

    def __init__(self):
        self.split, self.probes = None, {}


def cc_flux(fields: list, path: DualPath, tol: Tolerances = DEFAULT, plan: FluxPlan | None = None) -> list:
    """Blockwise fluxes of the left-region projection of a dual path under
    the networks of a list of scattering fields, assembled as one stack and
    checked against the operator on random states in one pass.

    Block at cell z in the incoming basis: conj(S) D_out S^T - D_in with the
    0/1 region memberships of the outgoing and incoming points on the
    diagonals (``flux.CellGeometry`` with matrix S^T).  A field's own window
    covers the path and its scattering features plus a margin of 4; the stack
    takes the smallest window covering them all (``FluxWindow.cover``).  The
    split and the probes come from ``plan``, a ``FluxPlan`` of ``path``, or a
    new one; both lie over the first field's own window.
    """
    unitaries, plan = [CCUnitary(field) for field in fields], plan or FluxPlan()
    windows = [cc_flux_window(unitary.scattering, path) for unitary in unitaries]
    window = reduce(FluxWindow.cover, windows)
    plan.split = plan.split or RegionSplit(path, *points_box(windows[0]))
    geometries = [CellGeometry(unitary, plan.split, window, 8, probe_window=windows[0]) for unitary in unitaries]
    fluxes = assemble_field(geometries, geometries[0].block, tol)
    selfcheck_against_operator(fluxes, plan.probes)
    return fluxes


def cc_index(scattering: SiteMap, path: DualPath, tol: Tolerances = DEFAULT, plan: FluxPlan | None = None):
    """``(report, flux)``: the self-checked network flux and its ``analyze``
    report, whose kernel count the cell rank formula has matched exactly."""
    flux = cc_flux([scattering], path, tol, plan)[0]
    return analyze(flux), flux


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

    ``replacement`` must start at middle[t_from] and end at middle[t_to].
    When ``require_tag`` is given, every replaced link must carry that weight
    tag; a wrong endpoint parity surfaces here as a tag violation.
    """
    if not 0 <= t_from < t_to <= path.m_last:
        raise ValidationError("surgery endpoints must lie in the explicit middle")
    replacement = [tuple(v) for v in replacement]
    if replacement[0] != path.middle[t_from] or replacement[-1] != path.middle[t_to]:
        raise ValidationError("replacement does not match the surgery endpoints")
    if require_tag is not None:
        vertices = np.array(replacement, dtype=np.int64)
        tags = classify_steps(vertices[:-1], vertices[1:])[3]
        wrong = np.flatnonzero(tags != require_tag)
        if wrong.size:
            i = wrong[0]
            raise ValidationError(
                f"replacement step {replacement[i]} -> {replacement[i + 1]} carries tag {tags[i]}, "
                f"needs {require_tag}"
            )
    middle = list(path.middle[: t_from]) + replacement + list(path.middle[t_to + 1 :])
    return DualPath(middle, path.pre_dir, path.post_dir)


def random_bump(path: DualPath, rng, t_lo: int, t_hi: int):
    """Insert a parity-correct 2-column detour over a straight run between
    steps t_lo and t_hi: (new path, region difference rank 4), or None."""
    t0, t1 = max(1, t_lo), min(path.m_last - 3, t_hi)
    if t1 <= t0:
        return None
    v = path.vertices(t0, t1 + 2)
    a, c = v[:-2], v[2:]
    straight = (v[1:-1, 1] == a[:, 1]) & (c[:, 1] == a[:, 1]) & (np.abs(c[:, 0] - a[:, 0]) == 2)
    # vertical detour links sit on columns a[0] and c[0]; their tag parity
    # must match the straight run's tag
    tags = path.crossings(t0, t1)[1]
    candidates = np.flatnonzero(straight & (tags == np.where(a[:, 0] % 2 != 0, "r", "t")))
    if not candidates.size:
        return None
    k = int(candidates[int(rng.integers(len(candidates)))])
    a, b, c = map(tuple, v[k : k + 3].tolist())
    t, tag = t0 + k, str(tags[k])
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


def region_difference_rank(split_a: RegionSplit, path_b: DualPath) -> int:
    """Rank of the difference of the region projections of ``split_a``'s
    path and ``path_b``, split over the box ``split_a`` was asked for: the
    size of the symmetric difference of the left regions, each read inside
    its split's box, over the union of the two boxes."""
    splits = [split_a, RegionSplit(path_b, *split_a.box)]
    lo = np.minimum(splits[0].lo, splits[1].lo)
    points = lo + np.argwhere(np.ones(np.maximum(splits[0].hi, splits[1].hi) - lo + 1, dtype=bool))
    # each split's left region, read inside its own box
    inside = [
        ((points >= s.lo) & (points <= s.hi)).all(axis=1) & (s.diagonal_entries(points, None) > 0) for s in splits
    ]
    diff = points[inside[0] ^ inside[1]]
    if ((diff <= np.add(split_a.box[0], 2)) | (diff >= np.subtract(split_a.box[1], 2))).any():
        raise ValidationError("region difference reaches the box boundary")
    return len(diff)


# ---------------------------------------------------------------------------
# anomalous transport family


def _deep_cell_ray(path: DualPath, ts: list[int]) -> tuple[Site, Site]:
    """Arithmetic progression of cells along a ray, from deep step samples."""
    cells, _ = path.crossings(min(ts), max(ts) + 1)
    cells = cells[np.subtract(ts, min(ts))]
    cells = cells[np.r_[True, (cells[1:] != cells[:-1]).any(axis=1)]]
    if len(cells) < 3:
        raise ValidationError("not enough distinct deep cells to fit a ray")
    steps = np.diff(cells, axis=0)
    if (steps != steps[0]).any():
        raise ValidationError("deep cells are not an arithmetic progression")
    return tuple(cells[0].tolist()), tuple(steps[0].tolist())


def anomalous_transport(
    scattering: SiteMap,
    path: DualPath,
    epsilons,
    tol: Tolerances = DEFAULT,
    plan: FluxPlan | None = None,
) -> dict:
    """Trace of the flux after capping both rays: full transmission far on
    the r side, full reflection far on the t side.

    Each capped flux has finitely many nonzero blocks, so its plain trace is
    defined, and it must equal the integer index of the uncapped flux.  Every
    epsilon is checked before any assembly.  The capped fields take one cap
    reach, the largest epsilon's, from the uncapped field's own window, so
    one ``cc_flux`` stack on one window holds the uncapped flux (the index)
    and the capped ones (the traces); a spec whose epsilons differ widely
    pays for every capped flux on the widest window (the default list's own
    reaches are 32, 32 and 36).  All fluxes share ``plan`` (or a new one).
    """
    plan = plan or FluxPlan()
    t0, t1 = path.switch_window()
    cuts = []
    for eps in epsilons:
        if not EPSILON_LEAST <= eps <= 1.0:
            raise ValidationError(f"epsilon {eps} out of range")
        cuts.append(cut := math.ceil(1.0 / eps))
        if not path.is_pure(-cut - 40, t0, "r") or not path.is_pure(t1, cut + 40, "t"):
            raise ValidationError(
                f"path is not r-pure left and t-pure right of the 1/eps={cut} cutoffs"
            )
    own = cc_flux_window(scattering, path)
    reach = max(*cuts, own.radius) + 4 * max(own.bands) + 12
    # seamless continuation: the cell rays start at the outermost window
    # cells and run outward
    r_base, r_inward = _deep_cell_ray(path, list(range(-reach, -reach + 9)))
    t_base, t_inward = _deep_cell_ray(path, list(range(reach - 1, reach - 10, -1)))
    rays = [
        (Ray(r_base, tuple(-c for c in r_inward)), [FULL_TRANSMISSION]),
        (Ray(t_base, tuple(-c for c in t_inward)), [FULL_REFLECTION]),
    ]
    caps, capped = np.array([tuple(FULL_TRANSMISSION), tuple(FULL_REFLECTION)], dtype=complex), []
    for cut in cuts:
        cells = path.crossings(-reach, -cut)[0], path.crossings(cut, reach)[0]
        window = np.concatenate(cells), caps.repeat([len(c) for c in cells], axis=0)
        capped.append(scattering.overridden(window=window, rays=rays))
    uncapped, *fluxes = cc_flux([scattering, *capped], path, tol, plan)
    report = analyze(uncapped)
    if not all(flux_eps.tail_zero for flux_eps in fluxes):
        raise ValidationError("capped flux still has nonzero tail blocks")
    traces = [(float(eps), complex(index_by_odd_trace(flux_eps, 0))) for eps, flux_eps in zip(epsilons, fluxes)]
    return {"index": report.index, "traces": traces}
