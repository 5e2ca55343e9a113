"""Integer-lattice geometry, internal directions, and finitely supported states.

Sites are plain integer tuples.  The internal space of a coined walk in
dimension ``d`` has ``2d`` slots; slot ``2(j-1)`` is the direction ``+e_j``
and slot ``2(j-1)+1`` is ``-e_j`` (1-based axis ``j``).

A ``LatticeState`` is its two arrays, an (S, d) site array and an (S, n, K)
value array that holds K vectors side by side as columns on one site index,
and it is built from that pair alone.  Operators act on all sites and all
columns at once: they gather rows, multiply stacked matrices and build the
image with ``LatticeState.scatter`` or from a new pair of arrays.  K = 1 is a
single vector; ``LatticeState.zero`` and ``basis`` give the empty and the
one-slot state, ``LatticeState.stack`` puts single vectors side by side, and
``gram`` takes every inner product of two stacks in one product.

Every question of which row holds a site -- of a state, of a field's window,
of the labels of a flux box -- goes through ``SiteIndex``, and every
deduplication of a site array through ``group_sites``.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

import numpy as np

from .errors import DimensionMismatchError

Site = tuple


def direction_index(axis: int, sign: int) -> int:
    """Internal slot of the classical direction ``sign * e_axis`` (1-based axis)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if axis < 1:
        raise ValueError(f"axis must be >= 1, got {axis}")
    return 2 * (axis - 1) + (0 if sign == 1 else 1)


def direction_vector(index: int, d: int) -> Site:
    axis, parity = divmod(index, 2)
    if not 0 <= axis < d:
        raise ValueError(f"direction index {index} out of range for d={d}")
    v = [0] * d
    v[axis] = 1 if parity == 0 else -1
    return tuple(v)


def all_direction_vectors(d: int) -> tuple[Site, ...]:
    return tuple(direction_vector(k, d) for k in range(2 * d))


# the slot of every unit step looked up so far: a lead looks one up per site
_SLOTS: dict[Site, int] = {}


def index_of_vector(step: Site) -> int:
    """Internal slot of a unit lattice step."""
    step = tuple(step)
    slot = _SLOTS.get(step)
    if slot is None:
        nz = [(i, c) for i, c in enumerate(step) if c != 0]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            raise ValueError(f"{step!r} is not a unit lattice direction")
        axis, sign = nz[0]
        slot = _SLOTS[step] = direction_index(axis + 1, sign)
    return slot


def add(a: Site, b: Site) -> Site:
    return tuple(map(operator.add, a, b))


def sub(a: Site, b: Site) -> Site:
    return tuple(map(operator.sub, a, b))


# Up to DICT_GROUPING sites a dict of site tuples beats an array pass in ``group_sites`` and
# ``SiteIndex``; up to SCALAR_LOOKUPS sites ``SiteMap.value`` per site in ``CoinedWalk.coins`` and
# ``open_slots`` in ``AdaptedProjection.apply`` beat ``value_index`` + take and ``slot_bits``.  Per
# call (us, median of 3 processes of best of 5, 2 cores, NumPy 2.4, a lead-network coin: 64-site window, 3 rays):
#   sites   value loop   value_index   open_slots   slot_bits   group_sites dict   array   SiteIndex dict   grid
#       1          2.3            36          4.0          44                0.1     0.1              2.0     12
#      16           28            44           52          53                5.6      15              7.2     15
#      24           40            46           72          52                7.1      14              9.3     15
#      32           55            46          101          54                8.8      15               11     15
#      64          101            54          191          62                 16      15               21     15
DICT_GROUPING = 64
SCALAR_LOOKUPS = 24
# no ``SiteIndex`` or ``group_sites`` grid covers more sites than this and
# eight per table row or entry: filling and reading a grid of this many
# cells costs about as much as sorting the bytes of 65 two-coordinate sites
GRID_CELLS = 1 << 16
# the grouping of a single entry, shared: callers only read what they get
_SINGLE = np.zeros(1, dtype=np.intp)
# rows per product in ``LatticeState.gram``, which bounds its conjugated copy
GRAM_ROWS = 1024


def _box(coords: np.ndarray, border: int, cells: int):
    """``(low, shape)`` of the bounding box of a (d, N) int64 coordinate
    array grown by ``border`` sites on every side, or ``None`` when it holds
    more than ``cells`` sites, is empty, or reaches 2**62 from the origin.
    Short of that, an int64 site minus ``low`` that wraps around lands
    outside the box."""
    if not coords.size:
        return None
    low, high = coords.min(axis=1), coords.max(axis=1)
    lo, hi = low.tolist(), high.tolist()
    if min(lo) <= -(1 << 62) or max(hi) >= 1 << 62:
        return None
    shape = [h - l + 2 * border + 1 for l, h in zip(lo, hi)]
    return (low - border, shape) if math.prod(shape) <= cells else None


def group_sites(sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (E, d) integer site array in order of first
    appearance: the entry index where each distinct site first appears, and
    for every entry the number of its distinct site.

    Short arrays go through a dict of site tuples.  Longer ones find the
    first entry of each entry's site, on a grid over the box when the
    bounding box holds at most ``GRID_CELLS`` sites or eight per entry, and
    otherwise by sorting the raw bytes of each row, a key that distinct
    sites never share, however far out they lie; the entries that are their
    own first open the rows, in entry order."""
    if len(sites) == 1:
        return _SINGLE, _SINGLE
    if len(sites) <= DICT_GROUPING:
        index: dict[Site, int] = {}
        first, rows = [], []
        for e, site in enumerate(map(tuple, sites.tolist())):
            row = index.get(site)
            if row is None:
                row = index[site] = len(first)
                first.append(e)
            rows.append(row)
        return np.array(first, dtype=np.intp), np.array(rows, dtype=np.intp)
    sites = np.ascontiguousarray(sites, dtype=np.int64)
    coords = np.ascontiguousarray(sites.T)
    box = _box(coords, 0, max(GRID_CELLS, 8 * len(sites)))
    order = np.arange(len(sites))
    if box is None:
        keys = sites.view(np.dtype((np.void, 8 * sites.shape[1])))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        first = first[inverse]
        opens = first == order
        return np.flatnonzero(opens), (np.cumsum(opens) - 1)[first]
    low, shape = box
    keys = np.ravel_multi_index(coords - low[:, None], shape)
    grid = np.full(math.prod(shape), len(sites), dtype=np.intp)
    np.minimum.at(grid, keys, order)
    opens = (grid[keys] == order).nonzero()[0]
    grid[keys.take(opens)] = np.arange(len(opens))
    return opens, grid[keys]


class SiteIndex:
    """The row of every site of an (N, d) int64 table of distinct sites:
    ``rows`` for an (M, d) array (-1 where absent), ``row`` for one site
    (``None``).  A query of more than ``DICT_GROUPING`` sites, or any query
    on a table of more than ``DICT_GROUPING`` sites whose dict (for ``row``,
    whose site tuples) is not built yet, reads a grid of rows over the
    table's bounding box with a one-site border, onto which clipping moves
    every site outside the box.  Other queries, and all queries on a sparse
    table (a bounding box of more than ``GRID_CELLS`` sites and more than
    eight per row) or on one reaching 2**62 from the origin, go through a
    dict of site tuples.  Each is built on first use (the tuples may be
    handed in), so short queries on a short table build no grid.

    Lookups come in three kinds.  Block assembly asks about thousands of
    sites at once against windows of a few to a hundred entries, where one
    grid pass beats a dict hit per site.  Walk steps on states of a site or
    two ask about as few, where a dict hit takes about a microsecond and
    the array passes tens.  A grown state of hundreds of sites meets a
    short one in ``+`` or ``gram``: building the grid then costs less than
    building the dict (8 sites against a new table of 65, 256 and 1 024
    sites: 18, 23 and 26 us through the grid, 13, 45 and 169 us through the
    dict).
    """

    __slots__ = ("table", "_sites", "_dict", "_grid")

    def __init__(self, table: np.ndarray, sites: list[Site] | None = None):
        self.table = table
        self._sites, self._dict, self._grid = sites, None, None

    @property
    def sites(self) -> list[Site]:
        """The table's sites as tuples, in row order."""
        if self._sites is None:
            self._sites = list(map(tuple, self.table.tolist()))
        return self._sites

    def _lookup(self) -> dict:
        if self._dict is None:
            self._dict = {site: i for i, site in enumerate(self.sites)}
        return self._dict

    def _dense(self):
        """``(low, grid)``: every table row on a grid over the bounding box
        with a one-site border, -1 elsewhere, whose lowest corner is ``low``;
        ``False`` for an empty or sparse table, or one reaching 2**62 from the
        origin."""
        if self._grid is None:
            coords = np.ascontiguousarray(self.table.T)
            box = _box(coords, 1, max(GRID_CELLS, 8 * len(self.table)))
            self._grid = False
            if box is not None:
                low, shape = box
                grid = np.full(shape, -1, dtype=np.intp)
                grid[tuple(coords - low[:, None])] = np.arange(len(self.table))
                self._grid = low, grid
        return self._grid

    def rows(self, sites: np.ndarray) -> np.ndarray:
        if not len(sites):
            return np.zeros(0, dtype=np.intp)
        long = len(sites) > DICT_GROUPING or (self._dict is None and len(self.table) > DICT_GROUPING)
        dense = long and self._dense()
        if not dense:
            lookup = self._lookup()
            return np.array([lookup.get(s, -1) for s in map(tuple, sites.tolist())], dtype=np.intp)
        # clipping moves every site outside the box onto its border
        low, grid = dense
        return grid.reshape(-1)[np.ravel_multi_index(tuple((sites - low).T), grid.shape, mode="clip")]

    def row(self, site) -> int | None:
        if self._sites is None and len(self.table) > DICT_GROUPING:
            row = self.rows(np.array([site], dtype=np.int64))[0]
            return int(row) if row >= 0 else None
        return (self._dict or self._lookup()).get(tuple(site))


class LatticeState:
    """Finitely supported vectors over the (site, internal slot) basis, K of
    them side by side as columns (K = 1 for a single vector).

    A state has one form, ``LatticeState(n, sites, values)``: ``site_array``
    is an (S, d) int64 array of distinct sites and ``value_array`` an
    (S, n, K) complex array, both kept as handed in; row i holds the K column
    vectors at ``site_array[i]``.  Rows keep first-insertion order: the order
    handed in, and for ``a + b`` the rows of ``a``, then the sites new in
    ``b`` in ``b``'s order.  Rows zero in every column are dropped on
    construction, so a row may be zero in some columns.  States are
    immutable values that may share arrays.  Sites are matched through a
    ``SiteIndex`` over ``site_array``, shared by states on the same sites
    (``with_values``) and built into a dict or grid on first use.
    ``inner`` and ``norm``, its square root on the state itself, read single vectors.

    Exactness: with K = 1 every result is bitwise the one of the per-site
    dict loop this layout replaced.  Elementwise arithmetic runs entry by
    entry, a one-column stacked product takes BLAS's matrix-vector path as
    the per-site product did, and ``inner`` keeps one ``np.vdot`` per row
    and refuses a state of several columns.  With K > 1 the elementwise steps
    and scatters give each column's bits, but a stacked product (and
    ``gram``, ``norms``) takes the matrix-matrix path and may round
    differently.  A map that is a single product, such as the unitary of
    ``operators.matrix_on_window``, keeps the bits of each basis column,
    whose entries are exact zeros and ones; a chain of products, such as
    U*PU - P in ``flux.dense_window_index``, may differ in its last bits.
    """

    __slots__ = ("n_internal", "site_array", "value_array", "_index")

    def __init__(self, n_internal: int, sites: np.ndarray, values: np.ndarray):
        n = self.n_internal = int(n_internal)
        if values.shape[:2] != (len(sites), n) or values.ndim != 3:
            raise DimensionMismatchError(
                f"site vectors have shape {values.shape}, expected ({len(sites)}, {n}, K)"
            )
        keep = np.logical_or.reduce(values, axis=(1, 2))
        if np.count_nonzero(keep) < len(keep):
            sites, values = sites[keep], values[keep]
        self.site_array = sites
        self.value_array = values
        self._index = SiteIndex(sites)

    @classmethod
    def basis(cls, site: Site, slot: int, n_internal: int) -> "LatticeState":
        values = np.zeros((1, n_internal, 1), dtype=complex)
        values[0, slot] = 1.0
        return cls(n_internal, np.array([site], dtype=np.int64), values)

    @classmethod
    def zero(cls, n_internal: int, columns: int = 1) -> "LatticeState":
        return cls(n_internal, np.zeros((0, 0), np.int64), np.zeros((0, n_internal, columns), complex))

    @classmethod
    def scatter(cls, n_internal: int, basis, amps: np.ndarray) -> "LatticeState":
        """The state that adds the K amplitudes ``amps[i, j]`` at slot
        ``slots[j]`` of site ``sites[i, j]``, for a basis ``(sites, slots)``
        laid out as in ``flux.CellGeometry`` ((N, k, d) and (k,) arrays).
        They go into zeros one at a time in row-major order, as ``buf[slot]
        += amp`` does; those zero in every column are skipped, so rows come
        in order of each site's first nonzero amplitude."""
        sites, slots = basis
        amps = amps.reshape(-1, amps.shape[-1])
        live = np.logical_or.reduce(amps, axis=1).nonzero()[0]
        points = sites.reshape(-1, sites.shape[-1]).take(live, axis=0)
        first, rows = group_sites(points)
        values = np.zeros((len(first), n_internal, amps.shape[1]), dtype=complex)
        np.add.at(values, (rows, slots.take(live % len(slots))), amps.take(live, axis=0))
        return cls(n_internal, points.take(first, axis=0), values)

    @classmethod
    def stack(cls, states) -> "LatticeState":
        """The columns of ``states``, in order, side by side on one shared
        site index whose rows come in order of first appearance."""
        states = list(states)
        n, width = states[0].n_internal, sum(s.n_columns for s in states)
        filled = [s for s in states if len(s.value_array)]
        if not filled:
            return cls.zero(n, width)
        sites = np.concatenate([s.site_array for s in filled])
        first, rows = group_sites(sites)
        values = np.zeros((len(first), n, width), dtype=complex)
        row = column = 0
        for s in states:
            values[rows[row : row + len(s.value_array)], :, column : column + s.n_columns] = s.value_array
            row, column = row + len(s.value_array), column + s.n_columns
        return cls(n, sites.take(first, axis=0), values)

    @property
    def n_columns(self) -> int:
        return self.value_array.shape[2]

    def with_values(self, values: np.ndarray) -> "LatticeState":
        """The state with the same sites and new (S, n, K) values; it shares
        this state's site index unless a row turned zero."""
        out = LatticeState(self.n_internal, self.site_array, values)
        if out.site_array is self.site_array:
            out._index = self._index
        return out

    def site_list(self) -> list[Site]:
        """The sites as tuples, in row order."""
        return self._index.sites

    def rows_of(self, sites: np.ndarray) -> np.ndarray:
        """Row of each site of an (M, d) integer array, -1 where the state vanishes."""
        return self._index.rows(sites)

    def support_size(self) -> int:
        return len(self.value_array)

    def norm(self) -> float:
        return float(np.sqrt(self.inner(self).real))

    def norms(self) -> np.ndarray:
        """The norm of every column, from one reduction."""
        values = self.value_array
        return np.linalg.norm(values.reshape(len(values) * self.n_internal, self.n_columns), axis=0)

    def inner(self, other: "LatticeState") -> complex:
        """<self, other> of two single vectors, antilinear in self."""
        if self.n_columns != 1:
            raise DimensionMismatchError(f"a single-vector reader on {self.n_columns} columns")
        self._check(other)
        if len(other.value_array) < len(self.value_array):
            return np.conj(other.inner(self))
        a, b = self.value_array, other.value_array
        acc = 0.0 + 0.0j
        for i, j in enumerate(other.rows_of(self.site_array).tolist()):
            if j >= 0:
                acc += np.vdot(a[i], b[j])
        return complex(acc)

    def gram(self, other: "LatticeState") -> np.ndarray:
        """The K x K' matrix of inner products <column i of self, column j
        of other>, antilinear in self: a product over the shared rows, taken
        ``GRAM_ROWS`` rows at a time so that the conjugated copy stays small."""
        self._check(other, columns=False)
        a, b = self.value_array, other.value_array
        if self.site_array is not other.site_array:
            rows = other.rows_of(self.site_array)
            hit = rows >= 0
            a, b = a[hit], b[rows[hit]]
        a, b = (x.reshape(len(x) * self.n_internal, x.shape[2]) for x in (a, b))
        out = np.zeros((a.shape[1], b.shape[1]), dtype=complex)
        for i in range(0, len(a), GRAM_ROWS):
            out += a[i : i + GRAM_ROWS].conj().T @ b[i : i + GRAM_ROWS]
        return out

    def combine(self, coeffs: np.ndarray) -> "LatticeState":
        """The state whose column j is the sum over i of ``coeffs[i, j]``
        times column i, on the same site index: one flat (S n, K) by (K, K')
        product with the bits of S stacked (n, K) products.  Those stay
        stacked for one slot per site, where they are vector products, and
        for K > 128, where a threaded OpenBLAS splits the flat one: both
        round differently."""
        values, (s, n, k) = self.value_array, self.value_array.shape
        if n == 1 or k > 128:
            return self.with_values(values @ coeffs)
        flat = values.reshape(s * n, k) @ coeffs
        return self.with_values(flat.reshape(s, n, flat.shape[1]))

    def scaled(self, factor: complex) -> "LatticeState":
        return self.with_values(factor * self.value_array)

    def _check(self, other: "LatticeState", columns: bool = True) -> None:
        if other.n_internal != self.n_internal:
            raise DimensionMismatchError("internal dimensions differ")
        if len(self.value_array) and len(other.value_array):
            if other.site_array.shape[1] != self.site_array.shape[1]:
                raise DimensionMismatchError("site dimensions differ")
            if columns and other.n_columns != self.n_columns:
                raise DimensionMismatchError("column counts differ")

    def __add__(self, other: "LatticeState") -> "LatticeState":
        self._check(other)
        if not len(other.value_array):
            return self
        if not len(self.value_array):
            return other
        rows = self.rows_of(other.site_array)
        new, theirs = (rows < 0).nonzero()[0], (rows >= 0).nonzero()[0]
        values = np.concatenate([self.value_array, other.value_array.take(new, axis=0)])
        values[rows.take(theirs)] += other.value_array.take(theirs, axis=0)
        if not len(new):
            return self.with_values(values)
        sites = np.concatenate([self.site_array, other.site_array.take(new, axis=0)])
        return LatticeState(self.n_internal, sites, values)

    def __sub__(self, other: "LatticeState") -> "LatticeState":
        return self + other.scaled(-1.0)

    def normalized(self) -> "LatticeState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return self.scaled(1.0 / n)


def random_state(rng: np.random.Generator, sites: Iterable[Site], n_internal: int) -> LatticeState:
    """A random unit state on ``sites``, in order of first appearance: one
    draw of each site's real, then imaginary parts; a repeated site keeps
    its last draw."""
    sites = np.array(list(sites), dtype=np.int64)
    draws = rng.standard_normal((len(sites), 2, n_internal))
    first, which = group_sites(sites)
    last = np.zeros(len(first), dtype=np.intp)
    np.maximum.at(last, which, np.arange(len(sites)))
    values = draws[last, 0] + 1j * draws[last, 1]
    return LatticeState(n_internal, sites[first], values[:, :, None]).normalized()


# ---------------------------------------------------------------------------
# small dense-matrix utilities


def haar_unitaries(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, n, n) Haar-random unitaries, drawn from ``rng`` in the order
    of ``count`` ``haar_unitary`` calls and equal to them bit for bit."""
    return haar_from_normals(rng.standard_normal((count, 2, n, n)))


def haar_from_normals(g: np.ndarray) -> np.ndarray:
    """(count, n, n) Haar-random unitaries from (count, 2, n, n) standard
    normal draws, each matrix's real parts, then its imaginary parts."""
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    phases = np.diagonal(r, axis1=1, axis2=2).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return haar_unitaries(rng, n, 1)[0]


def unitary_deviations(m: np.ndarray) -> np.ndarray:
    """max |M* M - 1| of every matrix M in an (..., n, n) stack."""
    products = np.swapaxes(m.conj(), -1, -2) @ m
    return np.abs(products - np.eye(m.shape[-1])).max(axis=(-2, -1))
