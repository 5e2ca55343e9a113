"""Integer-lattice geometry, internal directions, and finitely supported states.

Sites are plain integer tuples.  The internal space of a coined walk in
dimension ``d`` has ``2d`` slots; slot ``2(j-1)`` is the direction ``+e_j``
and slot ``2(j-1)+1`` is ``-e_j`` (1-based axis ``j``).

A ``LatticeState`` packs its support into two arrays, an (S, d) site array
and an (S, n) value array, so that operators act on all sites at once: they
gather rows, multiply stacked matrices and build the image with
``LatticeState.scatter`` or from a new pair of arrays.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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


def index_of_vector(step: Site) -> int:
    """Internal slot of a unit lattice step."""
    nz = [(i, c) for i, c in enumerate(step) if c != 0]
    if len(nz) != 1 or abs(nz[0][1]) != 1:
        raise ValueError(f"{step!r} is not a unit lattice direction")
    axis, sign = nz[0]
    return direction_index(axis + 1, sign)


def add(a: Site, b: Site) -> Site:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Site, b: Site) -> Site:
    return tuple(x - y for x, y in zip(a, b))


# Below this many entries a dict of site tuples groups sites faster than a
# sort of row keys does (about 64 on 2 cores with NumPy 2.4).
DICT_GROUPING = 64
# the grouping of a single entry, shared: callers only read what they get
_SINGLE = np.zeros(1, dtype=np.intp)


def group_sites(sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (E, d) integer site array in order of first
    appearance: the entry index where each distinct site first appears, and
    for every entry the number of its distinct site.

    Short arrays go through a dict of site tuples.  Longer ones are sorted
    by the raw bytes of each row, a key that distinct sites never share,
    however far out they lie."""
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
    keys = sites.view(np.dtype((np.void, 8 * sites.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def scatter_rows(n_internal: int, basis, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The site and value arrays of ``LatticeState.scatter``."""
    sites, slots = basis
    amps = amps.ravel()
    live = amps.nonzero()[0]
    points = sites.reshape(-1, sites.shape[-1]).take(live, axis=0)
    first, rows = group_sites(points)
    values = np.zeros((len(first), n_internal), dtype=complex)
    np.add.at(values, (rows, slots.take(live % len(slots))), amps.take(live))
    return points.take(first, axis=0), values


class LatticeState:
    """Finitely supported vector over the (site, internal slot) basis.

    Packed layout: ``site_array`` is an (S, d) int64 array of distinct sites
    and ``value_array`` an (S, n) complex array whose row i is the vector at
    site ``site_array[i]``.  Rows keep first-insertion order, never sorted:
    the order of the mapping or arrays handed in, and for ``a + b`` the rows
    of ``a`` followed by the sites new in ``b``, in ``b``'s order.  Exactly
    zero rows are dropped on construction (one reduction over the rows);
    anything else is kept, so supports stay exact for orthogonality checks.
    Treated as an immutable value: every operation returns a new state, and
    states may share arrays, which nothing writes to.

    Sites are matched through a dict from site tuple to row, built once per
    state on first use and kept, as is the list of site tuples.

    Exactness: every result is bitwise the one of the per-site loop over a
    dict of site vectors that this layout replaced.  Elementwise arithmetic
    runs on whole arrays, which NumPy evaluates entry by entry exactly as on
    single rows.  A vectorised dot product rounds differently from the BLAS
    ``np.vdot``, so ``inner`` and ``norm`` keep one ``np.vdot`` per matched
    row, summed in row order.
    """

    __slots__ = ("n_internal", "site_array", "value_array", "_sites", "_rows")

    def __init__(self, n_internal: int, entries=None, _take=False):
        """``entries`` maps sites to length-``n_internal`` vectors, or is a
        pair ``(sites, values)`` of an (S, d) integer and an (S, n) complex
        array with distinct sites; ``_take`` hands the pair's arrays over
        without copying."""
        n = self.n_internal = int(n_internal)
        if isinstance(entries, tuple):
            sites, values = entries
            if not _take:
                sites, values = np.array(sites, dtype=np.int64), np.array(values, dtype=complex)
            if values.shape != (len(sites), n):
                raise DimensionMismatchError(
                    f"site vectors have shape {values.shape}, expected ({len(sites)}, {n})"
                )
        elif entries:
            vectors = [np.asarray(v, dtype=complex) for v in entries.values()]
            for site, vec in zip(entries, vectors):
                if vec.shape != (n,):
                    raise DimensionMismatchError(
                        f"site vector at {site!r} has shape {vec.shape}, expected ({n},)"
                    )
            if len({len(site) for site in entries}) > 1:
                raise DimensionMismatchError("sites of different dimensions in one state")
            sites = np.array(list(entries), dtype=np.int64).reshape(len(vectors), -1)
            values = np.array(vectors)
        else:
            sites, values = np.zeros((0, 0), dtype=np.int64), np.zeros((0, n), dtype=complex)
        keep = np.logical_or.reduce(values, axis=1)
        if np.count_nonzero(keep) < len(keep):
            sites, values = sites[keep], values[keep]
        self.site_array = sites
        self.value_array = values
        self._sites = self._rows = None

    @classmethod
    def basis(cls, site: Site, slot: int, n_internal: int) -> "LatticeState":
        values = np.zeros((1, n_internal), dtype=complex)
        values[0, slot] = 1.0
        return cls(n_internal, (np.array([site], dtype=np.int64), values), _take=True)

    @classmethod
    def zero(cls, n_internal: int) -> "LatticeState":
        return cls(n_internal)

    @classmethod
    def scatter(cls, n_internal: int, basis, amps: np.ndarray) -> "LatticeState":
        """The state that adds amplitude ``amps[i, j]`` at slot ``slots[j]``
        of site ``sites[i, j]``, for a basis ``(sites, slots)`` laid out as
        in ``flux.CellGeometry`` ((N, k, d) and (k,) integer arrays).
        Amplitudes go into zeros one at a time in row-major order, as
        ``buf[slot] += amp`` does; zero amplitudes are skipped, so rows come
        in order of each site's first nonzero amplitude."""
        return cls(n_internal, scatter_rows(n_internal, basis, amps), _take=True)

    def with_values(self, values: np.ndarray) -> "LatticeState":
        """The state with the same sites and new (S, n) values; it shares
        this state's site index unless a row turned zero."""
        out = LatticeState(self.n_internal, (self.site_array, values), _take=True)
        if out.site_array is self.site_array:
            out._sites, out._rows = self._sites, self._rows
        return out

    def site_list(self) -> list[Site]:
        """The sites as tuples, in row order."""
        if self._sites is None:
            self._sites = list(map(tuple, self.site_array.tolist()))
        return self._sites

    def _row_index(self) -> dict:
        if self._rows is None:
            self._rows = {site: row for row, site in enumerate(self.site_list())}
        return self._rows

    def items(self) -> Iterator[tuple[Site, np.ndarray]]:
        return zip(self.site_list(), self.value_array)

    def sites(self) -> list[Site]:
        return sorted(self.site_list())

    def rows_of(self, sites: Iterable[Site]) -> np.ndarray:
        """Row of each site in this state, -1 where the state vanishes."""
        index = self._row_index()
        return np.array([index.get(site, -1) for site in sites], dtype=np.intp)

    def vector_at(self, site: Site) -> np.ndarray:
        row = self._row_index().get(tuple(site))
        if row is None:
            return np.zeros(self.n_internal, dtype=complex)
        return self.value_array[row].copy()

    def support_size(self) -> int:
        return len(self.value_array)

    def norm(self) -> float:
        return float(np.sqrt(sum(np.vdot(v, v).real for v in self.value_array)))

    def inner(self, other: "LatticeState") -> complex:
        """<self, other>, antilinear in self."""
        self._check(other)
        if len(other.value_array) < len(self.value_array):
            return np.conj(other.inner(self))
        index = other._row_index()
        a, b = self.value_array, other.value_array
        acc = 0.0 + 0.0j
        for i, site in enumerate(self.site_list()):
            j = index.get(site)
            if j is not None:
                acc += np.vdot(a[i], b[j])
        return complex(acc)

    def scaled(self, factor: complex) -> "LatticeState":
        if factor == 0:
            return LatticeState(self.n_internal)
        return self.with_values(factor * self.value_array)

    def _check(self, other: "LatticeState") -> None:
        if other.n_internal != self.n_internal:
            raise DimensionMismatchError("internal dimensions differ")
        if len(self.value_array) and len(other.value_array):
            if other.site_array.shape[1] != self.site_array.shape[1]:
                raise DimensionMismatchError("site dimensions differ")

    def __add__(self, other: "LatticeState") -> "LatticeState":
        self._check(other)
        if not len(other.value_array):
            return self
        if not len(self.value_array):
            return other
        index = self._row_index()
        mine, theirs, new = [], [], []
        for j, site in enumerate(other.site_list()):
            i = index.get(site)
            if i is None:
                new.append(j)
            else:
                mine.append(i)
                theirs.append(j)
        if not new:
            values = self.value_array.copy()
            values[mine] += other.value_array.take(theirs, axis=0)
            return self.with_values(values)
        values = np.concatenate([self.value_array, other.value_array.take(new, axis=0)])
        if mine:
            values[mine] += other.value_array.take(theirs, axis=0)
        sites = np.concatenate([self.site_array, other.site_array.take(new, axis=0)])
        return LatticeState(self.n_internal, (sites, values), _take=True)

    def __sub__(self, other: "LatticeState") -> "LatticeState":
        return self + other.scaled(-1.0)

    def normalized(self) -> "LatticeState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return self.scaled(1.0 / n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LatticeState(n_internal={self.n_internal}, support={self.support_size()})"


def random_state(rng: np.random.Generator, sites: Iterable[Site], n_internal: int) -> LatticeState:
    data = {}
    for site in sites:
        data[tuple(site)] = rng.standard_normal(n_internal) + 1j * rng.standard_normal(n_internal)
    return LatticeState(n_internal, data).normalized()


# ---------------------------------------------------------------------------
# small dense-matrix utilities


def haar_unitaries(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, n, n) Haar-random unitaries, drawn from ``rng`` in the order
    of ``count`` ``haar_unitary`` calls and equal to them bit for bit."""
    g = rng.standard_normal((count, 2, n, n))
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


def trace_norm_hermitian(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
