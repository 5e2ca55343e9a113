"""Integer-lattice geometry, internal directions, and finitely supported states.

Sites are plain integer tuples.  The internal space of a coined walk in
dimension ``d`` has ``2d`` slots; slot ``2(j-1)`` is the direction ``+e_j``
and slot ``2(j-1)+1`` is ``-e_j`` (1-based axis ``j``).
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


class LatticeState:
    """Finitely supported vector over the (site, internal slot) basis.

    Treated as an immutable value: every operation returns a new state.
    Exactly-zero site vectors are dropped on construction; anything else is
    kept, so supports stay exact for orthogonality checks.
    """

    __slots__ = ("n_internal", "_data")

    def __init__(self, n_internal: int, entries=None, _take=False):
        self.n_internal = int(n_internal)
        data: dict[Site, np.ndarray] = {}
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

    @classmethod
    def basis(cls, site: Site, slot: int, n_internal: int) -> "LatticeState":
        vec = np.zeros(n_internal, dtype=complex)
        vec[slot] = 1.0
        return cls(n_internal, {tuple(site): vec}, _take=True)

    @classmethod
    def zero(cls, n_internal: int) -> "LatticeState":
        return cls(n_internal)

    def items(self) -> Iterator[tuple[Site, np.ndarray]]:
        return iter(self._data.items())

    def sites(self) -> list[Site]:
        return sorted(self._data)

    def vector_at(self, site: Site) -> np.ndarray:
        vec = self._data.get(tuple(site))
        if vec is None:
            return np.zeros(self.n_internal, dtype=complex)
        return vec.copy()

    def support_size(self) -> int:
        return len(self._data)

    def norm(self) -> float:
        return float(np.sqrt(sum(np.vdot(v, v).real for v in self._data.values())))

    def inner(self, other: "LatticeState") -> complex:
        """<self, other>, antilinear in self."""
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

    def scaled(self, factor: complex) -> "LatticeState":
        if factor == 0:
            return LatticeState(self.n_internal)
        return LatticeState(
            self.n_internal,
            {s: factor * v for s, v in self._data.items()},
            _take=True,
        )

    def __add__(self, other: "LatticeState") -> "LatticeState":
        if other.n_internal != self.n_internal:
            raise DimensionMismatchError("internal dimensions differ")
        data = {s: v.copy() for s, v in self._data.items()}
        for site, vec in other._data.items():
            if site in data:
                data[site] = data[site] + vec
            else:
                data[site] = vec.copy()
        return LatticeState(self.n_internal, data, _take=True)

    def __sub__(self, other: "LatticeState") -> "LatticeState":
        return self + other.scaled(-1.0)

    def normalized(self) -> "LatticeState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return self.scaled(1.0 / n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LatticeState(n_internal={self.n_internal}, support={len(self._data)})"


def random_state(rng: np.random.Generator, sites: Iterable[Site], n_internal: int) -> LatticeState:
    data = {}
    for site in sites:
        data[tuple(site)] = rng.standard_normal(n_internal) + 1j * rng.standard_normal(n_internal)
    return LatticeState(n_internal, data).normalized()


# ---------------------------------------------------------------------------
# small dense-matrix utilities


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    n = m.shape[0]
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(n))) <= tol)


def trace_norm_hermitian(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
