"""Per-site reference models for the packed ``LatticeState``, the batched
actions that consume it and the array cell protocol of ``flux.CellGeometry``.

``DictState`` is the dict-of-site-vectors state that ``fluxwalk.lattice``
used before the packed layout, and the functions below are the per-site
loops that the walk, projection, network and cell actions ran on it.  The
tests compare the packed results against them bit for bit, row order
included.  The cell references describe one cell, or one site of a region,
at a time, from the model's fields and the scalar ``in_cell``/``out_cell``.
``random_phase_window`` is the per-cell draw loop that ``fluxwalk.cc``
ran before it drew every phase of a window in one call.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from fluxwalk.cc import CCUnitary, RegionSplit, ScatteringParams, in_cell, out_cell
from fluxwalk.errors import DimensionMismatchError
from fluxwalk.lattice import LatticeState, all_direction_vectors


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


def to_dict(psi: LatticeState) -> DictState:
    return DictState(psi.n_internal, {site: vec.copy() for site, vec in psi.items()}, _take=True)


def same_state(packed: LatticeState, ref: DictState) -> bool:
    """Same sites in the same row order, bitwise equal vectors."""
    got = [(site, vec.tobytes()) for site, vec in packed.items()]
    want = [(site, vec.tobytes()) for site, vec in ref.items()]
    return packed.n_internal == ref.n_internal and got == want


# ---------------------------------------------------------------------------
# one cell, one site


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
        matrix = unitary.scattering.value(label).matrix().T
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
        for target, weight in zip(targets(z), weights(unitary.scattering.value(z).matrix(), k)):
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
            for target, vec in image.items():
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
