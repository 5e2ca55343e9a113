"""Strictly local unitaries applied lazily and exactly to finite states.

All operators couple nearest neighbours only, so evolving a finitely
supported state is exact: the support grows by at most one site per step and
no truncation ever happens.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .fields import SiteMap
from .lattice import LatticeState, Site, all_direction_vectors, add, sub


class LocalUnitary:
    """Base class: a unitary with band width one in lattice distance."""

    n_internal: int

    def apply(self, psi: LatticeState) -> LatticeState:
        raise NotImplementedError

    def apply_adjoint(self, psi: LatticeState) -> LatticeState:
        raise NotImplementedError

    def _check(self, psi: LatticeState) -> None:
        if psi.n_internal != self.n_internal:
            raise DimensionMismatchError(
                f"state has internal dimension {psi.n_internal}, operator needs {self.n_internal}"
            )


class CoinedWalk(LocalUnitary):
    """One step of a coined walk: site-dependent coin, then conditional shift.

    Acting on a state, the coin reshuffles the internal slots at each site and
    the slot-k component then moves one site along direction k.  The coin
    values are taken as given; ``walks.build_walk`` checks them.

    The cells of ``flux.CellGeometry`` are the sites: the coin at x maps
    every slot of x onto slot k of x + dir_k.
    """

    def __init__(self, coin: SiteMap):
        self.coin = coin
        self.d = coin.d
        self.n_internal = 2 * coin.d
        self._dirs = all_direction_vectors(coin.d)
        self._all_slots = tuple(range(self.n_internal))
        self._out_slots = [(step, (k,)) for k, step in enumerate(self._dirs)]

    def cell_of(self, site: Site) -> Site:
        return site

    def cell(self, x: Site):
        outs = [(tuple(map(operator.add, x, step)), slot) for step, slot in self._out_slots]
        return self.coin.value(x), [(x, self._all_slots)], outs

    def apply(self, psi: LatticeState) -> LatticeState:
        self._check(psi)
        out: dict[Site, np.ndarray] = {}
        for site, vec in psi.items():
            w = self.coin.value(site) @ vec
            for k, amp in enumerate(w):
                if amp == 0:
                    continue
                target = add(site, self._dirs[k])
                buf = out.get(target)
                if buf is None:
                    buf = np.zeros(self.n_internal, dtype=complex)
                    out[target] = buf
                buf[k] += amp
        return LatticeState(self.n_internal, out, _take=True)

    def apply_adjoint(self, psi: LatticeState) -> LatticeState:
        self._check(psi)
        gathered: dict[Site, np.ndarray] = {}
        for site, vec in psi.items():
            for k, amp in enumerate(vec):
                if amp == 0:
                    continue
                source = sub(site, self._dirs[k])
                buf = gathered.get(source)
                if buf is None:
                    buf = np.zeros(self.n_internal, dtype=complex)
                    gathered[source] = buf
                buf[k] += amp
        out = {s: self.coin.value(s).conj().T @ v for s, v in gathered.items()}
        return LatticeState(self.n_internal, out, _take=True)


def identity_coin(d: int) -> SiteMap:
    return SiteMap(d, background=np.eye(2 * d, dtype=complex))


def conditional_shift(d: int) -> CoinedWalk:
    """The bare conditional shift (identity coin)."""
    return CoinedWalk(identity_coin(d))


class BandUnitary(LocalUnitary):
    """Explicit band-width-1 operator given by its nonzero couplings.

    ``entries`` maps (target_site, source_site) to an internal block; sites
    not mentioned as a source act as the identity.  Meant for small test
    constructions; unitarity is the caller's responsibility.
    """

    def __init__(self, n_internal: int, entries: dict):
        self.n_internal = n_internal
        self._by_source: dict[Site, list[tuple[Site, np.ndarray]]] = {}
        self._by_target: dict[Site, list[tuple[Site, np.ndarray]]] = {}
        for (target, source), block in entries.items():
            target, source = tuple(target), tuple(source)
            if max(abs(a - b) for a, b in zip(target, source)) > 1:
                raise ValidationError(f"coupling {source}->{target} exceeds band width 1")
            m = np.asarray(block, dtype=complex)
            self._by_source.setdefault(source, []).append((target, m))
            self._by_target.setdefault(target, []).append((source, m))

    def apply(self, psi: LatticeState) -> LatticeState:
        self._check(psi)
        out: dict[Site, np.ndarray] = {}
        for site, vec in psi.items():
            couplings = self._by_source.get(site)
            if couplings is None:
                out.setdefault(site, np.zeros(self.n_internal, dtype=complex))
                out[site] += vec
                continue
            for target, block in couplings:
                out.setdefault(target, np.zeros(self.n_internal, dtype=complex))
                out[target] += block @ vec
        return LatticeState(self.n_internal, out, _take=True)

    def apply_adjoint(self, psi: LatticeState) -> LatticeState:
        self._check(psi)
        out: dict[Site, np.ndarray] = {}
        for site, vec in psi.items():
            couplings = self._by_target.get(site)
            if couplings is None:
                out.setdefault(site, np.zeros(self.n_internal, dtype=complex))
                out[site] += vec
                continue
            for source, block in couplings:
                out.setdefault(source, np.zeros(self.n_internal, dtype=complex))
                out[source] += block.conj().T @ vec
        return LatticeState(self.n_internal, out, _take=True)


def compress(apply, sites, n: int) -> np.ndarray:
    """Dense matrix of the linear map ``apply`` on the span of ``sites``, each
    with ``n`` internal slots.

    Basis order is the order of ``sites``, then internal slot.  Images are
    taken of every basis vector; their parts leaving the sites are dropped.
    """
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


def matrix_on_window(u: LocalUnitary, sites) -> np.ndarray:
    """Compression of ``u`` to a finite site set as a dense matrix.

    Basis order is lexicographic in the site tuple, then internal slot.  The
    compression of a unitary is generally not unitary: couplings leaving the
    window are simply dropped.
    """
    sites = sorted(tuple(s) for s in sites)
    if not sites:
        raise ValidationError("window must be nonempty")
    return compress(u.apply, sites, u.n_internal)
