"""Strictly local unitaries applied lazily and exactly to finite states.

All operators couple nearest neighbours only, so evolving a finitely
supported state is exact: the support grows by at most one site per step and
no truncation ever happens.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .fields import SiteMap
from .lattice import LatticeState, all_direction_vectors, scatter_rows


class LocalUnitary:
    """Base class: a unitary with band width one in lattice distance on Z^d."""

    d: int
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
        if len(psi.value_array) and psi.site_array.shape[1] != self.d:
            raise DimensionMismatchError(
                f"state has sites in Z^{psi.site_array.shape[1]}, operator acts on Z^{self.d}"
            )


class CoinedWalk(LocalUnitary):
    """One step of a coined walk: site-dependent coin, then conditional shift.

    Acting on a state, the coin reshuffles the internal slots at each site and
    the slot-k component then moves one site along direction k.  The coin
    values are taken as given; ``walks.build_walk`` checks them.

    The cells of ``flux.CellGeometry`` are the sites (``cell_labels``
    returns its input): the coin at x maps every slot of x onto slot k of
    x + dir_k.  ``cells`` stacks the coins of a label array through one
    ``coin.distinct_values`` lookup.  ``apply`` and ``apply_adjoint`` act on
    states of a few sites, where one ``coin.value`` call per site (``coins``)
    is cheaper than an array lookup.
    """

    def __init__(self, coin: SiteMap):
        self.coin = coin
        self.d = coin.d
        self.n_internal = 2 * coin.d
        self._slot_array = np.arange(self.n_internal)
        self._step_array = np.array(all_direction_vectors(coin.d), dtype=np.int64)

    def cell_labels(self, sites: np.ndarray) -> np.ndarray:
        return sites

    def coins(self, sites) -> np.ndarray:
        """(S, n, n) stack of the coins at S site tuples."""
        return np.array([self.coin.value(x) for x in sites], dtype=complex)

    def in_basis(self, labels: np.ndarray):
        labels = np.asarray(labels, dtype=np.int64)
        return np.repeat(labels[:, None, :], self.n_internal, axis=1), self._slot_array

    def cells(self, labels: np.ndarray):
        labels = np.asarray(labels, dtype=np.int64)
        outs = labels[:, None, :] + self._step_array
        coins, which = self.coin.distinct_values(labels)
        return np.array(coins, dtype=complex)[which], self.in_basis(labels), (outs, self._slot_array)

    def apply(self, psi: LatticeState) -> LatticeState:
        """Coin every site in one stacked product, then scatter slot k of
        each image one step along direction k."""
        self._check(psi)
        if not len(psi.value_array):
            return psi
        images = self.coins(psi.site_list()) @ psi.value_array[:, :, None]
        targets = psi.site_array[:, None, :] + self._step_array
        return LatticeState.scatter(self.n_internal, (targets, self._slot_array), images)

    def apply_adjoint(self, psi: LatticeState) -> LatticeState:
        """Gather slot k of each site from one step back along direction k,
        then apply every adjoint coin in one stacked product."""
        self._check(psi)
        if not len(psi.value_array):
            return psi
        sources = psi.site_array[:, None, :] - self._step_array
        sites, gathered = scatter_rows(self.n_internal, (sources, self._slot_array), psi.value_array)
        adjoints = self.coins(map(tuple, sites.tolist())).conj().transpose(0, 2, 1)
        return LatticeState(self.n_internal, (sites, (adjoints @ gathered[:, :, None])[:, :, 0]), _take=True)


def identity_coin(d: int) -> SiteMap:
    return SiteMap(d, background=np.eye(2 * d, dtype=complex))


def conditional_shift(d: int) -> CoinedWalk:
    """The bare conditional shift (identity coin)."""
    return CoinedWalk(identity_coin(d))


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
