"""Strictly local unitaries applied lazily and exactly to finite states.

All operators couple nearest neighbours only, so evolving a finitely
supported state is exact: the support grows by at most one site per step and
no truncation ever happens.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .fields import SiteMap
from .lattice import SCALAR_LOOKUPS, LatticeState, all_direction_vectors, group_sites


class LocalUnitary:
    """Base class: a unitary with band width one in lattice distance on Z^d."""

    d: int
    n_internal: int

    def apply(self, psi: LatticeState) -> LatticeState:
        raise NotImplementedError

    def apply_adjoint(self, psi: LatticeState) -> LatticeState:
        raise NotImplementedError

    def coins(self, labels: np.ndarray) -> np.ndarray:
        """The table entries of an (S, d) label array, stacked: one
        ``table_rows`` lookup."""
        table, rows = self.table_rows(labels)
        return table.take(rows, axis=0)

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
    values are stacked once, as ``table``, which ``walks.build_walk`` checks.

    The cells of ``flux.CellGeometry`` are the sites (``cell_labels``
    returns its input): the coin at x maps every slot of x onto slot k of
    x + dir_k (``out_basis``).  ``table_rows`` gives ``table`` and each
    label's ``value_index`` row in it.  ``step`` is the one step
    core: ``apply`` and ``apply_adjoint`` run it on sites with ``coins``
    (one ``coin.value`` call per site on states of at most ``SCALAR_LOOKUPS``
    sites, where that is cheaper than an array lookup, one ``value_index``
    on longer ones), a shift check's ``shift.SiteFrame`` on its keys.
    """

    def __init__(self, coin: SiteMap):
        self.coin = coin
        self.d = coin.d
        self.n_internal = 2 * coin.d
        self.table = np.array(coin.table, dtype=complex)
        self._slot_array = np.arange(self.n_internal)
        self._step_array = np.array(all_direction_vectors(coin.d), dtype=np.int64)

    def cell_labels(self, sites: np.ndarray) -> np.ndarray:
        return sites

    def coins(self, sites: np.ndarray) -> np.ndarray:
        """(S, n, n) stack of the coins at an (S, d) site array: one
        ``coin.value`` per site up to ``SCALAR_LOOKUPS`` sites, one
        ``value_index`` into ``table``."""
        if len(sites) > SCALAR_LOOKUPS:
            return super().coins(sites)
        return np.array([self.coin.value(x) for x in sites.tolist()], dtype=complex)

    def in_basis(self, labels: np.ndarray):
        labels = np.asarray(labels, dtype=np.int64)
        return np.repeat(labels[:, None, :], self.n_internal, axis=1), self._slot_array

    def out_basis(self, labels: np.ndarray):
        return np.asarray(labels, dtype=np.int64)[:, None, :] + self._step_array, self._slot_array

    def table_rows(self, labels: np.ndarray):
        return self.table, self.coin.value_index(labels)

    def apply(self, psi: LatticeState) -> LatticeState:
        """Coin every site in one stacked product, then move slot k of each
        image one step along direction k."""
        self._check(psi)
        return self.step(psi, False, self.coins, self._step_array)

    def apply_adjoint(self, psi: LatticeState) -> LatticeState:
        """Gather slot k of each site from one step back along direction k,
        then apply every adjoint coin in one stacked product."""
        self._check(psi)
        return self.step(psi, True, self.coins, self._step_array)

    def step(self, psi: LatticeState, adjoint: bool, coins, moves: np.ndarray) -> LatticeState:
        """``apply``, or ``apply_adjoint``, of a state whose sites move by
        ``moves[k]`` along direction k, with the (S, n, n) coin stack of an
        (S, ...) site array from ``coins``.  Every (target, slot) pair takes
        one amplitude, written into zeros and then added to 0.0, which gives
        the bits of adding it."""
        if not len(psi.value_array):
            return psi
        sites, values = psi.site_array, psi.value_array
        if not adjoint:
            values = coins(sites) @ values
        flat = values.reshape(-1, values.shape[2])
        live = np.logical_or.reduce(flat, axis=1).nonzero()[0]
        targets = sites[:, None, :] - moves if adjoint else sites[:, None, :] + moves
        targets = targets.reshape(-1, sites.shape[1]).take(live, axis=0)
        first, rows = group_sites(targets)
        out = np.zeros((len(first), self.n_internal, flat.shape[1]), dtype=complex)
        out[rows, live % self.n_internal] = flat.take(live, axis=0)
        out += 0.0
        sites = targets.take(first, axis=0)
        if adjoint:
            out = coins(sites).conj().transpose(0, 2, 1) @ out
        return LatticeState(self.n_internal, sites, out)

    def frame_step(self, frame, psi: LatticeState, adjoint: bool) -> LatticeState:
        """``step`` on the (S, 1) keys of a ``shift.SiteFrame``, by its key
        offsets and with its coins."""
        return self.step(psi, adjoint, frame.coins, frame.steps)


def compress(apply, sites, n: int) -> np.ndarray:
    """Dense matrix of the linear map ``apply`` on the span of ``sites``, each
    with ``n`` internal slots.

    Basis order is the order of ``sites``, then internal slot.  Every basis
    vector goes through ``apply`` as a column of one stacked state; the parts
    of their images leaving the sites are dropped.
    """
    unit = np.eye(len(sites) * n, dtype=complex).reshape(len(sites), n, -1)
    basis = LatticeState(n, np.array(sites, dtype=np.int64), unit)
    image = apply(basis)
    rows = basis.rows_of(image.site_array)
    hit = rows >= 0
    m = np.zeros_like(unit)
    m[rows[hit]] = image.value_array[hit]
    return m.reshape(len(sites) * n, -1)


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
