"""Constructive shift decomposition of a unitary with nonzero flux index.

Given (U, P) with flux of nonzero index n, a finite-rank-plus-small
perturbation of U admits an |n|-dimensional wandering subspace drawn from the
larger unit eigenspace of the flux: iterates of the perturbed unitary on that
subspace form an exact orthonormal shift family, while the rest commutes with
P.  Everything here is built block by block and verified by lazy evolution
within one ``SiteFrame`` per check, which reads the unitary's table rows
once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .flux import FluxField
from .lattice import GRID_CELLS, LatticeState, SiteIndex, all_direction_vectors

POLAR_GUARD = 1e-10  # least 1 - lambda^2 that the polar factor may divide by the root of
ZERO_MAP_BOUND = 1e-15  # largest entry of a block map that counts as zero up to rounding
PROBE_FLOOR = 1e-6  # least norm that a commutation probe may keep off the shift span
REMAINDER_SLACK = 1e-12  # rounding allowed above the remainder bound 3 phi_less


@dataclass
class KernelData:
    """Orthonormal bases of the two unit eigenspaces of the flux and the
    deterministic choice of wandering candidates.

    ``wandering`` holds |n| vectors from the larger kernel, ``paired`` the
    rest of it, and ``small`` the whole smaller kernel; ``paired[i]`` and
    ``small[i]`` are swapped by the perturbation.
    """

    ker_minus: list
    ker_plus: list
    wandering: list
    paired: list
    small: list
    index: int
    flipped: bool

    @property
    def multiplicity(self) -> int:
        return len(self.wandering)


def extract_kernels(flux: FluxField) -> KernelData:
    """Per-block unit eigenvectors of the flux, orthonormal by construction:
    the columns that ``flux.spectrum`` classified as +1 and -1.

    The -1 eigenspace must lie inside Ran P and the +1 eigenspace inside its
    complement; both inclusions are verified on every vector.
    """
    tol = flux.tol
    spectrum = flux.spectrum
    geometry, box = flux.geometry, flux.box
    ker_minus: list[LatticeState] = []
    ker_plus: list[LatticeState] = []
    unit = spectrum.plus | spectrum.minus
    # block by block, and eigh sorts a block's eigenvalues, so -1 columns first;
    # P e = e on the -1 eigenvectors and P e = 0 on the +1 eigenvectors
    for (b, i), minus in zip(np.argwhere(unit).tolist(), spectrum.minus[unit].tolist()):
        row, coords = flux.kept[b], flux.eigh.eigenvectors[b, :, i]
        kernel, p_e, sign, verb = (ker_minus, 1.0, "-1", "leaves") if minus else (ker_plus, 0.0, "+1", "meets")
        defect = float(np.linalg.norm(box.p_in[row] * coords - p_e * coords))
        if defect > tol.kernel_membership:
            raise ValidationError(f"{sign} eigenvector at {box.label(row)} {verb} Ran P by {defect:g}")
        kernel.append(geometry.make_state(box.index.table[row], coords))
    index = int(spectrum.plus.sum() - spectrum.minus.sum())
    flipped = index > 0
    big, small = (ker_plus, ker_minus) if flipped else (ker_minus, ker_plus)
    mult = abs(index)
    return KernelData(
        ker_minus=ker_minus,
        ker_plus=ker_plus,
        wandering=big[:mult],
        paired=big[mult:],
        small=small,
        index=index,
        flipped=flipped,
    )


class PerturbedUnitary:
    """U composed with a block rotation that turns the wandering candidates
    into an exact shift family.

    U is the flux's own unitary, ``flux.geometry.unitary``, and ``kernels``
    come from ``extract_kernels(flux)``.  The correction acts as the
    identity on the wandering vectors, swaps the paired kernel vectors with
    the smaller kernel, and applies the unitary part of the polar splitting
    of the P-diagonal compression of U on the rest of each block.  The
    nonzero block maps are kept as one (N, k, k) stack in the field's kept
    row order with a ``SiteIndex`` over their labels.  A shift check's
    ``SiteFrame`` applies U A, with the correction A = 1 + F + (U0 - 1)Q0
    applied term by term, F only when there are swapped pairs and the maps
    only when one is nonzero.
    """

    def __init__(self, flux: FluxField, kernels: KernelData):
        self.base = flux.geometry.unitary
        self.flux = flux
        self.kernels = kernels
        self.tol = flux.tol
        self.n_internal = flux.geometry.state_dim
        # the finite-rank part swaps paired[i] with small[i]: F = -sum |d><d|
        # over the differences d = small[i] - paired[i], stacked as columns
        diffs = [s - p for p, s in zip(kernels.paired, kernels.small)]
        self._diffs = LatticeState.stack([LatticeState.zero(self.n_internal, 0), *diffs])
        inside = ~(flux.spectrum.plus | flux.spectrum.minus)
        maps = [self._build_block_map(*block) for block in zip(flux.kept.tolist(), *flux.eigh, inside)]
        rows = [row for row, m in zip(flux.kept.tolist(), maps) if m is not None]
        self._map_index = SiteIndex(flux.box.index.table[rows])
        self._map_stack = np.array([m for m in maps if m is not None], dtype=complex).reshape(-1, *flux.box.flux.shape[1:])

    # -- construction ------------------------------------------------------

    def _build_block_map(self, row, evals, evecs, inside):
        """(U0 - 1)Q0 on the block of one box row, whose eigenvalues inside
        (-1, 1) ``inside`` marks; None when it vanishes."""
        if not inside.any():
            return None
        label = self.flux.box.label(row)
        e0 = evecs[:, inside]
        lam0 = evals[inside]
        # guards the division by sqrt(1 - lam^2) below; classify_unit already
        # keeps these eigenvalues a guard band away from +-1
        if np.any(1.0 - lam0**2 < POLAR_GUARD):
            raise ValidationError(
                f"block {label}: non-unit eigenvalue too close to 1 for the polar factor"
            )
        phi = self.flux.box.flux[row]
        n = phi.shape[0]
        p = np.diag(self.flux.box.p_in[row]).astype(complex)
        w = np.eye(n) - phi @ phi - (p @ phi - phi @ p)
        if np.max(np.abs(w.conj().T @ w - (np.eye(n) - phi @ phi))) > self.tol.shift_check:
            raise ConsistencyError(f"block {label}: polar identity W*W = 1 - flux^2 failed")
        q0 = e0 @ e0.conj().T
        u0q0 = w @ (e0 * (1.0 / np.sqrt(1.0 - lam0**2))) @ e0.conj().T
        # unitarity of U0 on Ran Q0
        defect = np.max(np.abs(u0q0.conj().T @ u0q0 - q0))
        if defect > self.tol.shift_check:
            raise ConsistencyError(f"block {label}: polar factor is not unitary ({defect:g})")
        m = u0q0 - q0
        # a map that is zero up to rounding of one block product acts as the identity
        if np.max(np.abs(m)) <= ZERO_MAP_BOUND:
            return None
        return m

    # -- bookkeeping reported to the caller ---------------------------------

    def finite_rank_rank(self) -> int:
        """Numerical rank of the finite-rank part F of the correction.

        F swaps each paired kernel vector with its partner (minus identity),
        so its range is spanned by the differences; the rank is their count.
        Computed from the Gram matrix rather than asserted.
        """
        return int(np.linalg.matrix_rank(self._diffs.gram(self._diffs), tol=self.tol.shift_check))

    def correction_minus_finite_rank_norm(self) -> float:
        """Operator norm of U*(perturbed U) - 1 - F: the blockwise remainder."""
        # tail blocks contribute too when the flux does not vanish out there
        if not self.flux.tail_zero:
            raise ValidationError(
                "remainder norm over an infinite tail is not implemented; "
                "use scenarios with vanishing tail blocks"
            )
        return float(np.linalg.norm(self._map_stack, 2, axis=(1, 2)).max(initial=0.0))


def build_perturbed(flux: FluxField, kernels: KernelData) -> PerturbedUnitary:
    """The perturbation of the flux's own unitary along ``kernels``, which
    come from ``extract_kernels(flux)``."""
    return PerturbedUnitary(flux, kernels)


class SiteFrame:
    """The perturbed unitary within one shift check, on integer keys: the
    flat indices of sites in the bounding box of the states handed in, the
    swap differences and the block maps' incoming bases, grown by ``reach``
    sites on every side, so that every state the check forms lies inside.

    Frame states are ``LatticeState``s on (S, 1) keys (``state``, and
    ``on_sites`` back), grouped and matched as one-coordinate sites; a unit
    step is a fixed key offset, ``steps[k]`` for slot k.  The unitary's
    table row of every site of a box of at most ``GRID_CELLS`` sites, the
    lattice's bound on a grid, is read at once (``table_rows``), and
    ``coins`` is a ``take``.  A larger box is never allocated, and ``coins``
    reads the unitary's own rows: reading the rows of a box that a check
    only crosses costs more than its steps' own lookups (a d = 3 check with
    a box of 154 495 sites took 32 ms that way, against 24 ms).
    """

    def __init__(self, perturbed: PerturbedUnitary, states: list, reach: int):
        self.perturbed, unitary, d = perturbed, perturbed.base, perturbed.base.d
        in_sites = unitary.in_basis(perturbed._map_index.table)[0].reshape(-1, d)
        sites = np.concatenate([s.site_array.reshape(-1, d) for s in (*states, perturbed._diffs)] + [in_sites])
        self.low = sites.min(axis=0) - reach
        self.shape = tuple((sites.max(axis=0) + reach + 1 - self.low).tolist())
        self.strides = np.array([math.prod(self.shape[i + 1 :]) for i in range(d)], dtype=np.int64)
        self.steps = (np.array(all_direction_vectors(d), dtype=np.int64) @ self.strides)[:, None]
        self.rows = None
        if math.prod(self.shape) <= GRID_CELLS:
            self.table, self.rows = unitary.table_rows(np.indices(self.shape).reshape(d, -1).T + self.low)
        self.diffs = self.state(perturbed._diffs)

    def keys(self, sites: np.ndarray) -> np.ndarray:
        """The (..., 1) keys of a (..., d) array of sites in the box."""
        return ((sites - self.low) @ self.strides)[..., None]

    def sites(self, keys: np.ndarray) -> np.ndarray:
        """The (..., d) sites of (..., 1) keys (none for an empty state's (0, 0))."""
        return np.stack(np.unravel_index(keys.reshape(keys.shape[:-1]), self.shape), axis=-1) + self.low

    def state(self, psi: LatticeState) -> LatticeState:
        """The frame state of a state on sites."""
        return LatticeState(psi.n_internal, self.keys(psi.site_array.reshape(-1, len(self.shape))), psi.value_array)

    def on_sites(self, psi: LatticeState) -> LatticeState:
        return LatticeState(psi.n_internal, self.sites(psi.site_array), psi.value_array)

    def coins(self, keys: np.ndarray) -> np.ndarray:
        """The unitary's table entries (coins, or S^T of cells) at (S, 1) keys."""
        if self.rows is None:
            return self.perturbed.base.coins(self.sites(keys))
        return self.table.take(self.rows.take(keys[:, 0]), axis=0)

    def apply(self, psi: LatticeState, adjoint: bool = False) -> LatticeState:
        """U A psi, or A* U* psi for the adjoint."""
        if not adjoint:
            psi = self._correct(psi, False)
        if len(psi.value_array):
            psi = self.perturbed.base.frame_step(self, psi, adjoint)
        return self._correct(psi, True) if adjoint else psi

    def _correct(self, psi: LatticeState, adjoint: bool) -> LatticeState:
        """A psi = psi - F psi + (U0 - 1)Q0 psi column by column, F only when
        there are swapped pairs and the maps, on the cells meeting psi, only
        when one is nonzero; A* differs only in the maps (F = F*)."""
        out = psi - self.diffs.combine(self.diffs.gram(psi)) if self.diffs.n_columns else psi
        perturbed = self.perturbed
        if not len(perturbed._map_stack):
            return out
        maps = perturbed.flux.geometry.apply_blocks(self.on_sites(psi), perturbed._map_index.rows, [perturbed._map_stack], adjoint)
        return out + self.state(maps)

    def orbit(self, basis: LatticeState, k_max: int) -> list:
        """The two stacked halves of the orbit of ``basis``: the basis with
        its k_max forward iterates, then its k_max backward iterates, as one
        half spreads while the other keeps to a lead."""
        forward, backward = [basis], [basis]
        for _ in range(k_max):
            forward.append(self.apply(forward[-1]))
            backward.append(self.apply(backward[-1], adjoint=True))
        return [LatticeState.stack(forward), LatticeState.stack(backward[1:])]


# ---------------------------------------------------------------------------
# verification


@dataclass
class ShiftReport:
    ok: bool
    multiplicity: int
    steps: int
    unitary_defect: float
    gram_defect: float
    no_return_defect: float
    commute_defect: float
    remainder_norm: float
    small_flux_norm: float
    finite_rank: int
    expected_rank: int

    def as_dict(self) -> dict:
        return asdict(self)


def verify_shift_structure(perturbed: PerturbedUnitary, k_max: int = 30) -> ShiftReport:
    """Drive the perturbed unitary and check the shift identities.

    (a) iterates of its wandering basis are orthonormal across all steps
    |k| <= k_max; (b) forward iterates never return to the wandering
    subspace; (c) off the computed shift span, the perturbed unitary
    commutes with P after the wandering component is removed.  Random probe
    states come from a fixed seed.  Every step after the draws runs within
    one ``SiteFrame`` over the probes, the wandering basis and the
    correction, grown by k_max + 2 sites: every state formed lies within
    k_max + 1 steps of those.
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    kernels = perturbed.kernels
    tol = perturbed.tol
    flux = perturbed.flux
    geom = flux.geometry
    mult = kernels.multiplicity

    rng = np.random.default_rng(11)
    psi, probe = geom.probe_states(rng), geom.probe_states(rng)
    # the zero-column state keeps the stack defined for mult = 0
    basis = LatticeState.stack([LatticeState.zero(geom.state_dim, 0), *kernels.wandering])
    frame = SiteFrame(perturbed, [psi, probe, basis], k_max + 2)
    psi, probe, basis = frame.state(psi), frame.state(probe), frame.state(basis)
    image = frame.apply(psi)
    round_trip = frame.apply(image, adjoint=True) - psi
    unitary_defect = float(max(np.abs(image.norms() - 1.0).max(), round_trip.norms().max()))

    # all mult vectors of the wandering basis together
    halves = frame.orbit(basis, k_max)
    gram = np.block([[a.gram(b) for b in halves] for a in halves])
    gram_defect = float(np.abs(gram - np.eye(len(gram))).max(initial=0.0))
    no_return_defect = float(np.abs(gram[:mult, mult : (k_max + 1) * mult]).max(initial=0.0))

    # commutation with P away from the shift span, on probes projected off
    # the span and normalized; a probe left with norm below PROBE_FLOOR lies
    # in the span up to rounding and is skipped, as its direction is noise
    psi = probe
    for half in halves:
        psi = psi - half.combine(half.gram(psi))
    nrm = psi.norms()
    kept = np.flatnonzero(nrm >= PROBE_FLOOR)
    psi = psi.combine(np.eye(len(nrm))[:, kept] / nrm[kept])
    chopped = psi - basis.combine(basis.gram(psi))
    # [perturbed (1 - Q_L), P] psi = perturbed(1-Q_L) P psi - P perturbed(1-Q_L) psi
    p_psi = frame.state(geom.proj.apply(frame.on_sites(psi)))
    p_chopped = p_psi - basis.combine(basis.gram(p_psi))
    lhs = frame.apply(p_chopped)
    rhs = frame.state(geom.proj.apply(frame.on_sites(frame.apply(chopped))))
    commute_defect = float((lhs - rhs).norms().max(initial=0.0))

    remainder = perturbed.correction_minus_finite_rank_norm()
    small = flux.spectrum.phi_less
    # the finite-rank part has one independent range vector per swapped pair
    expected_rank = len(kernels.small)
    finite_rank = perturbed.finite_rank_rank()
    return ShiftReport(
        ok=(
            unitary_defect <= tol.shift_check
            and gram_defect <= tol.shift_check
            and no_return_defect <= tol.shift_check
            and commute_defect <= tol.shift_check
            and finite_rank == expected_rank
            and remainder <= 3.0 * small + REMAINDER_SLACK
        ),
        multiplicity=mult,
        steps=k_max,
        unitary_defect=unitary_defect,
        gram_defect=gram_defect,
        no_return_defect=no_return_defect,
        commute_defect=commute_defect,
        remainder_norm=remainder,
        small_flux_norm=small,
        finite_rank=finite_rank,
        expected_rank=expected_rank,
    )
