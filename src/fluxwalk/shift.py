"""Constructive shift decomposition of a unitary with nonzero flux index.

Given (U, P) with flux of nonzero index n, a finite-rank-plus-small
perturbation of U admits an |n|-dimensional wandering subspace drawn from the
larger unit eigenspace of the flux: iterates of the perturbed unitary on that
subspace form an exact orthonormal shift family, while the rest commutes with
P.  Everything here is built block by block and verified by lazy evolution.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError
from .flux import FluxField
from .lattice import LatticeState, SiteIndex

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
    for row, evecs, (sel_plus, sel_minus) in zip(flux.kept.tolist(), flux.eigh.eigenvectors, spectrum.units):
        p_diag = box.p_in[row]
        # P e = e on the -1 eigenvectors and P e = 0 on the +1 eigenvectors
        for sel, kernel, p_e, fault in ((sel_minus, ker_minus, 1.0, "-1 eigenvector at {} leaves"),
                                        (sel_plus, ker_plus, 0.0, "+1 eigenvector at {} meets")):
            for i in sel:
                coords = evecs[:, i]
                defect = float(np.linalg.norm(p_diag * coords - p_e * coords))
                if defect > tol.kernel_membership:
                    raise ValidationError(f"{fault.format(box.label(row))} Ran P by {defect:g}")
                kernel.append(geometry.make_state(box.index.table[row], coords))
    index = spectrum.plus - spectrum.minus
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

    The correction acts as the identity on the wandering vectors, swaps the
    paired kernel vectors with the smaller kernel, and applies the unitary
    part of the polar splitting of the P-diagonal compression of U on the
    rest of each block.  The nonzero block maps are kept as one (N, k, k)
    stack in the field's kept row order with a ``SiteIndex`` over their labels.
    Each action applies A = 1 + F + (U0 - 1)Q0 term by term, F only when
    there are swapped pairs and the maps only when one is nonzero.
    """

    def __init__(self, base, flux: FluxField, kernels: KernelData):
        self.base = base
        self.flux = flux
        self.kernels = kernels
        self.tol = flux.tol
        self.n_internal = flux.geometry.state_dim
        # the finite-rank part swaps paired[i] with small[i]: F = -sum |d><d|
        # over the differences d = small[i] - paired[i], stacked as columns
        diffs = [s - p for p, s in zip(kernels.paired, kernels.small)]
        self._diffs = LatticeState.stack([LatticeState.zero(self.n_internal, 0), *diffs])
        maps = [self._build_block_map(*block) for block in zip(flux.kept.tolist(), *flux.eigh, flux.spectrum.units)]
        rows = [row for row, m in zip(flux.kept.tolist(), maps) if m is not None]
        self._map_index = SiteIndex(flux.box.index.table[rows])
        self._map_stack = np.array([m for m in maps if m is not None], dtype=complex).reshape(-1, *flux.box.flux.shape[1:])

    # -- construction ------------------------------------------------------

    def _build_block_map(self, row, evals, evecs, units):
        """(U0 - 1)Q0 on the block of one box row; None when it vanishes."""
        plus, minus = units
        inside = [i for i in range(len(evals)) if i not in plus and i not in minus]
        if not inside:
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

    # -- the correction A = 1 + F + (U0 - 1)Q0 ------------------------------

    def _correction(self, psi: LatticeState, adjoint: bool) -> LatticeState:
        """A psi, column by column; A* differs only in the block maps (F = F*)."""
        out = psi - self._diffs.combine(self._diffs.gram(psi)) if self._diffs.n_columns else psi
        if not len(self._map_stack):
            return out
        return out + self.flux.geometry.apply_blocks(psi, self._map_index.rows, self._map_stack, adjoint)

    def apply(self, psi: LatticeState) -> LatticeState:
        return self.base.apply(self._correction(psi, adjoint=False))

    def apply_adjoint(self, psi: LatticeState) -> LatticeState:
        return self._correction(self.base.apply_adjoint(psi), adjoint=True)

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
        worst = max((float(np.linalg.norm(m, 2)) for m in self._map_stack), default=0.0)
        # tail blocks contribute too when the flux does not vanish out there
        if not self.flux.tail_zero:
            raise ValidationError(
                "remainder norm over an infinite tail is not implemented; "
                "use scenarios with vanishing tail blocks"
            )
        return worst


def build_perturbed(base, flux: FluxField, kernels: KernelData | None = None) -> PerturbedUnitary:
    if kernels is None:
        kernels = extract_kernels(flux)
    return PerturbedUnitary(base, flux, kernels)


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
    states come from a fixed seed.
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    kernels = perturbed.kernels
    tol = perturbed.tol
    flux = perturbed.flux
    geom = flux.geometry
    mult = kernels.multiplicity

    rng = np.random.default_rng(11)
    psi = geom.probe_states(rng)
    image = perturbed.apply(psi)
    round_trip = perturbed.apply_adjoint(image) - psi
    unitary_defect = float(max(np.abs(image.norms() - 1.0).max(), round_trip.norms().max()))

    # iterate the wandering basis both ways, all mult vectors together (the
    # zero-column state keeps the stack defined for mult = 0); the orbit is
    # stacked in two halves, the basis with k = 1..k_max forward, then the
    # backward iterates, as one half spreads while the other keeps to a lead
    basis = LatticeState.stack([LatticeState.zero(geom.state_dim, 0), *kernels.wandering])
    forward, backward = [basis], [basis]
    for _ in range(k_max):
        forward.append(perturbed.apply(forward[-1]))
        backward.append(perturbed.apply_adjoint(backward[-1]))
    halves = [LatticeState.stack(forward), LatticeState.stack(backward[1:])]
    del forward, backward
    gram = np.block([[a.gram(b) for b in halves] for a in halves])
    gram_defect = float(np.abs(gram - np.eye(len(gram))).max(initial=0.0))
    no_return_defect = float(np.abs(gram[:mult, mult : (k_max + 1) * mult]).max(initial=0.0))

    # commutation with P away from the shift span, on probes projected off
    # the span and normalized; a probe left with norm below PROBE_FLOOR lies
    # in the span up to rounding and is skipped, as its direction is noise
    psi = geom.probe_states(rng)
    for half in halves:
        psi = psi - half.combine(half.gram(psi))
    nrm = psi.norms()
    kept = np.flatnonzero(nrm >= PROBE_FLOOR)
    psi = psi.combine(np.eye(len(nrm))[:, kept] / nrm[kept])
    chopped = psi - basis.combine(basis.gram(psi))
    # [perturbed (1 - Q_L), P] psi = perturbed(1-Q_L) P psi - P perturbed(1-Q_L) psi
    p_psi = geom.proj.apply(psi)
    p_chopped = p_psi - basis.combine(basis.gram(p_psi))
    lhs = perturbed.apply(p_chopped)
    rhs = geom.proj.apply(perturbed.apply(chopped))
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
