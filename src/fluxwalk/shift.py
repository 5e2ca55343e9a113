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

from .errors import ValidationError
from .flux import FluxField
from .lattice import LatticeState, random_state


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
    geometry = flux.geometry
    ker_minus: list[LatticeState] = []
    ker_plus: list[LatticeState] = []
    for label, (sel_plus, sel_minus) in sorted(spectrum.units.items()):
        evecs = flux.eigensystem(label)[1]
        p_diag = flux.blocks[label].p_diag
        for i in sel_minus:
            coords = evecs[:, i]
            defect = float(np.linalg.norm(p_diag * coords - coords))
            if defect > tol.kernel_membership:
                raise ValidationError(
                    f"-1 eigenvector at {label} leaves Ran P by {defect:g}"
                )
            ker_minus.append(geometry.make_state(label, coords))
        for i in sel_plus:
            coords = evecs[:, i]
            defect = float(np.linalg.norm(p_diag * coords))
            if defect > tol.kernel_membership:
                raise ValidationError(
                    f"+1 eigenvector at {label} meets Ran P by {defect:g}"
                )
            ker_plus.append(geometry.make_state(label, coords))
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
    rest of each block.
    """

    def __init__(self, base, flux: FluxField, kernels: KernelData):
        self.base = base
        self.flux = flux
        self.kernels = kernels
        self.tol = flux.tol
        self.n_internal = flux.geometry.state_dim
        self._block_maps: dict = {}
        self._finite_rank = list(zip(kernels.paired, kernels.small))
        for label in sorted(set(flux.blocks)):
            m = self._build_block_map(label)
            if m is not None:
                self._block_maps[label] = m

    # -- construction ------------------------------------------------------

    def _build_block_map(self, label):
        """(U0 - 1)Q0 on one block; None when it vanishes."""
        blk = self.flux.blocks[label]
        evals, evecs = self.flux.eigensystem(label)
        plus, minus = self.flux.spectrum.units[label]
        inside = [i for i in range(len(evals)) if i not in plus and i not in minus]
        if not inside:
            return None
        e0 = evecs[:, inside]
        lam0 = evals[inside]
        if np.any(1.0 - lam0**2 < 1e-10):
            raise ValidationError(
                f"block {label}: non-unit eigenvalue too close to 1 for the polar factor"
            )
        n = blk.matrix.shape[0]
        p = np.diag(blk.p_diag).astype(complex)
        phi = blk.matrix
        w = np.eye(n) - phi @ phi - (p @ phi - phi @ p)
        if np.max(np.abs(w.conj().T @ w - (np.eye(n) - phi @ phi))) > 1e-10:
            raise ValidationError(f"block {label}: polar identity W*W = 1 - flux^2 failed")
        q0 = e0 @ e0.conj().T
        u0q0 = w @ (e0 * (1.0 / np.sqrt(1.0 - lam0**2))) @ e0.conj().T
        # unitarity of U0 on Ran Q0
        defect = np.max(np.abs(u0q0.conj().T @ u0q0 - q0))
        if defect > 1e-10:
            raise ValidationError(f"block {label}: polar factor is not unitary ({defect:g})")
        m = u0q0 - q0
        if np.max(np.abs(m)) <= 1e-15:
            return None
        return m

    # -- the correction A = 1 + F + (U0 - 1)Q0 ------------------------------

    def _correction(self, psi: LatticeState, adjoint: bool) -> LatticeState:
        out = psi
        for paired, small in self._finite_rank:
            a = paired.inner(psi)
            b = small.inner(psi)
            if a != 0 or b != 0:
                out = out + small.scaled(a) - paired.scaled(a) + paired.scaled(b) - small.scaled(b)

        return out + self.flux.geometry.apply_blocks(psi, self._block_maps.get, adjoint)

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
        diffs = [small - paired for paired, small in self._finite_rank]
        if not diffs:
            return 0
        gram = np.array([[a.inner(b) for b in diffs] for a in diffs])
        return int(np.linalg.matrix_rank(gram, tol=1e-10))

    def correction_minus_finite_rank_norm(self) -> float:
        """Operator norm of U*(perturbed U) - 1 - F: the blockwise remainder."""
        worst = 0.0
        for m in self._block_maps.values():
            worst = max(worst, float(np.linalg.norm(m, 2)))
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


def verify_shift_structure(
    perturbed: PerturbedUnitary,
    kernels: KernelData | None = None,
    k_max: int = 30,
) -> ShiftReport:
    """Drive the perturbed unitary and check the shift identities.

    (a) iterates of the wandering basis are orthonormal across all steps
    |k| <= k_max; (b) forward iterates never return to the wandering
    subspace; (c) off the computed shift span, the perturbed unitary
    commutes with P after the wandering component is removed.  Random probe
    states come from a fixed seed.
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    kernels = kernels or perturbed.kernels
    tol = perturbed.tol
    flux = perturbed.flux
    geom = flux.geometry
    basis = kernels.wandering
    mult = len(basis)

    rng = np.random.default_rng(11)
    unitary_defect = 0.0
    for _ in range(3):
        psi = random_state(rng, geom.probe_sites(rng), geom.state_dim)
        unitary_defect = max(unitary_defect, abs(perturbed.apply(psi).norm() - 1.0))
        rt = perturbed.apply_adjoint(perturbed.apply(psi))
        unitary_defect = max(unitary_defect, (rt - psi).norm())

    # iterate the wandering basis both ways
    orbits: dict[int, list[LatticeState]] = {0: list(basis)}
    fwd = list(basis)
    bwd = list(basis)
    for k in range(1, k_max + 1):
        fwd = [perturbed.apply(v) for v in fwd]
        bwd = [perturbed.apply_adjoint(v) for v in bwd]
        orbits[k] = list(fwd)
        orbits[-k] = list(bwd)

    gram_defect = 0.0
    flat = [(k, i, v) for k, vs in orbits.items() for i, v in enumerate(vs)]
    for a, (k, i, v) in enumerate(flat):
        for l, j, w in flat[a:]:
            expect = 1.0 if (k == l and i == j) else 0.0
            gram_defect = max(gram_defect, abs(v.inner(w) - expect))

    no_return_defect = 0.0
    for k in range(1, k_max + 1):
        for v in orbits[k]:
            for e in basis:
                no_return_defect = max(no_return_defect, abs(e.inner(v)))

    # commutation with P away from the shift span
    commute_defect = 0.0
    span = [v for vs in orbits.values() for v in vs]
    for _ in range(3):
        psi = random_state(rng, geom.probe_sites(rng), geom.state_dim)
        for v in span:
            psi = psi - v.scaled(v.inner(psi))
        nrm = psi.norm()
        if nrm < 1e-6:
            continue
        psi = psi.scaled(1.0 / nrm)
        chopped = psi
        for e in basis:
            chopped = chopped - e.scaled(e.inner(psi))
        # [perturbed (1 - Q_L), P] psi = perturbed(1-Q_L) P psi - P perturbed(1-Q_L) psi
        p_psi = geom.proj.apply(psi)
        p_chopped = p_psi
        for e in basis:
            p_chopped = p_chopped - e.scaled(e.inner(p_psi))
        lhs = perturbed.apply(p_chopped)
        rhs = geom.proj.apply(perturbed.apply(chopped))
        commute_defect = max(commute_defect, (lhs - rhs).norm())

    remainder = perturbed.correction_minus_finite_rank_norm()
    small = flux.spectrum.phi_less
    # the finite-rank part has one independent range vector per swapped pair
    expected_rank = len(kernels.small)
    finite_rank = perturbed.finite_rank_rank()
    report = ShiftReport(
        ok=(
            unitary_defect <= tol.shift_check
            and gram_defect <= tol.shift_check
            and no_return_defect <= tol.shift_check
            and commute_defect <= tol.shift_check
            and finite_rank == expected_rank
            and remainder <= 3.0 * small + 1e-12
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
    return report
