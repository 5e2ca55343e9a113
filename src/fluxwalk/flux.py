"""Flux operators as block fields, spectral certificates, and index formulas.

The flux of a projection P under a band-width-1 unitary U is U*PU - P.  Walks
and networks map each cell's incoming basis onto its outgoing basis, so the
flux is block diagonal over cells (``CellGeometry``).  The index is computed
four independent ways -- kernel counts, odd-power traces, even-power
supertraces, and the Kitaev-style double sum over matrix elements -- and all
of them must agree.

Certification at infinity works by enumerating a shell of representative
blocks just outside the feature window.  Every block beyond the window equals
one of the shell blocks (the field layers are translation invariant out
there), which a second "tripwire" band re-checks numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    CertificationError,
    EigenvalueAmbiguityError,
    NonSummableError,
    ValidationError,
)
from .lattice import (
    LatticeState,
    is_hermitian,
    random_state,
    spectral_norm_hermitian,
    trace_norm_hermitian,
)
from .operators import compress


@dataclass(frozen=True)
class FluxBlock:
    """One Hermitian block of the flux and the projection diagonal on it."""

    label: tuple
    matrix: np.ndarray
    p_diag: np.ndarray
    rank_difference: int

    def norm(self) -> float:
        return spectral_norm_hermitian(self.matrix)


@dataclass
class Certificate:
    """Spectral bound at infinity: every block outside ``radius`` has norm
    at most ``bound``."""

    ok: bool
    radius: int
    bound: float
    witness: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "radius": self.radius,
            "c": self.bound,
            "witness": list(self.witness) if self.witness is not None else None,
        }


@dataclass
class IndexReport:
    """The integer index with every applicable formula and the certificate."""

    index: int
    dim_ker_plus: int
    dim_ker_minus: int
    odd_trace: complex | None
    supertrace: complex | None
    kitaev_sum: complex | None
    gap: float
    trace_norm: float | None
    certificate: Certificate
    rank_difference: int | None = None


class CellGeometry:
    """Adapter between cell-labelled flux blocks and lattice states.

    The unitary provides ``cell_of(site)``, the label of the cell whose
    incoming basis holds ``site``, and ``cell(label) -> (matrix, ins, outs)``:
    ``ins`` and ``outs`` list ``(site, slots)`` with distinct sites, spelling
    out the cell's incoming and outgoing bases in order, and ``matrix``
    (outgoing x incoming) is U between them.  The cells' incoming bases
    partition the lattice basis, and so do their outgoing bases.  The
    projection provides ``open_slots(site)`` and ``apply(psi)``.  With P_in
    and P_out the 0/1 diagonals of P on the two bases, the flux block in the
    incoming basis is ``matrix* P_out matrix - P_in``.  Self-checks draw
    ``probes`` random window sites.
    """

    def __init__(self, unitary, proj, lo, hi, probes: int):
        self.unitary = unitary
        self.proj = proj
        self.state_dim = unitary.n_internal
        self.lo = list(lo)
        self.hi = list(hi)
        self.probes = probes

    def mask(self, points) -> np.ndarray:
        """The 0/1 diagonal of P on the basis listed by ``(site, slots)``."""
        open_slots = self.proj.open_slots
        return np.array(
            [k in at for site, slots in points for at in (open_slots(site),) for k in slots],
            dtype=float,
        )

    def cell(self, label):
        """``(matrix, P_in diagonal, P_out diagonal)`` of one cell."""
        m, ins, outs = self.unitary.cell(label)
        return m, self.mask(ins), self.mask(outs)

    def block(self, label):
        """``(flux block, P_in diagonal, rank P_out - rank P_in)``; the
        ``block_fn`` of ``assemble_field``."""
        m, p_in, p_out = self.cell(label)
        flux = (m.conj().T * p_out) @ m - np.diag(p_in).astype(complex)
        return flux, p_in, int(round(p_out.sum() - p_in.sum()))

    def touched_labels(self, psi: LatticeState) -> set:
        """Labels of every cell that meets the support of ``psi``."""
        return {self.unitary.cell_of(site) for site, _ in psi.items()}

    def gather(self, psi: LatticeState, label) -> np.ndarray:
        """Coordinates of ``psi`` in the incoming basis of the cell."""
        ins = self.unitary.cell(label)[1]
        return np.concatenate([psi.vector_at(site)[list(slots)] for site, slots in ins])

    def make_state(self, label, coords) -> LatticeState:
        """The state with the given incoming-basis coordinates."""
        data, i = {}, 0
        for site, slots in self.unitary.cell(label)[1]:
            data[site] = np.zeros(self.state_dim, dtype=complex)
            data[site][list(slots)] = coords[i : i + len(slots)]
            i += len(slots)
        return LatticeState(self.state_dim, data, _take=True)

    def apply_blocks(self, psi: LatticeState, matrix_at) -> LatticeState:
        """Apply ``matrix_at(label)`` to each touched cell's coordinates of
        ``psi`` and sum the images; cells where it is ``None`` are skipped."""
        out = LatticeState.zero(self.state_dim)
        for label in sorted(self.touched_labels(psi)):
            m = matrix_at(label)
            if m is not None:
                out = out + self.make_state(label, m @ self.gather(psi, label))
        return out

    def probe_sites(self, rng: np.random.Generator) -> set:
        """``probes`` random sites inside the window."""
        return {
            tuple(int(rng.integers(l, h + 1)) for l, h in zip(self.lo, self.hi))
            for _ in range(self.probes)
        }

    def kitaev(self, labels) -> float:
        """Kitaev double sum over the given cells, from the unitary's cells
        rather than from the assembled blocks: the |matrix|^2-weighted
        difference of outgoing and incoming memberships."""
        total = 0.0
        for label in labels:
            m, p_in, p_out = self.cell(label)
            if not p_in.any() and not p_out.any():
                continue
            a2 = np.abs(m) ** 2
            total += float(p_out @ a2.sum(axis=1) - a2.sum(axis=0) @ p_in)
        return total


class FluxField:
    """Block-diagonal flux with a finite window plus certified tail, over a
    ``CellGeometry`` whose ``block`` method is ``block_fn``."""

    def __init__(
        self,
        geometry,
        blocks: dict,
        shell: dict,
        lo,
        hi,
        bands,
        steps,
        certificate: Certificate,
        rank_difference: int,
        block_fn,
        tol: Tolerances,
    ):
        self.geometry = geometry
        self.blocks = blocks
        self.shell = shell
        self.lo = list(lo)
        self.hi = list(hi)
        self.bands = list(bands)
        self.steps = list(steps)
        self.certificate = certificate
        self.rank_difference = rank_difference
        self._block_fn = block_fn
        self.tol = tol
        self._eig_cache: dict = {}

    # -- basic queries -------------------------------------------------------

    @property
    def tail_zero(self) -> bool:
        return self.certificate.bound <= self.tol.block_prune

    def window_labels(self):
        axes = [
            range(l, h + 1, s) for l, h, s in zip(self.lo, self.hi, self.steps)
        ]
        return itertools.product(*axes)

    def block_at(self, label) -> FluxBlock:
        label = tuple(label)
        blk = self.blocks.get(label)
        if blk is not None:
            return blk
        blk = self.shell.get(label)
        if blk is not None:
            return blk
        matrix, p_diag, rd = self._block_fn(label)
        return FluxBlock(label, matrix, p_diag, rd)

    def eigensystem(self, label):
        label = tuple(label)
        cached = self._eig_cache.get(label)
        if cached is None:
            blk = self.block_at(label)
            cached = np.linalg.eigh(blk.matrix)
            self._eig_cache[label] = cached
        return cached

    # -- operator actions ----------------------------------------------------

    def apply(self, psi: LatticeState) -> LatticeState:
        """Apply the flux to a finitely supported state, exactly."""
        return self.geometry.apply_blocks(psi, lambda label: self.block_at(label).matrix)


# ---------------------------------------------------------------------------
# assembly


def assemble_field(geometry, block_fn, lo, hi, bands, steps, tol: Tolerances) -> FluxField:
    """Enumerate window, shell, and tripwire bands and build the field.

    ``block_fn(label) -> (matrix, p_diag, rank_difference)`` must be total.
    The shell band (width = one tail period per axis) carries one
    representative of every translation class of blocks beyond the window;
    the tripwire band re-checks that representativeness numerically.
    """
    dims = len(lo)
    for j in range(dims):
        if bands[j] % steps[j] != 0:
            raise ValidationError("band widths must be multiples of the label grid")
        if (hi[j] - lo[j]) % steps[j] != 0:
            raise ValidationError("window bounds must be grid aligned")

    def zone(label) -> int:
        out = 0
        for c, l, h, band in zip(label, lo, hi, bands):
            if l <= c <= h:
                continue
            if l - band <= c <= h + band:
                out = max(out, 1)
            else:
                out = max(out, 2)
        return out

    def clamp(label):
        fixed = []
        for c, l, h, band in zip(label, lo, hi, bands):
            if c > h + band:
                c = h + steps_mod(c - h, band)
            elif c < l - band:
                c = l - band + ((c - (l - band)) % band)
            fixed.append(c)
        return tuple(fixed)

    def steps_mod(offset, band):
        # map offset > band into (0, band] preserving the residue mod band
        r = offset % band
        return band if r == 0 else r

    axes = [
        range(l - 2 * band, h + 2 * band + 1, s)
        for l, h, band, s in zip(lo, hi, bands, steps)
    ]
    blocks: dict = {}
    shell: dict = {}
    tripwire: list = []
    rank_sum = 0
    for label in itertools.product(*axes):
        z = zone(label)
        if z == 2:
            tripwire.append(label)
            continue
        matrix, p_diag, rd = block_fn(label)
        if not is_hermitian(matrix, tol.hermitian):
            raise ValidationError(f"flux block at {label} is not Hermitian")
        blk = FluxBlock(label, matrix, p_diag, rd)
        if z == 0:
            rank_sum += rd
            if blk.norm() > tol.block_prune:
                blocks[label] = blk
        else:
            shell[label] = blk

    for label in tripwire:
        partner = clamp(label)
        ref = shell.get(partner)
        if ref is None:
            raise ValidationError(f"tripwire label {label} clamped outside the shell")
        matrix, _, _ = block_fn(label)
        if np.max(np.abs(matrix - ref.matrix)) > 1e-12:
            raise ValidationError(
                f"tail is not translation invariant: block {label} differs from {partner}"
            )

    bound = 0.0
    witness = None
    for label, blk in shell.items():
        v = blk.norm()
        if v > bound:
            bound, witness = v, label
    radius = max(max(abs(l), abs(h)) for l, h in zip(lo, hi))
    cert = Certificate(
        ok=bound < 1.0 - tol.certificate_margin,
        radius=radius,
        bound=bound,
        witness=witness if bound >= 1.0 - tol.certificate_margin else None,
    )
    return FluxField(
        geometry, blocks, shell, lo, hi, bands, steps, cert, rank_sum, block_fn, tol
    )


def selfcheck_against_operator(flux: FluxField, unitary) -> float:
    """Compare blockwise action against U*(P(U psi)) - P psi on three random
    states from a fixed seed."""
    rng = np.random.default_rng(7)
    geom = flux.geometry
    worst = 0.0
    for _ in range(3):
        psi = random_state(rng, geom.probe_sites(rng), geom.state_dim)
        via_op = unitary.apply_adjoint(geom.proj.apply(unitary.apply(psi))) - geom.proj.apply(psi)
        via_blocks = flux.apply(psi)
        worst = max(worst, (via_op - via_blocks).norm())
    if worst > 1e-12:
        raise ValidationError(f"blockwise flux deviates from U*PU - P by {worst:g}")
    return worst


# ---------------------------------------------------------------------------
# certification and index formulas


def certify_isolated(flux: FluxField) -> tuple[bool, int, float]:
    """Whether the non-unit spectrum stays away from 1 at infinity."""
    cert = flux.certificate
    return cert.ok, cert.radius, cert.bound


def classify_unit(evals, tol: Tolerances, label):
    """Split flux eigenvalues into those counted as +1 and as -1.

    Returns ``(plus_idx, minus_idx, max_inside)``: the indices within
    ``tol.eigenvalue_unit`` of +1 and of -1, and the largest modulus among
    the rest.  Each eigenvalue is checked in turn: a modulus above 1 is
    invalid for a flux, and one inside the guard band but outside the unit
    window is ambiguous; both raise.  ``label`` names the block in errors.
    """
    plus_idx = []
    minus_idx = []
    max_inside = 0.0
    for i, lam in enumerate(evals):
        if abs(lam) > 1.0 + 1e-10:
            raise ValidationError(
                f"flux eigenvalue {lam:g} at {label} exceeds 1 in modulus"
            )
        d_plus = abs(lam - 1.0)
        d_minus = abs(lam + 1.0)
        if d_plus <= tol.eigenvalue_unit:
            plus_idx.append(i)
        elif d_minus <= tol.eigenvalue_unit:
            minus_idx.append(i)
        elif min(d_plus, d_minus) <= tol.guard_band:
            raise EigenvalueAmbiguityError(label, float(lam), tol.eigenvalue_unit)
        else:
            max_inside = max(max_inside, abs(float(lam)))
    return plus_idx, minus_idx, max_inside


def _count_unit_eigenvalues(flux: FluxField):
    plus = minus = 0
    phi_less = 0.0
    kernel_vectors: dict = {}
    for label in flux.blocks:
        evals, evecs = flux.eigensystem(label)
        sel_plus, sel_minus, inside = classify_unit(evals, flux.tol, label)
        phi_less = max(phi_less, inside)
        plus += len(sel_plus)
        minus += len(sel_minus)
        if sel_plus or sel_minus:
            kernel_vectors[label] = (evecs, sel_plus, sel_minus)
    for blk in flux.shell.values():
        v = blk.norm()
        if v > 1.0 - flux.tol.certificate_margin:
            raise CertificationError(
                f"tail block {blk.label} has norm {v:g}; index undefined at infinity",
                witness=blk.label,
            )
        phi_less = max(phi_less, v)
    return plus, minus, phi_less, kernel_vectors


def index_with_kernels(flux: FluxField) -> tuple[IndexReport, dict]:
    """The kernel-count report together with the unit eigenvectors it
    counted: ``label -> (evecs, plus columns, minus columns)`` for every
    block with a unit eigenvalue."""
    ok, radius, bound = certify_isolated(flux)
    if not ok:
        raise CertificationError(
            f"certificate failed: tail bound {bound:g} at radius {radius}",
            witness=flux.certificate.witness,
        )
    plus, minus, phi_less, kernel_vectors = _count_unit_eigenvalues(flux)
    report = IndexReport(
        index=plus - minus,
        dim_ker_plus=plus,
        dim_ker_minus=minus,
        odd_trace=None,
        supertrace=None,
        kitaev_sum=None,
        gap=1.0 - phi_less**2,
        trace_norm=None,
        certificate=flux.certificate,
    )
    return report, kernel_vectors


def index_by_kernels(flux: FluxField) -> IndexReport:
    """dim ker(flux - 1) - dim ker(flux + 1), counted block by block."""
    return index_with_kernels(flux)[0]


def _require_trace_class(flux: FluxField) -> None:
    if not flux.tail_zero:
        raise NonSummableError(
            "tail blocks are not identically zero; block trace norms do not sum"
        )


def index_by_odd_trace(flux: FluxField, j: int = 0) -> complex:
    """trace of the (2j+1)-th power, summed over blocks."""
    if j < 0:
        raise ValidationError("j must be nonnegative")
    _require_trace_class(flux)
    total = 0.0
    for label in flux.blocks:
        evals, _ = flux.eigensystem(label)
        total += float(np.sum(evals ** (2 * j + 1)))
    return complex(total)


def index_by_supertrace(flux: FluxField, j: int = 1) -> complex:
    """trace((P_perp - P) flux^{2j}), summed over blocks."""
    if j < 1:
        raise ValidationError("j must be positive")
    _require_trace_class(flux)
    total = 0.0
    for label, blk in flux.blocks.items():
        evals, evecs = flux.eigensystem(label)
        sign = 1.0 - 2.0 * blk.p_diag
        # <e_k, (P_perp - P) e_k> weighted by lambda_k^{2j}
        weights = np.sum((np.abs(evecs) ** 2) * sign[:, None], axis=0)
        total += float(np.sum((evals ** (2 * j)) * weights))
    return complex(total)


def kitaev_sum(flux: FluxField) -> complex:
    """Double sum over matrix elements of U across P, from the sources
    directly (independent of the assembled blocks)."""
    _require_trace_class(flux)
    return complex(flux.geometry.kitaev(flux.window_labels()))


def block_trace_norm(flux: FluxField) -> float:
    _require_trace_class(flux)
    return float(sum(trace_norm_hermitian(b.matrix) for b in flux.blocks.values()))


def analyze(flux: FluxField) -> IndexReport:
    """Full report: kernel counts plus every applicable trace formula (the
    first odd power and the square)."""
    report = index_by_kernels(flux)
    report.rank_difference = flux.rank_difference
    if flux.tail_zero:
        report.odd_trace = index_by_odd_trace(flux)
        report.supertrace = index_by_supertrace(flux)
        report.kitaev_sum = kitaev_sum(flux)
        report.trace_norm = block_trace_norm(flux)
    return report


def check_rank_formula(report: IndexReport, flux: FluxField, formula: str) -> None:
    """The geometric rank difference must equal the kernel count exactly;
    ``formula`` names the geometric side in the error."""
    if report.index != flux.rank_difference:
        raise ValidationError(
            f"kernel count {report.index} disagrees with {formula} "
            f"{flux.rank_difference}"
        )


def phi_less_norm(flux: FluxField) -> float:
    """Largest eigenvalue modulus strictly inside (-1, 1), over all blocks."""
    _, _, phi_less, _ = _count_unit_eigenvalues(flux)
    return phi_less


def max_block_norm(flux: FluxField) -> float:
    """Largest block norm over the window and the shell."""
    return max((b.norm() for b in (*flux.blocks.values(), *flux.shell.values())), default=0.0)


def verify_internal_identities(flux: FluxField) -> dict:
    """Blockwise sanity of the two-projection algebra.

    With R = flux + P, the complement B = (1 - R) - P must satisfy
    flux^2 + B^2 = 1 and anticommute with the flux.
    """
    worst_sum = 0.0
    worst_anti = 0.0
    for label, blk in flux.blocks.items():
        n = blk.matrix.shape[0]
        p = np.diag(blk.p_diag).astype(complex)
        r = blk.matrix + p
        b = (np.eye(n) - r) - p
        worst_sum = max(worst_sum, float(np.max(np.abs(blk.matrix @ blk.matrix + b @ b - np.eye(n)))))
        worst_anti = max(worst_anti, float(np.max(np.abs(blk.matrix @ b + b @ blk.matrix))))
    return {"sum_defect": worst_sum, "anticommutator_defect": worst_anti}


# ---------------------------------------------------------------------------
# dense single-matrix oracle


def dense_window_index(unitary, project, box_sites, n_internal: int, tol: Tolerances = DEFAULT):
    """Index from one dense compression of U*PU - P on a padded window.

    Independent of the blockwise path: the operator is applied lazily to
    every basis vector of the window and the resulting Hermitian matrix is
    diagonalized as a whole.
    """
    sites = sorted(tuple(s) for s in box_sites)

    def flux_apply(e: LatticeState) -> LatticeState:
        return unitary.apply_adjoint(project(unitary.apply(e))) - project(e)

    m = compress(flux_apply, sites, n_internal)
    if np.max(np.abs(m - m.conj().T)) > 1e-10:
        raise ValidationError("window compression of the flux is not Hermitian")
    plus, minus, _ = classify_unit(np.linalg.eigvalsh(m), tol, ("dense", sites[0]))
    return len(plus) - len(minus)


# ---------------------------------------------------------------------------
# homotopy stability


@dataclass
class StabilityStep:
    t: float
    certified: bool
    index: int | None
    bound: float


def index_stability_probe(flux_family, steps: int) -> list[StabilityStep]:
    """Track the index along a parametrized family.

    ``flux_family(t)`` must return a FluxField for t in [0, 1].  Steps where
    the certificate fails are flagged, not raised.
    """
    out = []
    for k in range(steps + 1):
        t = k / steps if steps else 0.0
        flux = flux_family(t)
        ok, _, bound = certify_isolated(flux)
        if not ok:
            out.append(StabilityStep(t, False, None, bound))
            continue
        report = index_by_kernels(flux)
        out.append(StabilityStep(t, True, report.index, bound))
    return out
