"""Flux operators as block fields, spectral certificates, and index formulas.

The flux of a projection P under a band-width-1 unitary U is U*PU - P.  Walks
and networks map each cell's incoming basis onto its outgoing basis, so the
flux is block diagonal over cells (``CellGeometry``).  The index is counted
by kernel dimensions and by odd-power traces and even-power supertraces of
the blocks; the Kitaev-style double sum over matrix elements reduces, for
unitary cells, to rank P_out - rank P_in per cell, so it cross-checks the
rank formula rather than giving an independent count.  All of them must
agree.  ``analyze`` is the one path that counts the index and cross-checks
it; walks, networks and scenario setups all go through it.

Certification at infinity works by enumerating a shell of representative
blocks just outside the feature window.  Every block beyond the window equals
one of the shell blocks (the field layers are translation invariant out
there), which a second "tripwire" band re-checks numerically.  Every stage
reads these bands from the flux's one ``FluxWindow``.  So after assembly
every block read is a row of the stacked box, a label beyond it reading the
row of its shell partner (``FluxWindow.partners``).

Fluxes on one window and one projection, such as the capped fluxes of an
anomalous-transport analysis, are assembled as one stack (a flux axis).

A field keeps its window blocks as box rows (``FluxField.kept``) with one
``eigh`` stack over them, and classifies those eigenvalues against +1 and
-1 once (``FluxField.spectrum``); the kernel count, the shift decomposition
and the stability probe all read that classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, WINDOW_SITES, Tolerances
from .errors import CertificationError, ConsistencyError, EigenvalueAmbiguityError, NonSummableError, ValidationError
from .lattice import LatticeState, SiteIndex, group_sites
from .operators import compress


class StackedBox(NamedTuple):
    """What assembly stacked for the window and shell labels, row by row in
    enumeration order, with their ``SiteIndex``: the ``block_fn`` blocks,
    masks and cell matrices, the ``eigvalsh`` eigenvalues and block norms,
    rank P_out - rank P_in, and window rows; ``label`` tuples one row's."""

    index: SiteIndex
    flux: np.ndarray
    p_in: np.ndarray
    p_out: np.ndarray
    cells: np.ndarray
    eigenvalues: np.ndarray
    norms: np.ndarray
    rank_differences: list
    window: np.ndarray

    def label(self, row: int) -> tuple:
        """The label of one row as a tuple, for a message or a state."""
        return tuple(self.index.table[row].tolist())


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
    gap: float
    certificate: Certificate
    odd_trace: complex | None = None
    supertrace: complex | None = None
    kitaev_sum: complex | None = None
    trace_norm: float | None = None
    rank_difference: int | None = None


class UnitSpectrum(NamedTuple):
    """The eigenvalues of a certified field's kept window blocks, classified
    against +1 and -1 once (``classify_unit``).

    ``units[i]`` holds the +1 and -1 columns of the i-th kept block in the
    field's ``eigh`` stack; ``plus`` and ``minus`` are the kernel dimensions,
    and ``phi_less`` is the largest modulus strictly inside (-1, 1) over the
    window blocks and the shell."""

    units: list
    plus: int
    minus: int
    phi_less: float


@dataclass(frozen=True)
class FluxWindow:
    """The labels of one flux as a hashable value of int tuples: the window
    from ``lo`` to ``hi`` on a grid of ``steps``, and a shell and a tripwire
    band of width ``bands`` on either side.  Construction checks the grid and
    the label count (at most ``WINDOW_SITES``) before anything is allocated."""

    lo: tuple
    hi: tuple
    bands: tuple
    steps: tuple

    def __post_init__(self):
        for name in ("lo", "hi", "bands", "steps"):
            object.__setattr__(self, name, tuple(map(int, getattr(self, name))))
        axes = list(zip(self.lo, self.hi, self.bands, self.steps))
        for l, h, band, s in axes:
            if band % s != 0:
                raise ValidationError("band widths must be multiples of the label grid")
            if (h - l) % s != 0:
                raise ValidationError("window bounds must be grid aligned")
        count = math.prod((h - l + 4 * band) // s + 1 for l, h, band, s in axes)
        if count > WINDOW_SITES:
            raise ValidationError(f"the flux window holds {count} labels, more than {WINDOW_SITES}")

    def labels(self) -> np.ndarray:
        """The (N, d) labels that ``assemble_field`` enumerates, in
        lexicographic order: the window and two bands on either side."""
        axes = [np.arange(l - 2 * b, h + 2 * b + 1, s) for l, h, b, s in zip(self.lo, self.hi, self.bands, self.steps)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))

    def partners(self, labels: np.ndarray) -> np.ndarray:
        """Clamp labels beyond the shell into it, preserving each coordinate's
        residue modulo the band width."""
        lo, hi, bands = (np.array(v, dtype=np.int64) for v in (self.lo, self.hi, self.bands))
        clamped = np.where(labels > hi + bands, hi + 1 + (labels - hi - 1) % bands, labels)
        return np.where(labels < lo - bands, lo - bands + (labels - lo + bands) % bands, clamped)


class CellGeometry:
    """Adapter between cell-labelled flux blocks and lattice states.

    Labels, sites and slots are integer arrays.  The unitary gives
    ``cells(labels) -> (table, rows, ins, outs)`` for an (N, d) label array:
    cell i maps its incoming basis onto its outgoing one through U =
    ``table[rows[i]]`` (S^T rows for networks, distinct coins for walks);
    ``ins`` and ``outs`` are ``(sites, slots)``, an (N, k, d) site array and
    a length-k slot array (basis vector j of cell i is slot ``slots[j]`` at
    ``sites[i, j]``).  ``in_basis(labels)`` is ``ins`` alone, and
    ``cell_labels(sites)`` maps an (M, d) site array to the labels of the
    cells whose incoming bases hold those sites.  The incoming bases
    partition the lattice basis, and so do the outgoing bases.  A unitary
    stacked after another (``block``) gives ``table_rows``, ``cells`` less the bases.

    The projection gives ``diagonal_entries(sites, slots)``, its 0/1 entries
    at slot ``slots[i]`` of site ``sites[i]``, and ``apply(psi)``.  With P_in
    and P_out those entries on the two bases, the flux block in the incoming
    basis is ``U* P_out U - P_in``, formed once per distinct (row, P_in,
    P_out).  Self-checks draw ``probes`` random sites of ``window``, the
    ``FluxWindow`` that ``assemble_field`` enumerates.  ``apply_blocks`` takes
    cell maps as an (M, k, k) stack and a lookup from an (N, d) label array
    to N rows of it, -1 for none.
    """

    def __init__(self, unitary, proj, window: FluxWindow, probes: int):
        self.unitary = unitary
        self.proj = proj
        self.state_dim = unitary.n_internal
        self.window = window
        self.probes = probes

    def block(self, labels: np.ndarray, *stacked):
        """The ``block_fn`` of ``assemble_field``, called once per flux or
        stack on every enumerated label: the labelled cells' distinct (row,
        P_in, P_out) stacks and each label's row among them, so window, shell
        and tripwire labels of one key share one block.  One
        ``diagonal_entries`` call covers both bases of every cell.

        ``stacked`` geometries (the flux axis) share this one's bases and
        projection, so the masks are built once; their tables follow this
        one's, and ``which`` holds N rows per geometry, this one's first."""
        table, rows, (in_sites, in_slots), (out_sites, out_slots) = self.unitary.cells(labels)
        n, k, d = in_sites.shape
        sites = np.concatenate([in_sites, out_sites], axis=1).reshape(-1, d)
        slots = np.tile(np.concatenate([in_slots, out_slots]), n)
        masks = self.proj.diagonal_entries(sites, slots).reshape(n, 2 * k)
        tables, rows = [table], [rows]
        for geometry in stacked:
            table, more = geometry.unitary.table_rows(labels)
            rows.append(more + sum(map(len, tables)))
            tables.append(table)
        rows, table = np.concatenate(rows), np.concatenate(tables)
        if stacked:  # equal table rows, such as those of cells no cap reaches, give one block
            as_bytes = table.reshape(len(table), -1).view(f"V{table[0].nbytes}").ravel()
            _, canonical, same = np.unique(as_bytes, return_index=True, return_inverse=True)
            rows = canonical[same].take(rows)
        keys = (rows << 2 * k) + np.tile(masks.astype(np.int64) @ (1 << np.arange(2 * k)), len(tables))
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        masks, m = masks.take(first % n, axis=0), table.take(rows.take(first), axis=0)
        # C order: the Kitaev sum's per-cell dot products take contiguous rows
        p_in, p_out = np.ascontiguousarray(masks[:, :k]), np.ascontiguousarray(masks[:, k:])
        flux = m.conj().transpose(0, 2, 1)
        flux *= p_out[:, None, :]
        flux = flux @ m
        flux[:, np.arange(k), np.arange(k)] -= p_in
        return flux, p_in, p_out, m, which

    def make_state(self, label, coords) -> LatticeState:
        """The state with the given incoming-basis coordinates."""
        in_basis = self.unitary.in_basis(np.array([label], dtype=np.int64))
        return self._place(*in_basis, np.asarray(coords)[None, :, None])

    def _place(self, in_sites: np.ndarray, in_slots: np.ndarray, coords: np.ndarray) -> LatticeState:
        """The state with (k, K) coordinates ``coords[i]`` in the incoming
        basis ``(in_sites[i], in_slots)`` of distinct cells i, stored as
        given: rows in cell order, then in each cell's incoming order."""
        n_cells, k, d = in_sites.shape
        sites = in_sites.reshape(-1, d)
        first, rows = group_sites(sites)
        values = np.zeros((len(first), self.state_dim, coords.shape[2]), dtype=complex)
        values[rows.reshape(n_cells, k), in_slots] = coords
        return LatticeState(self.state_dim, (sites.take(first, axis=0), values), _take=True)

    def apply_blocks(self, psi: LatticeState, rows_of, matrices, adjoint: bool = False) -> LatticeState:
        """Apply ``matrices[rows_of(labels)]``, or the adjoints, to the incoming
        coordinates of all columns of ``psi`` in every cell meeting its support
        in one stacked product, leaving cells of row -1 alone.  Cells come in
        sorted label order: the rows of adding cell images one at a time."""
        empty = LatticeState.zero(self.state_dim, psi.n_columns)
        if not psi.support_size() or not len(matrices):
            return empty
        touched = self.unitary.cell_labels(psi.site_array)
        labels = touched.take(group_sites(touched)[0], axis=0)
        labels = labels[np.lexsort(labels.T[::-1])]
        found = rows_of(labels)
        kept = np.flatnonzero(found >= 0)
        if not kept.size:
            return empty
        in_sites, in_slots = self.unitary.in_basis(labels[kept])
        n_cells, k, d = in_sites.shape
        rows = psi.rows_of(in_sites.reshape(-1, d)).reshape(n_cells, k)
        coords = np.where((rows >= 0)[:, :, None], psi.value_array[rows, in_slots], 0)
        # the adjoint as a transposed view, laid out as m.conj().T, so BLAS
        # takes the same path and rounds the same way
        mats = matrices[found[kept]]
        if adjoint:
            mats = mats.conj().transpose(0, 2, 1)
        return self._place(in_sites, in_slots, mats @ coords)

    def probe_states(self, rng: np.random.Generator) -> LatticeState:
        """Three random unit states on ``probes`` random window sites each, as
        the columns of one state whose rows come in order of first appearance.
        Each draws its sites in one call, then each distinct site's real and
        imaginary parts in one call, and is scaled by its per-row norm."""
        sites, columns, window = [], [], self.window
        for _ in range(3):
            draw = rng.integers(window.lo, np.add(window.hi, 1), size=(self.probes, len(window.lo)))
            sites.append(np.array(list(set(map(tuple, draw.tolist()))), dtype=np.int64))
            draws = rng.standard_normal((len(sites[-1]), 2, self.state_dim))
            column = draws[:, 0] + 1j * draws[:, 1]
            columns.append((1.0 / float(np.sqrt(sum(np.vdot(v, v).real for v in column)))) * column)
        first, rows = group_sites(np.concatenate(sites))
        values = np.zeros((len(first), self.state_dim, 3), dtype=complex)
        values[rows, :, np.repeat(np.arange(3), [len(c) for c in columns])] = np.concatenate(columns)
        return LatticeState(self.state_dim, (np.concatenate(sites).take(first, axis=0), values), _take=True)


@dataclass(eq=False)
class FluxField:
    """Block-diagonal flux with a finite window plus certified tail, over a
    ``CellGeometry``.

    ``box`` holds everything assembly stacked for the window and the shell;
    every block the field reads is a row of it.  ``kept`` are the box rows
    of the window blocks above ``tol.block_prune``, in label order, and
    ``eigh`` the one ``np.linalg.eigh`` stack over ``box.flux[kept]``.
    ``spectrum`` classifies the unit eigenvalues of that stack on first use
    and keeps the result; every index reader shares it.
    """

    geometry: CellGeometry
    box: StackedBox
    kept: np.ndarray
    eigh: tuple
    certificate: Certificate
    rank_difference: int
    tol: Tolerances

    # -- basic queries -------------------------------------------------------

    @property
    def tail_zero(self) -> bool:
        return self.certificate.bound <= self.tol.block_prune

    def _box_rows(self, labels: np.ndarray) -> np.ndarray:
        """The box row holding the block of each label of an (N, d) array:
        its own row inside the box, beyond it the row of the shell label whose
        block repeats there (the clamp the tripwire band certified)."""
        rows = self.box.index.rows(self.geometry.window.partners(labels))
        if rows.min(initial=0) < 0:
            raise ConsistencyError(f"label {tuple(labels[rows.argmin()].tolist())} has no block in the assembled box")
        return rows

    @cached_property
    def spectrum(self) -> UnitSpectrum:
        """The classification of the kept window blocks, once the
        certificate holds; the shell norms enter ``phi_less``."""
        cert = self.certificate
        if not cert.ok:
            raise CertificationError(
                f"certificate failed: tail bound {cert.bound:g} at radius {cert.radius}",
                witness=cert.witness,
            )
        units = []
        plus = minus = 0
        phi_less = float(self.box.norms[~self.box.window].max(initial=0.0))
        for row, evals in zip(self.kept.tolist(), self.eigh.eigenvalues):
            sel_plus, sel_minus, inside = classify_unit(evals, self.tol, self.box.label(row))
            units.append((sel_plus, sel_minus))
            plus += len(sel_plus)
            minus += len(sel_minus)
            phi_less = max(phi_less, inside)
        return UnitSpectrum(units, plus, minus, phi_less)

    # -- operator actions ----------------------------------------------------

    def apply(self, psi: LatticeState) -> LatticeState:
        """Apply the flux to a finitely supported state, exactly."""
        return self.geometry.apply_blocks(psi, self._box_rows, self.box.flux)


# ---------------------------------------------------------------------------
# assembly


TRIPWIRE_BOUND = 1e-12  # largest entry by which a tripwire block may differ from its partner
UNIT_MODULUS_BOUND = 1.0 + 1e-10  # largest modulus that a flux eigenvalue may have
DENSE_HERMITIAN_BOUND = 1e-10  # largest entry by which a dense window compression may miss its adjoint
VANISHING_FLUX_BOUND = 1e-12  # largest block norm of a flux that must vanish


def _row_max(a: np.ndarray) -> np.ndarray:
    """The largest entry of each row of a stack, as column-wise maxima (a
    ``max`` along short rows costs many times more); a NaN propagates."""
    return reduce(np.maximum, a.reshape(len(a), math.prod(a.shape[1:])).T)


def assemble_field(geometry, block_fn, tol: Tolerances) -> FluxField | list[FluxField]:
    """Enumerate the window, shell and tripwire bands of ``geometry.window``; build the field.

    ``block_fn(labels)`` takes an (N, d) integer array of labels and returns
    ``(flux blocks, P_in, P_out, cell matrices, which)``: (M, k, k), (M, k),
    (M, k) and (M, k, k) stacks of M distinct blocks and each label's row
    among them; it must be total.  It is called once, on every enumerated
    label (window, shell and tripwire, in enumeration order).  The shell band
    (one tail period per axis) carries one representative of every
    translation class of blocks beyond the window; the tripwire band
    re-checks that, label by label, within ``TRIPWIRE_BOUND``, against the
    box row of its shell partner.

    A list of F geometries on one window and one projection (a flux axis;
    ``ConsistencyError`` otherwise) gives the list of their fields, each
    equal bit for bit to its geometry assembled alone: ``block_fn(labels,
    *geometries[1:])`` gives the blocks of all F, ``which`` F runs of N rows.

    Hermiticity, norms and rank differences are computed once per distinct
    block and read per label.  Hermiticity is checked at the box labels, then
    the tripwire; one ``eigvalsh`` over the distinct blocks gives eigenvalues
    and norms, and one ``eigh`` per field over its kept window blocks gives
    their eigenvectors.  Errors name the first offending flux, and its
    first offending label in enumeration order (lexicographic).
    """
    stack = list(geometry) if isinstance(geometry, (list, tuple)) else [geometry]
    window, proj = stack[0].window, stack[0].proj
    if any(g.window != window or g.proj is not proj for g in stack):
        raise ConsistencyError("the fluxes of one stack must share one window and one projection")
    lo, hi, bands = (np.array(v, dtype=np.int64) for v in (window.lo, window.hi, window.bands))
    labels = window.labels()
    outside = np.maximum(lo - labels, labels - hi)
    zone = _row_max(np.where(outside <= 0, 0, np.where(outside <= bands, 1, 2)))

    in_box = zone < 2
    box_index = SiteIndex(labels[in_box])
    flux, p_in, p_out, cells, which = block_fn(labels, *stack[1:])
    which = which.reshape(len(stack), -1)
    box_which, tripwire = which[:, in_box], ~in_box
    hermitian = _row_max(np.abs(flux - flux.conj().transpose(0, 2, 1))) <= tol.hermitian

    zone_box = zone[in_box]
    partners = window.partners(labels[tripwire])
    found = box_index.rows(partners)
    missing = (found < 0) | (zone_box[found] != 1)
    for rows, tripwire_rows in zip(box_which, which[:, tripwire]):
        bad = np.flatnonzero(~hermitian.take(rows))
        if bad.size:
            raise ValidationError(f"flux block at {tuple(box_index.table[bad[0]].tolist())} is not Hermitian")
        deviation = _row_max(np.abs(flux.take(tripwire_rows, axis=0) - flux.take(rows.take(found), axis=0)))
        bad = np.flatnonzero(missing | ~(deviation <= TRIPWIRE_BOUND))
        if bad.size:
            i = bad[0]
            label = tuple(labels[tripwire][i].tolist())
            if missing[i]:
                raise ConsistencyError(f"tripwire label {label} clamped outside the shell")
            raise ConsistencyError(
                f"tail is not translation invariant: block {label} differs from {tuple(partners[i].tolist())}"
            )

    evals = np.linalg.eigvalsh(flux)
    norms = _row_max(np.abs(evals))
    ranks = np.rint(p_out.sum(axis=1) - p_in.sum(axis=1)).astype(int)
    in_window = zone_box == 0
    shell_rows = np.flatnonzero(zone_box == 1)
    radius = max(max(abs(l), abs(h)) for l, h in zip(window.lo, window.hi))
    fields = []
    for geom, rows in zip(stack, box_which):
        *stacks, rank_differences = (a.take(rows, axis=0) for a in (flux, p_in, p_out, cells, evals, norms, ranks))
        box = StackedBox(box_index, *stacks, rank_differences.tolist(), in_window)
        kept = np.flatnonzero(in_window & (box.norms > tol.block_prune))
        bound, witness = 0.0, None
        if shell_rows.size:
            j = shell_rows[int(np.argmax(box.norms.take(shell_rows)))]
            if box.norms[j] > 0.0:
                bound, witness = float(box.norms[j]), box.label(j)
        ok = bound < 1.0 - tol.certificate_margin
        cert = Certificate(ok=ok, radius=radius, bound=bound, witness=None if ok else witness)
        eigh = np.linalg.eigh(box.flux[kept])
        fields.append(FluxField(geom, box, kept, eigh, cert, int(rank_differences[in_window].sum()), tol))
    return fields if isinstance(geometry, (list, tuple)) else fields[0]


SELFCHECK_BOUND = 1e-12  # largest column norm by which the blockwise action may miss U*PU - P


def selfcheck_against_operator(flux: FluxField, unitary, probes: dict | None = None) -> float:
    """Compare blockwise action against U*(P(U psi)) - P psi, within
    ``SELFCHECK_BOUND``, on three random states (seed 7) as one state's columns,
    kept with P psi per window in ``probes`` across one projection's fluxes."""
    geom, probes = flux.geometry, {} if probes is None else probes
    if geom.window not in probes:
        psi = geom.probe_states(np.random.default_rng(7))
        probes[geom.window] = psi, geom.proj.apply(psi)
    psi, p_psi = probes[geom.window]
    via_op = unitary.apply_adjoint(geom.proj.apply(unitary.apply(psi))) - p_psi
    worst = float((via_op - flux.apply(psi)).norms().max())
    if not (worst <= SELFCHECK_BOUND):
        raise ConsistencyError(f"blockwise flux deviates from U*PU - P by {worst:g}")
    return worst


# ---------------------------------------------------------------------------
# certification and index formulas


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
        if abs(lam) > UNIT_MODULUS_BOUND:
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


def index_by_kernels(flux: FluxField) -> IndexReport:
    """dim ker(flux - 1) - dim ker(flux + 1), counted block by block in
    ``flux.spectrum``, with gap 1 - phi_less^2."""
    spectrum = flux.spectrum
    return IndexReport(
        index=spectrum.plus - spectrum.minus,
        dim_ker_plus=spectrum.plus,
        dim_ker_minus=spectrum.minus,
        gap=1.0 - spectrum.phi_less**2,
        certificate=flux.certificate,
    )


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
    for evals in flux.eigh.eigenvalues:
        total += float(np.sum(evals ** (2 * j + 1)))
    return complex(total)


def index_by_supertrace(flux: FluxField, j: int = 1) -> complex:
    """trace((P_perp - P) flux^{2j}), summed over blocks."""
    if j < 1:
        raise ValidationError("j must be positive")
    _require_trace_class(flux)
    total = 0.0
    for evals, evecs, p_diag in zip(*flux.eigh, flux.box.p_in[flux.kept]):
        sign = 1.0 - 2.0 * p_diag
        # <e_k, (P_perp - P) e_k> weighted by lambda_k^{2j}
        weights = np.sum((np.abs(evecs) ** 2) * sign[:, None], axis=0)
        total += float(np.sum((evals ** (2 * j)) * weights))
    return complex(total)


def kitaev_sum(flux: FluxField) -> complex:
    """Double sum over matrix elements of U across P, from the cell matrices
    and masks that assembly kept for the window rather than from the flux
    blocks: the |matrix|^2-weighted difference of outgoing and incoming
    memberships, cell by cell.  For unitary cells each term is rank P_out -
    rank P_in, so this cross-checks the rank formula rather than counting
    the index independently.  The terms are formed in stacked passes (per
    cell the same row sums, column sums and dot products as one cell alone)
    and added in row order as Python floats, so the sum keeps its bits."""
    _require_trace_class(flux)
    box = flux.box
    rows = np.flatnonzero(box.window & (box.p_in.any(axis=1) | box.p_out.any(axis=1)))
    a2 = np.abs(box.cells[rows]) ** 2
    outs = box.p_out[rows, None, :] @ a2.sum(axis=2)[:, :, None]
    ins = a2.sum(axis=1)[:, None, :] @ box.p_in[rows, :, None]
    total = 0.0
    for term in (outs - ins).ravel().tolist():
        total += term
    return complex(total)


def block_trace_norm(flux: FluxField) -> float:
    _require_trace_class(flux)
    return float(sum(float(np.sum(np.abs(evals))) for evals in flux.box.eigenvalues[flux.kept]))


def analyze(flux: FluxField) -> IndexReport:
    """The index with its cross-checks, the one index path of walks,
    networks and scenario setups: the kernel count, which the rank formula
    (the window's sum of rank P_out - rank P_in) must match exactly, and,
    when the tail vanishes, the first odd-power trace, the squared
    supertrace, the Kitaev sum and the trace norm."""
    report = index_by_kernels(flux)
    if report.index != flux.rank_difference:
        raise ConsistencyError(
            f"kernel count {report.index} disagrees with the rank formula {flux.rank_difference}"
        )
    report.rank_difference = flux.rank_difference
    if flux.tail_zero:
        report.odd_trace = index_by_odd_trace(flux)
        report.supertrace = index_by_supertrace(flux)
        report.kitaev_sum = kitaev_sum(flux)
        report.trace_norm = block_trace_norm(flux)
    return report


def max_block_norm(flux: FluxField) -> float:
    """Largest block norm over the kept window blocks and the shell."""
    box = flux.box
    return float(box.norms[~box.window | (box.norms > flux.tol.block_prune)].max(initial=0.0))


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
    if np.max(np.abs(m - m.conj().T)) > DENSE_HERMITIAN_BOUND:
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
        cert = flux.certificate
        index = index_by_kernels(flux).index if cert.ok else None
        out.append(StabilityStep(t, cert.ok, index, cert.bound))
    return out
