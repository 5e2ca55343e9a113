"""Flux operators as block fields, spectral certificates, and index formulas.

The flux of a projection P under a band-width-1 unitary U is U*PU - P.  Walks
and networks map each cell's incoming basis onto its outgoing basis, so the
flux is block diagonal over cells (``CellGeometry``).  The index is counted
by kernel dimensions and by odd-power traces and even-power supertraces of
the blocks; the Kitaev-style double sum over matrix elements reduces, for
unitary cells, to rank P_out - rank P_in per cell, so it cross-checks the
rank formula rather than giving an independent count.  All of them must
agree.  Each sum and the trace norm form their per-block terms in one stacked
pass; ``_row_order_sum`` adds the terms in row order as Python floats once the
tail vanishes, with the bits of adding one block at a time.  ``analyze`` is
the one path that counts the index and cross-checks it for walks, networks
and scenario setups.

Certification at infinity works by enumerating a shell of representative
blocks just outside the feature window.  Every block beyond the window equals
one of the shell blocks (the field layers are translation invariant out
there), which a second "tripwire" band re-checks numerically.  Every stage
reads these bands from the flux's one ``FluxWindow``.  So after assembly
every block read is a row of the stacked box, a label beyond it reading the
row of its shell partner (``FluxWindow.partners``).

Every flux is assembled, and checked against the operator, as part of a
stack (a flux axis) of fluxes on one window and one projection, such as the
uncapped and capped fluxes of an anomalous-transport draw; a lone flux is a
stack of one.

A field keeps its window blocks as box rows (``FluxField.kept``) with one
``eigh`` stack over them, and classifies that whole stack against +1 and -1
once, in one array pass (``FluxField.spectrum``); the kernel count, the shift
decomposition and the stability probe all read that classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances, check_size
from .errors import CertificationError, ConsistencyError, EigenvalueAmbiguityError, NonSummableError, ValidationError
from .lattice import LatticeState, SiteIndex, group_sites
from .operators import compress


class StackedBox(NamedTuple):
    """What assembly stacked for the window and shell labels, row by row in
    enumeration order, with their ``SiteIndex``: the ``block_fn`` blocks,
    masks and cell matrices, the ``eigvalsh`` eigenvalues and block norms,
    and window rows; ``label`` tuples one row's."""

    index: SiteIndex
    flux: np.ndarray
    p_in: np.ndarray
    p_out: np.ndarray
    cells: np.ndarray
    eigenvalues: np.ndarray
    norms: np.ndarray
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
    against +1 and -1 in one pass (``classify_unit``).

    ``plus`` and ``minus`` are (B, k) masks aligned with the field's ``eigh``
    stack, marking the eigenvalues counted as +1 and as -1 (their sums are the
    kernel dimensions), and ``phi_less`` is the largest modulus strictly
    inside (-1, 1) over the window blocks and the shell."""

    plus: np.ndarray
    minus: np.ndarray
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
        check_size(math.prod((h - l + 4 * band) // s + 1 for l, h, band, s in axes), "flux window", "labels")

    def labels(self) -> np.ndarray:
        """The (N, d) labels that ``assemble_field`` enumerates, in
        lexicographic order: the window and two bands on either side."""
        axes = [np.arange(l - 2 * b, h + 2 * b + 1, s) for l, h, b, s in zip(self.lo, self.hi, self.bands, self.steps)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))

    @property
    def radius(self) -> int:
        """The largest coordinate modulus of the window's corners, the
        certificate's radius."""
        return max(map(abs, self.lo + self.hi))

    def cover(self, other: "FluxWindow") -> "FluxWindow":
        """The smallest window that covers this one and ``other``, whose bands
        and steps must equal these (``ConsistencyError`` otherwise)."""
        if (other.bands, other.steps) != (self.bands, self.steps):
            raise ConsistencyError("the fluxes of one stack must share their tail bands and label grid")
        return FluxWindow(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi), self.bands, self.steps)

    def partners(self, labels: np.ndarray) -> np.ndarray:
        """Clamp labels beyond the shell into it, preserving each coordinate's
        residue modulo the band width."""
        lo, hi, bands = (np.array(v, dtype=np.int64) for v in (self.lo, self.hi, self.bands))
        clamped = np.where(labels > hi + bands, hi + 1 + (labels - hi - 1) % bands, labels)
        return np.where(labels < lo - bands, lo - bands + (labels - lo + bands) % bands, clamped)


class CellGeometry:
    """Adapter between cell-labelled flux blocks and lattice states.

    Labels, sites and slots are integer arrays.  For an (N, d) label array
    the unitary gives ``table_rows(labels) -> (table, rows)``: cell i maps
    its incoming basis onto its outgoing one through U = ``table[rows[i]]``
    (S^T rows for networks, distinct coins for walks).  ``in_basis(labels)``
    and ``out_basis(labels)`` give ``(sites, slots)``, an (N, k, d) site
    array and a length-k slot array (basis vector j of cell i is slot
    ``slots[j]`` at ``sites[i, j]``), and ``cell_labels(sites)`` maps an
    (M, d) site array to the labels of the cells whose incoming bases hold
    those sites.  The incoming bases partition the lattice basis, and so do
    the outgoing bases.

    The projection gives ``diagonal_entries(sites, slots)``, its 0/1 entries
    at slot ``slots[i]`` of site ``sites[i]``, and ``apply(psi)``.  With P_in
    and P_out those entries on the two bases, the flux block in the incoming
    basis is ``U* P_out U - P_in``, formed once per distinct (row, P_in,
    P_out).  Self-checks draw ``probes`` random sites of ``probe_window``, by
    default ``window``, the ``FluxWindow`` that ``assemble_field``
    enumerates.  ``apply_blocks`` takes cell maps as a list of (M, k, k)
    stacks, one per run of columns, and a lookup from an (N, d) label array
    to N rows of each, -1 for none.
    """

    def __init__(self, unitary, proj, window: FluxWindow, probes: int, probe_window: FluxWindow | None = None):
        self.unitary = unitary
        self.proj = proj
        self.state_dim = unitary.n_internal
        self.window, self.probe_window = window, probe_window or window
        self.probes = probes

    def block(self, labels: np.ndarray, *stacked):
        """The ``block_fn`` of ``assemble_field``, called once per stack on
        every enumerated label: the labelled cells' distinct (row, P_in,
        P_out) stacks and each label's row among them, so window, shell and
        tripwire labels of one key share one block.  One
        ``diagonal_entries`` call covers both bases of every cell.

        ``stacked`` geometries (the rest of the flux axis) share this one's
        bases and projection, so the masks are built once; their tables
        follow this one's, and ``which`` holds N rows per geometry, this
        one's first."""
        (in_sites, in_slots), (out_sites, out_slots) = self.unitary.in_basis(labels), self.unitary.out_basis(labels)
        n, k, d = in_sites.shape
        sites = np.concatenate([in_sites, out_sites], axis=1).reshape(-1, d)
        slots = np.tile(np.concatenate([in_slots, out_slots]), n)
        masks = self.proj.diagonal_entries(sites, slots).reshape(n, 2 * k)
        tables, rows = [], []
        for geometry in (self, *stacked):
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
        return LatticeState(self.state_dim, sites.take(first, axis=0), values)

    def apply_blocks(self, psi: LatticeState, rows_of, stacks: list, adjoint: bool = False) -> LatticeState:
        """Apply ``stacks[f][rows_of(labels)]``, or the adjoints, to the
        incoming coordinates of column block f of ``psi`` (its columns in
        ``len(stacks)`` equal runs, such as a flux axis's box stacks) in every
        cell meeting its support, in one stacked product of the (k, k) by (k,
        K) products of one stack alone, leaving cells of row -1 alone.  Cells
        come in sorted label order: the rows of adding cell images one at a
        time."""
        empty = LatticeState.zero(self.state_dim, psi.n_columns)
        if not psi.support_size() or not len(stacks[0]):
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
        coords = coords.reshape(n_cells, k, len(stacks), -1).transpose(2, 0, 1, 3)
        # the adjoint as a transposed view, laid out as m.conj().T, so BLAS
        # takes the same path and rounds the same way
        mats = np.array([matrices[found[kept]] for matrices in stacks])
        if adjoint:
            mats = mats.conj().transpose(0, 1, 3, 2)
        return self._place(in_sites, in_slots, (mats @ coords).transpose(1, 2, 0, 3).reshape(n_cells, k, -1))

    def probe_states(self, rng: np.random.Generator, copies: int = 1) -> LatticeState:
        """Three random unit states on ``probes`` random probe window sites
        each, as the columns of one state whose rows come in order of first
        appearance, the three repeated ``copies`` times.  Each draws its sites
        in one call, then each distinct site's real and imaginary parts in one
        call, and is scaled by its per-row norm."""
        sites, columns, window = [], [], self.probe_window
        for _ in range(3):
            draw = rng.integers(window.lo, np.add(window.hi, 1), size=(self.probes, len(window.lo)))
            sites.append(np.array(list(set(map(tuple, draw.tolist()))), dtype=np.int64))
            draws = rng.standard_normal((len(sites[-1]), 2, self.state_dim))
            column = draws[:, 0] + 1j * draws[:, 1]
            columns.append((1.0 / float(np.sqrt(sum(np.vdot(v, v).real for v in column)))) * column)
        sites = np.concatenate(sites)
        first, rows = group_sites(sites)
        values = np.zeros((len(first), self.state_dim, 3), dtype=complex)
        values[rows, :, np.repeat(np.arange(3), [len(c) for c in columns])] = np.concatenate(columns)
        return LatticeState(self.state_dim, sites.take(first, axis=0), np.tile(values, copies))


@dataclass(eq=False)
class FluxField:
    """Block-diagonal flux with a finite window plus certified tail, over a
    ``CellGeometry``.

    ``box`` holds everything assembly stacked for the window and the shell;
    every block the field reads is a row of it.  ``kept`` are the box rows
    of the window blocks above ``tol.block_prune``, in label order, and
    ``eigh`` the one ``np.linalg.eigh`` stack over ``box.flux[kept]``.
    ``spectrum`` classifies the unit eigenvalues of that stack in one pass on
    first use and keeps the result; every index reader shares it.
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
        """The classification of the kept window blocks' ``eigh`` stack, once
        the certificate holds; the shell norms enter ``phi_less``."""
        cert = self.certificate
        if not cert.ok:
            raise CertificationError(
                f"certificate failed: tail bound {cert.bound:g} at radius {cert.radius}",
                witness=cert.witness,
            )
        plus, minus, inside = classify_unit(self.eigh.eigenvalues, self.tol, lambda b: self.box.label(self.kept[b]))
        return UnitSpectrum(plus, minus, max(float(self.box.norms[~self.box.window].max(initial=0.0)), inside))


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


def assemble_field(geometries: list, block_fn, tol: Tolerances) -> list[FluxField]:
    """The fields of a list of F geometries on one window and one projection
    (a flux axis, F = 1 for a lone flux; ``ConsistencyError`` otherwise),
    over the window, shell and tripwire bands of that ``FluxWindow``.  Each
    field equals bit for bit its geometry assembled alone.

    ``block_fn(labels, *geometries[1:])`` takes an (N, d) integer array of
    labels and returns ``(flux blocks, P_in, P_out, cell matrices, which)``:
    (M, k, k), (M, k), (M, k) and (M, k, k) stacks of M distinct blocks and
    each label's row among them, F runs of N rows; it must be total.  It is
    called once, on every enumerated label (window, shell and tripwire, in
    enumeration order).  The shell band (one tail period per axis) carries
    one representative of every translation class of blocks beyond the
    window; the tripwire band re-checks that, label by label, within
    ``TRIPWIRE_BOUND``, against the box row of its shell partner.

    Hermiticity, norms and rank differences are computed once per distinct
    block and read per label.  Hermiticity is checked at the box labels, then
    the tripwire; one ``eigvalsh`` over the distinct blocks gives eigenvalues
    and norms, and one ``eigh`` per field over its kept window blocks gives
    their eigenvectors.  Errors name the first offending flux, and its
    first offending label in enumeration order (lexicographic).
    """
    window, proj = geometries[0].window, geometries[0].proj
    if any(g.window != window or g.proj is not proj for g in geometries):
        raise ConsistencyError("the fluxes of one stack must share one window and one projection")
    lo, hi, bands = (np.array(v, dtype=np.int64) for v in (window.lo, window.hi, window.bands))
    labels = window.labels()
    outside = np.maximum(lo - labels, labels - hi)
    zone = _row_max(np.where(outside <= 0, 0, np.where(outside <= bands, 1, 2)))

    in_box = zone < 2
    box_index = SiteIndex(labels[in_box])
    flux, p_in, p_out, cells, which = block_fn(labels, *geometries[1:])
    which = which.reshape(len(geometries), -1)
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
    fields = []
    for geom, rows in zip(geometries, box_which):
        box = StackedBox(box_index, *(a.take(rows, axis=0) for a in (flux, p_in, p_out, cells, evals, norms)), in_window)
        kept = np.flatnonzero(in_window & (box.norms > tol.block_prune))
        bound, witness = 0.0, None
        if shell_rows.size:
            j = shell_rows[int(np.argmax(box.norms.take(shell_rows)))]
            if box.norms[j] > 0.0:
                bound, witness = float(box.norms[j]), box.label(j)
        ok = bound < 1.0 - tol.certificate_margin
        cert = Certificate(ok=ok, radius=window.radius, bound=bound, witness=None if ok else witness)
        eigh = np.linalg.eigh(box.flux[kept])
        fields.append(FluxField(geom, box, kept, eigh, cert, int(ranks.take(rows)[in_window].sum()), tol))
    return fields


SELFCHECK_BOUND = 1e-12  # largest column norm by which the blockwise action may miss U*PU - P


def selfcheck_against_operator(fluxes: list, probes: dict | None = None) -> list[float]:
    """Compare the blockwise action of each flux of a stack against U*(P(U
    psi)) - P psi, U that flux's unitary, within ``SELFCHECK_BOUND``, on three
    random states (seed 7) as one state's columns.  One pass: the probe
    columns repeat once per flux, column block f goes through flux f's
    unitary (``apply(psi, *stacked)``, which never reads box rows) and box
    stack (``apply_blocks``), and P and the subtractions run once.  The
    repeated probes and -P psi are kept in ``probes`` per probe window and
    stack size, across one projection's fluxes.  Returns each flux's largest
    column deviation; the first flux above the bound raises."""
    geom, probes = fluxes[0].geometry, {} if probes is None else probes
    key = geom.probe_window, len(fluxes)
    if key not in probes:
        psi = geom.probe_states(np.random.default_rng(7), len(fluxes))
        probes[key] = psi, geom.proj.apply(psi).scaled(-1.0)
    psi, minus_p_psi = probes[key]
    unitary, stacked = geom.unitary, [flux.geometry.unitary for flux in fluxes[1:]]
    via_op = unitary.apply_adjoint(geom.proj.apply(unitary.apply(psi, *stacked)), *stacked) + minus_p_psi
    blockwise = geom.apply_blocks(psi, fluxes[0]._box_rows, [flux.box.flux for flux in fluxes])
    worst = (via_op - blockwise).norms().reshape(len(fluxes), -1).max(axis=1).tolist()
    for deviation in worst:
        if not (deviation <= SELFCHECK_BOUND):
            raise ConsistencyError(f"blockwise flux deviates from U*PU - P by {deviation:g}")
    return worst


# ---------------------------------------------------------------------------
# certification and index formulas


def classify_unit(evals: np.ndarray, tol: Tolerances, label):
    """Split a (B, k) stack of flux eigenvalues into those counted as +1 and
    as -1, in one array pass.

    Returns ``(plus, minus, max_inside)``: (B, k) masks of the eigenvalues
    within ``tol.eigenvalue_unit`` of +1 and of the others within it of -1,
    and the largest modulus among the rest (0.0 for none; a NaN is skipped).
    A modulus above ``UNIT_MODULUS_BOUND`` is invalid for a flux, and one
    inside the guard band but outside the unit window is ambiguous: the first
    such eigenvalue in row order raises, the modulus checked first, and
    ``label(b)`` names its row b.
    """
    d_plus, d_minus, modulus = np.abs(evals - 1.0), np.abs(evals + 1.0), np.abs(evals)
    plus = d_plus <= tol.eigenvalue_unit
    minus = ~plus & (d_minus <= tol.eigenvalue_unit)
    inside, too_big = ~(plus | minus), modulus > UNIT_MODULUS_BOUND
    bad = np.argwhere(too_big | (inside & (np.minimum(d_plus, d_minus) <= tol.guard_band)))
    if len(bad):
        b, i = bad[0].tolist()
        if too_big[b, i]:
            raise ValidationError(f"flux eigenvalue {evals[b, i]:g} at {label(b)} exceeds 1 in modulus")
        raise EigenvalueAmbiguityError(label(b), float(evals[b, i]), tol.eigenvalue_unit)
    return plus, minus, float(np.fmax.reduce(modulus[inside], initial=0.0))


def index_by_kernels(flux: FluxField) -> IndexReport:
    """dim ker(flux - 1) - dim ker(flux + 1), the sums of the masks of
    ``flux.spectrum``, with gap 1 - phi_less^2."""
    spectrum = flux.spectrum
    plus, minus = int(spectrum.plus.sum()), int(spectrum.minus.sum())
    return IndexReport(
        index=plus - minus,
        dim_ker_plus=plus,
        dim_ker_minus=minus,
        gap=1.0 - spectrum.phi_less**2,
        certificate=flux.certificate,
    )


def _row_order_sum(flux: FluxField, terms: np.ndarray) -> float:
    """The sum of a zero-tail flux's per-block terms, added in row order as
    Python floats: the bits of adding one block's term at a time."""
    if not flux.tail_zero:
        raise NonSummableError("tail blocks are not identically zero; block trace norms do not sum")
    total = 0.0
    for term in terms.ravel().tolist():
        total += term
    return total


def index_by_odd_trace(flux: FluxField, j: int = 0) -> complex:
    """trace of the (2j+1)-th power, summed over blocks."""
    if j < 0:
        raise ValidationError("j must be nonnegative")
    return complex(_row_order_sum(flux, np.sum(flux.eigh.eigenvalues ** (2 * j + 1), axis=1)))


def index_by_supertrace(flux: FluxField, j: int = 1) -> complex:
    """trace((P_perp - P) flux^{2j}), summed over blocks."""
    if j < 1:
        raise ValidationError("j must be positive")
    evals, evecs = flux.eigh
    sign = 1.0 - 2.0 * flux.box.p_in[flux.kept]
    # <e_k, (P_perp - P) e_k> weighted by lambda_k^{2j}
    weights = np.sum((np.abs(evecs) ** 2) * sign[:, :, None], axis=1)
    return complex(_row_order_sum(flux, np.sum((evals ** (2 * j)) * weights, axis=1)))


def kitaev_sum(flux: FluxField) -> complex:
    """Double sum over matrix elements of U across P, from the cell matrices
    and masks that assembly kept for the window rather than from the flux
    blocks: the |matrix|^2-weighted difference of outgoing and incoming
    memberships, cell by cell.  For unitary cells each term is rank P_out -
    rank P_in, so this cross-checks the rank formula rather than counting
    the index independently.  The terms are formed in stacked passes, per
    cell the same row sums, column sums and dot products as one cell alone."""
    box = flux.box
    rows = np.flatnonzero(box.window & (box.p_in.any(axis=1) | box.p_out.any(axis=1)))
    a2 = np.abs(box.cells[rows]) ** 2
    outs = box.p_out[rows, None, :] @ a2.sum(axis=2)[:, :, None]
    ins = a2.sum(axis=1)[:, None, :] @ box.p_in[rows, :, None]
    return complex(_row_order_sum(flux, outs - ins))


def block_trace_norm(flux: FluxField) -> float:
    return _row_order_sum(flux, np.sum(np.abs(flux.box.eigenvalues[flux.kept]), axis=1))


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
    """Index from one dense compression of U*PU - P on a padded window,
    independent of the blockwise path: the operator is applied lazily to
    every basis vector of the window, and the resulting Hermitian matrix is
    diagonalized through the components of its own exact zero pattern."""
    sites = sorted(tuple(s) for s in box_sites)

    def flux_apply(e: LatticeState) -> LatticeState:
        return unitary.apply_adjoint(project(unitary.apply(e))) - project(e)

    m = compress(flux_apply, sites, n_internal)
    if np.max(np.abs(m - m.conj().T)) > DENSE_HERMITIAN_BOUND:
        raise ValidationError("window compression of the flux is not Hermitian")
    plus, minus, _ = classify_unit(component_eigenvalues(m)[None], tol, lambda _: ("dense", sites[0]))
    return int(plus.sum() - minus.sum())


def component_eigenvalues(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of a Hermitian matrix in ascending order, from one
    ``eigvalsh`` stack per size of the connected components of the nonzero
    pattern of m and its transpose; each keeps its rows in order."""
    i, j = ((m != 0) | (m != 0).T).nonzero()
    root, label = None, np.arange(len(m))
    while not np.array_equal(label, root):  # each row takes the least label beside it, until none moves
        root, label = label, label.copy()
        np.minimum.at(label, i, root[j])
    order = np.argsort(root, kind="stable")  # the rows of each component together, in order
    sizes = np.bincount(root)[root[order]]
    blocks = (order[sizes == size].reshape(-1, size) for size in sorted(set(sizes.tolist())))
    evals = [np.linalg.eigvalsh(m[rows[:, :, None], rows[:, None, :]]).ravel() for rows in blocks]
    return np.sort(np.concatenate([np.zeros(0), *evals]))


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
