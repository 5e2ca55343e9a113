"""Batched flux assembly and array region labelling against per-label references.

Every block that ``assemble_field`` stacks (window, shell and tripwire) must
equal, bit for bit, ``M* diag(P_out) M - diag(P_in)`` built from the one-cell
``reference_state.reference_cell(unitary, label)`` and per-site open slots.
``RegionSplit``'s parity labelling must equal a flood fill over uncut edges.
"""

import itertools
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_state as ref
from fluxwalk.cc import (
    DualPath,
    RegionSplit,
    cc_flux,
    crossover_path,
    random_phase_window,
    straight_r_path,
    wiggled_r_path,
)
from fluxwalk.config import DEFAULT
from fluxwalk.errors import ConsistencyError, ValidationError
from fluxwalk.fields import SiteMap
from fluxwalk.flux import FluxWindow, assemble_field
from fluxwalk.lattice import LatticeState
from fluxwalk.walks import (
    LeadSpec,
    NetworkSpec,
    build_walk_flux,
    network_projection,
    random_background,
    reflecting_coin,
    synthesize_lead_coin,
)
from reference_state import bulk_boundary_flux, lead_flux_index
from test_cc import capped, params_r
from test_flux import make_basic_example

# ---------------------------------------------------------------------------
# batched blocks


def reference_block(geometry, label):
    """The flux block of one cell, from its reference cell and open slots."""
    m, ins, outs = ref.reference_cell(geometry.unitary, label)
    p_in, p_out = (
        np.array(
            [k in ref.open_slots(geometry.proj, site) for site, slots in points for k in slots],
            dtype=float,
        )
        for points in (ins, outs)
    )
    return (m.conj().T * p_out) @ m - np.diag(p_in).astype(complex)


def box_row(flux, label) -> int:
    """The box row that ``flux`` reads at any label: its own inside the box,
    beyond it that of its shell partner."""
    (row,) = flux._box_rows(np.array([label], dtype=np.int64))
    return int(row)


def assert_blocks_match_reference(flux):
    window = flux.geometry.window
    axes = [
        range(l - 2 * b, h + 2 * b + 1, s)
        for l, h, b, s in zip(window.lo, window.hi, window.bands, window.steps)
    ]
    labels = list(itertools.product(*axes))
    in_box = set(flux.box.index.sites)
    tripwire = [label for label in labels if label not in in_box]
    assert not flux.box.window.all() and tripwire
    blocks, *_, which = flux.geometry.block(np.array(tripwire))
    stacked = dict(zip(tripwire, blocks[which]))
    for label in labels:
        block = flux.box.flux[box_row(flux, label)] if label in in_box else stacked[label]
        assert block.tobytes() == reference_block(flux.geometry, label).tobytes(), label
    # beyond the box a label reads the row of its shell partner: labels one,
    # two and three bands past its edge, and one grid step short of that, on
    # every side and at every corner
    for m in (1, 2, 3):
        sides = [
            (l - (m + 1) * b, l - m * b - s, l, h, h + m * b + s, h + (m + 1) * b)
            for l, h, b, s in zip(window.lo, window.hi, window.bands, window.steps)
        ]
        beyond = {label for label in itertools.product(*sides) if label not in in_box}
        for label in beyond:
            row = box_row(flux, label)
            assert flux.box.label(row) == ref.tail_partner(label, window)
            assert flux.box.flux[row].tobytes() == reference_block(flux.geometry, label).tobytes(), label


@pytest.mark.parametrize(
    "path",
    [straight_r_path(), crossover_path(), crossover_path(False), wiggled_r_path()],
    ids=["straight_r", "crossover_west", "crossover_east", "wiggled_r"],
)
def test_cc_blocks_match_the_reference(path):
    window = random_phase_window(np.random.default_rng(41), 0.3, range(-5, 6), range(-5, 6))
    field = SiteMap(2, window=window, background=params_r(0.3))
    assert_blocks_match_reference(cc_flux(field, path))


def test_capped_cc_blocks_match_the_reference():
    path = crossover_path()
    flux = cc_flux(capped(SiteMap(2, background=params_r(0.2)), path), path)
    assert flux.tail_zero
    assert_blocks_match_reference(flux)


def test_walk_blocks_match_the_reference():
    rng = np.random.default_rng(25)
    a = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    b = LeadSpec("outgoing", [(6, 0), (7, 0)], (1, 0))
    net = NetworkSpec(incoming=(a,), outgoing=(b,))
    _, lead_flux = lead_flux_index(net, synthesize_lead_coin(net, random_background(rng, 2, box=3)))
    for flux in (
        lead_flux,
        bulk_boundary_flux(reflecting_coin(2, rng, box=3)),
        build_walk_flux(*make_basic_example()),
    ):
        assert_blocks_match_reference(flux)


def test_a_walk_block_resolves_each_site_once(monkeypatch):
    # a walk cell's incoming basis repeats its site once per slot, and
    # neighbouring cells share outgoing sites: 4 * 2 * 4 = 32 lookups for 4
    # labels before, now one per distinct site of the two bases
    rng = np.random.default_rng(25)
    net = NetworkSpec(outgoing=(LeadSpec("outgoing", [(0, 0), (1, 0)], (1, 0)),))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
    geometry = build_walk_flux(coin, network_projection(net)).geometry
    labels = np.array([(0, 0), (1, 0), (0, 1), (5, 5)], dtype=np.int64)
    _, _, (in_sites, _), (out_sites, _) = geometry.unitary.cells(labels)
    distinct = {tuple(x) for x in np.concatenate([in_sites, out_sites], axis=1).reshape(-1, 2).tolist()}
    seen = []
    original = type(geometry.proj).slot_bits

    def counting(self, sites):
        seen.append(len(sites))
        return original(self, sites)

    monkeypatch.setattr(type(geometry.proj), "slot_bits", counting)
    geometry.block(labels)
    assert seen == [len(distinct)] == [15]


@pytest.mark.parametrize("model", ["basic_example", "crossover"])
def test_flux_beyond_the_box_computes_no_block(model):
    if model == "basic_example":
        flux = build_walk_flux(*make_basic_example())
    else:
        window = random_phase_window(np.random.default_rng(41), 0.3, range(-5, 6), range(-5, 6))
        flux = cc_flux(SiteMap(2, window=window, background=params_r(0.3)), crossover_path())
    geometry = flux.geometry
    calls = []

    def counting(labels):
        calls.append(len(labels))
        return geometry.block(labels)

    flux = assemble_field(geometry, counting, DEFAULT)
    assert len(calls) == 1
    # one random cell state three bands past the box on every side and corner
    rng = np.random.default_rng(3)
    k, window = flux.box.flux.shape[1], geometry.window
    sides = [(l - 4 * b, l, h, h + 4 * b) for l, h, b in zip(window.lo, window.hi, window.bands)]
    in_box = set(flux.box.index.sites)
    psi = LatticeState.zero(geometry.state_dim)
    for label in itertools.product(*sides):
        if label not in in_box:
            psi = psi + geometry.make_state(label, rng.standard_normal(k) + 1j * rng.standard_normal(k))
    assert psi.support_size()
    reference = ref.apply_blocks(geometry, ref.to_dict(psi), lambda label: reference_block(geometry, label))
    calls.clear()
    assert ref.same_state(flux.apply(psi), reference)
    assert calls == []


def test_a_label_without_a_box_row_fails_the_flux_action(monkeypatch):
    # without the clamp a label past the box has no row; it must raise, not
    # drop out of the action
    flux = build_walk_flux(*make_basic_example())
    label = (flux.geometry.window.hi[0] + 4 * flux.geometry.window.bands[0],)
    psi = flux.geometry.make_state(label, np.ones(flux.box.flux.shape[1]))
    monkeypatch.setattr(FluxWindow, "partners", lambda self, labels: labels)
    with pytest.raises(ConsistencyError, match=re.escape(f"label {label} has no block in the assembled box")):
        flux.apply(psi)


# ---------------------------------------------------------------------------
# assembly errors name the first offending label in enumeration order


def _basic_assembly():
    flux = build_walk_flux(*make_basic_example())
    window = flux.geometry.window
    (lo,), (hi,), (band,) = window.lo, window.hi, window.bands
    return flux.geometry, (DEFAULT,), lo, hi, band


def _shifted(geometry, bad: set, shift):
    """``geometry.block`` with ``shift`` added to the flux blocks at ``bad``:
    every label gets its own row, so the shift reaches those labels alone."""

    def block_fn(labels):
        *stacks, which = geometry.block(labels)
        flux, *rest = (a[which] for a in stacks)
        for i, label in enumerate(map(tuple, labels.tolist())):
            if label in bad:
                flux[i] = flux[i] + shift
        return (flux, *rest, np.arange(len(labels)))

    return block_fn


def test_non_hermitian_block_names_the_first_label():
    geometry, args, lo, hi, band = _basic_assembly()
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    # the shell label left of the window comes first, not the window label
    with pytest.raises(ValidationError, match=rf"flux block at \({lo - 1},\) is not Hermitian"):
        assemble_field(geometry, _shifted(geometry, {(lo + 1,), (lo - 1,)}, skew), *args)


def test_tripwire_mismatch_names_the_first_label():
    geometry, args, lo, hi, band = _basic_assembly()
    bad = {(hi + 2 * band,), (lo - 2 * band,)}
    with pytest.raises(ConsistencyError, match=rf"block \({lo - 2 * band},\) differs"):
        assemble_field(geometry, _shifted(geometry, bad, 0.5 * np.eye(2)), *args)


def test_a_small_tripwire_offset_fails_the_tail_check():
    # a 1e-11 Hermitian offset on one tripwire block exceeds the 1e-12 bound
    geometry, args, lo, hi, band = _basic_assembly()
    with pytest.raises(ConsistencyError, match=rf"block \({hi + 2 * band},\) differs"):
        assemble_field(geometry, _shifted(geometry, {(hi + 2 * band,)}, 1e-11 * np.eye(2)), *args)


def test_nan_tripwire_block_fails_the_tail_check():
    # a NaN difference compares false with the bound and must fail as well
    geometry, args, lo, hi, band = _basic_assembly()
    label = hi + 2 * band
    with pytest.raises(
        ConsistencyError, match=rf"tail is not translation invariant: block \({label},\) differs"
    ) as info:
        assemble_field(geometry, _shifted(geometry, {(label,)}, np.full((2, 2), np.nan)), *args)
    assert info.type is ConsistencyError


@pytest.mark.parametrize("clamped_first", [True, False])
def test_tripwire_clamped_outside_the_shell_names_the_first_label(monkeypatch, clamped_first):
    geometry, args, lo, hi, band = _basic_assembly()
    first, last = (lo - 2 * band,), (hi + 2 * band,)
    clamped, mismatched = (first, last) if clamped_first else (last, first)
    tail_partners = FluxWindow.partners

    def into_the_window(self, labels):
        partners = tail_partners(self, labels)
        partners[(labels == clamped[0])[:, 0]] = lo
        return partners

    monkeypatch.setattr(FluxWindow, "partners", into_the_window)
    block_fn = _shifted(geometry, {mismatched}, 0.5 * np.eye(2))
    expected = (
        rf"tripwire label \({first[0]},\) clamped outside the shell"
        if clamped_first
        else rf"block \({first[0]},\) differs"
    )
    with pytest.raises(ConsistencyError, match=expected):
        assemble_field(geometry, block_fn, *args)


# ---------------------------------------------------------------------------
# region labelling


def bfs_region(path, lo, hi):
    """Box and region of the left side of ``path`` by flood fill over uncut
    lattice edges from the seeds every dual step sets."""
    (mx0, my0), (mx1, my1) = path.bounds()
    lo = (min(lo[0], mx0 - 2), min(lo[1], my0 - 2))
    hi = (max(hi[0], mx1 + 2), max(hi[1], my1 + 2))

    def in_box(p, margin=0):
        return all(l - margin <= c <= h + margin for c, l, h in zip(p, lo, hi))

    span = (
        hi[0] - lo[0] + hi[1] - lo[1] + len(path.middle)
        + abs(mx0) + abs(mx1) + abs(my0) + abs(my1) + 8
    )
    cut, seeds = set(), {}
    for t in range(-span, path.m_last + span):
        v, w = path.vertex(t), path.vertex(t + 1)
        if not (in_box(v, 2) or in_box(w, 2)):
            continue
        left, right = ref.crossed_points(v, w)
        cut.add(frozenset((left, right)))
        for point, side in ((left, 1), (right, 0)):
            if in_box(point):
                assert seeds.setdefault(point, side) == side
    labels = dict(seeds)
    queue = deque(seeds)
    while queue:
        p = queue.popleft()
        for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            q = (p[0] + d[0], p[1] + d[1])
            if not in_box(q) or frozenset((p, q)) in cut:
                continue
            if q not in labels:
                labels[q] = labels[p]
                queue.append(q)
            assert labels[q] == labels[p]
    assert len(labels) == (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
    return lo, hi, {p for p, side in labels.items() if side == 1}


UNIT_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@st.composite
def dual_paths(draw):
    """Self-avoiding dual paths: a random walk that never revisits a
    vertex, with the first pair of ray directions (from a drawn offset)
    that DualPath accepts."""
    middle = [(0, 0)]
    for step in draw(st.lists(st.sampled_from(UNIT_STEPS), max_size=14)):
        nxt = (middle[-1][0] + step[0], middle[-1][1] + step[1])
        if nxt not in middle:
            middle.append(nxt)
    pairs = list(itertools.product(UNIT_STEPS, repeat=2))
    offset = draw(st.integers(0, len(pairs) - 1))
    for pre, post in pairs[offset:] + pairs[:offset]:
        try:
            return DualPath(middle, pre, post)
        except ValidationError:
            continue
    assume(False)  # the middle encloses its own ends


@settings(max_examples=60, deadline=None)
@given(
    dual_paths(),
    st.tuples(st.integers(-9, 3), st.integers(-9, 3)),
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
)
def test_array_labelling_matches_a_flood_fill(path, lo, size):
    hi = (lo[0] + size[0], lo[1] + size[1])
    split = RegionSplit(path, lo, hi)
    box_lo, box_hi, region = bfs_region(path, lo, hi)
    assert (split.lo, split.hi) == (box_lo, box_hi)
    assert ref.region_points(split) == region
    axes = (range(l - 3, h + 4) for l, h in zip(box_lo, box_hi))
    sites = np.array(list(itertools.product(*axes)))
    inside = split.diagonal_entries(sites, np.zeros(len(sites), dtype=int))
    assert [ref.region_side(split, p) for p in sites.tolist()] == inside.tolist()


def _unchecked_path(middle, pre_dir, post_dir):
    """A DualPath that skips validation, to feed RegionSplit a broken curve."""
    path = DualPath.__new__(DualPath)
    path.middle, path.pre_dir, path.post_dir = tuple(middle), pre_dir, post_dir
    return path


def test_conflicting_seeds_raise():
    # east across one dual edge and straight back west: the points on both
    # sides of the crossed edge get both labels
    path = _unchecked_path([(0, 0), (1, 0), (0, 0)], (-1, 0), (1, 0))
    with pytest.raises(ValidationError, match="conflicting side labels"):
        RegionSplit(path, (-4, -4), (4, 4))


def test_path_missing_the_box_raises():
    path = straight_r_path()
    far = _unchecked_path(path.middle, path.pre_dir, path.post_dir)
    far.bounds = lambda: ((0, 100), (0, 100))
    with pytest.raises(ValidationError, match="does not meet the labeling box"):
        RegionSplit(far, (0, 90), (5, 110))
