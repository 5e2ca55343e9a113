"""Distinct-cell assembly and the plan a CC analysis keeps across its fluxes.

``CellGeometry.block`` forms each distinct (cell row, P_in, P_out) block
once, and ``assemble_field`` stacks per-label rows from those: every stacked
block, cell matrix, eigenvalue row and norm must equal, bit for bit, one
reference block and one ``eigvalsh`` per label.  ``cc.FluxPlan`` keeps one
``RegionSplit``, over the first flux's points box, and the selfcheck probes
per window; a later flux reads the split beyond its box, where it must read
like that flux's own split.

``assemble_field`` calls ``block_fn`` once, on every enumerated label: its
box, certificate and rank sum must equal, bit for bit, those of the two-call
assembly it replaced (``reference_state.two_call_box``), and the stacked
Kitaev sum must equal the per-row loop (``reference_state.kitaev_sum``).

A field reads its blocks by box row: analysing a CC flux must not build the
label tuples of its whole box (``SiteIndex.sites``).
"""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxwalk.cc as cc_module
import reference_state as ref
from fluxwalk.cc import (
    RegionSplit,
    anomalous_transport,
    cc_flux,
    cc_flux_window,
    crossover_path,
    points_box,
    random_bump,
    random_phase_window,
    straight_r_path,
    wiggled_r_path,
)
from fluxwalk.cli import bundled_scenarios
from fluxwalk.errors import ValidationError
from fluxwalk.fields import SiteMap
from fluxwalk.flux import CellGeometry, analyze, assemble_field, kitaev_sum
from fluxwalk.lattice import SiteIndex
from fluxwalk.scenarios import ANALYSES, _checked_setup
from fluxwalk.shift import build_perturbed
from fluxwalk.walks import build_walk_flux, network_projection, random_background, random_network, synthesize_lead_coin
from test_assembly import reference_block
from test_cc import capped, params_r

PATHS = {
    "straight_r": straight_r_path(),
    "crossover_west": crossover_path(),
    "crossover_east": crossover_path(False),
    "wiggled_r": wiggled_r_path(),
}


def assert_box_matches_per_label_reference(flux):
    """Every box row against its label's reference block, reference cell
    matrix, one ``eigvalsh`` of the reference block and its largest modulus."""
    box, geometry = flux.box, flux.geometry
    assert len(box.index.sites) == len(box.flux) == len(box.cells) == len(box.eigenvalues) == len(box.norms)
    for row, label in enumerate(box.index.sites):
        block = reference_block(geometry, label)
        evals = np.linalg.eigvalsh(block)
        cell = np.asarray(ref.reference_cell(geometry.unitary, label)[0], dtype=complex)
        assert box.flux[row].tobytes() == block.tobytes(), label
        assert box.cells[row].tobytes() == cell.tobytes(), label
        assert box.eigenvalues[row].tobytes() == evals.tobytes(), label
        assert box.norms[row].tobytes() == np.abs(evals).max().tobytes(), label


def _setup(name):
    return _checked_setup(json.loads(bundled_scenarios()[name].read_text()))


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_bundled_boxes_match_the_per_label_reference(name):
    assert_box_matches_per_label_reference(_setup(name).flux)


def _recorded_fluxes(monkeypatch):
    """Every flux that ``cc`` assembles while the patch holds, the fluxes of
    a stack in its order."""
    fluxes, original = [], cc_module.assemble_field

    def recording(*args, **kwargs):
        assembled = original(*args, **kwargs)
        fluxes.extend(assembled if isinstance(assembled, list) else [assembled])
        return assembled

    monkeypatch.setattr(cc_module, "assemble_field", recording)
    return fluxes


def test_capped_boxes_match_the_per_label_reference(monkeypatch):
    fluxes = _recorded_fluxes(monkeypatch)
    window = random_phase_window(np.random.default_rng(23), 0.2, range(-9, 10), range(-9, 10))
    anomalous_transport(SiteMap(2, window=window, background=params_r(0.2)), crossover_path(), [0.25, 0.125, 0.0625])
    # the uncapped flux, then one capped flux per epsilon
    assert len(fluxes) == 4 and all(flux.tail_zero for flux in fluxes[1:])
    for flux in fluxes:
        assert_box_matches_per_label_reference(flux)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(PATHS)),
    st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    st.integers(1, 6),
)
def test_random_windows_match_the_per_label_reference(seed, name, r_abs, extent):
    span = range(-extent, extent + 1)
    window = random_phase_window(np.random.default_rng(seed), r_abs, span, span)
    background = params_r(0.3 if r_abs in (0.0, 1.0) else r_abs)
    assert_box_matches_per_label_reference(cc_flux(SiteMap(2, window=window, background=background), PATHS[name]))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 1), (1, 2)]))
def test_random_lead_networks_match_the_per_label_reference(seed, leads):
    (n_in, n_out), rng = leads, np.random.default_rng(seed)
    network = random_network(rng, n_in, n_out, box=5)
    coin = synthesize_lead_coin(network, random_background(rng, 2, box=3))
    assert_box_matches_per_label_reference(build_walk_flux(coin, network_projection(network)))


def test_a_non_hermitian_shared_block_names_its_first_label():
    # many labels of a constant background share one (row, P_in, P_out)
    # combination; corrupting that one block must name the first of them
    window = random_phase_window(np.random.default_rng(41), 0.3, range(-3, 4), range(-3, 4))
    flux = cc_flux(SiteMap(2, window=window, background=params_r(0.3)), crossover_path())
    geometry, labels = flux.geometry, flux.box.index.table
    # the one block call covers every enumerated label; pick among the box labels
    enumerated = geometry.window.labels()
    which = geometry.block(enumerated)[-1][flux.box.index.rows(enumerated) >= 0]
    # a combination at least three box labels share, first met after the first label
    shared, members = next(
        (row, members)
        for row in np.flatnonzero(np.bincount(which) >= 3).tolist()
        if (members := np.flatnonzero(which == row))[0] > 0
    )
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])

    def corrupted(labels):
        blocks, *rest, rows = geometry.block(labels)
        if len(labels) == len(enumerated):
            blocks[shared] += skew
        return (blocks, *rest, rows)

    first = tuple(labels[members[0]].tolist())
    with pytest.raises(ValidationError, match=re.escape(f"flux block at {first} is not Hermitian")):
        assemble_field(geometry, corrupted, flux.tol)


# ---------------------------------------------------------------------------
# one block pass per flux and the stacked Kitaev sum


def assert_one_pass_matches_two_calls(flux):
    """The box, certificate and rank sum of ``flux`` against the two-call
    assembly, bit for bit, and, when the tail vanishes, the Kitaev sum
    against the per-row loop, exactly."""
    arrays, (bound, witness), rank_sum = ref.two_call_box(flux)
    box = flux.box
    for name, expected in arrays.items():
        got = np.asarray(box.index.table if name == "labels" else getattr(box, name))
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
    cert = flux.certificate
    assert (cert.bound, cert.witness, flux.rank_difference) == (bound, None if cert.ok else witness, rank_sum)
    if flux.tail_zero:
        assert kitaev_sum(flux) == ref.kitaev_sum(flux)


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_bundled_fluxes_match_the_two_call_assembly(name):
    assert_one_pass_matches_two_calls(_setup(name).flux)


def test_the_capped_flux_matches_the_two_call_assembly():
    path = crossover_path()
    flux = cc_flux(capped(SiteMap(2, background=params_r(0.2)), path), path)
    assert flux.tail_zero
    assert_one_pass_matches_two_calls(flux)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 1), (1, 2)]))
def test_random_lead_networks_match_the_two_call_assembly(seed, leads):
    (n_in, n_out), rng = leads, np.random.default_rng(seed)
    network = random_network(rng, n_in, n_out, box=5)
    flux = build_walk_flux(synthesize_lead_coin(network, random_background(rng, 2, box=3)), network_projection(network))
    assert flux.tail_zero
    assert_one_pass_matches_two_calls(flux)


# ---------------------------------------------------------------------------
# one split, read beyond its box


def _boxes(path, rng):
    """The points boxes of fluxes on three random windows around ``path``,
    smallest first, the largest reaching 12 cells past its explicit
    vertices, and the widest of their bands."""
    (lo, lo2), (hi, hi2) = path.bounds()
    reach = max(map(abs, (lo, lo2, hi, hi2)))
    boxes = []
    for extent in (2, reach + 6, reach + 12):
        span = range(-extent, extent + 1)
        field = SiteMap(2, window=random_phase_window(rng, 0.3, span, span), background=params_r(0.3))
        boxes.append(cc_flux_window(field, path))
    return [points_box(b) for b in boxes], max(max(b.bands) for b in boxes)


def assert_split_reads_like_each_own(split, boxes, band):
    """``split`` reads, at every point of each box's own split and three
    bands beyond it, what that own split reads; the last box reaches past
    ``split``'s box."""
    owns = [RegionSplit(split.path, *box) for box in boxes]
    assert (np.less(owns[-1].lo, split.lo) | np.greater(owns[-1].hi, split.hi)).any()
    for own in owns:
        axes = (range(l - 3 * band, h + 3 * band + 1) for l, h in zip(own.lo, own.hi))
        points = np.array(list(itertools.product(*axes)))
        slots = np.zeros(len(points), dtype=np.int64)
        assert split.diagonal_entries(points, slots).tobytes() == own.diagonal_entries(points, slots).tobytes()


@pytest.mark.parametrize("name", sorted(PATHS))
def test_a_split_reads_exactly_beyond_its_box(name):
    boxes, band = _boxes(PATHS[name], np.random.default_rng(5))
    assert_split_reads_like_each_own(RegionSplit(PATHS[name], *boxes[0]), boxes, band)


@pytest.mark.parametrize("name", sorted(PATHS))
def test_a_split_of_a_random_bump_reads_exactly_beyond_its_box(name):
    extended = PATHS[name].extended(12, 12)
    t0, t1 = extended.m_last // 2 - 8, extended.m_last // 2 + 8
    rng = np.random.default_rng(17)
    bumped = [b for b in (random_bump(extended, rng, t0, t1) for _ in range(4)) if b is not None]
    assert bumped
    for new_path, _ in bumped:
        boxes, band = _boxes(new_path, rng)
        assert_split_reads_like_each_own(RegionSplit(new_path, *boxes[0]), boxes, band)


def test_the_capped_fluxes_read_the_uncapped_split_exactly(monkeypatch):
    # the plan's split is built over the uncapped flux's box; the capped
    # fluxes read it out to their full reach
    fluxes = _recorded_fluxes(monkeypatch)
    window = random_phase_window(np.random.default_rng(23), 0.2, range(-9, 10), range(-9, 10))
    path = crossover_path()
    anomalous_transport(SiteMap(2, window=window, background=params_r(0.2)), path, [0.25, 0.125, 0.0625])
    split = fluxes[0].geometry.proj
    assert all(flux.geometry.proj is split for flux in fluxes)
    boxes = [points_box(cc_flux_window(flux.geometry.unitary.scattering, path)) for flux in fluxes]
    assert len(set(boxes)) == 2 and boxes[0] == split.box  # the uncapped window and the one capped extent
    assert_split_reads_like_each_own(split, boxes, max(max(flux.geometry.window.bands) for flux in fluxes))


# ---------------------------------------------------------------------------
# what an analysis builds once


def _counting(monkeypatch):
    """Lists that record the path of every ``RegionSplit`` built and every
    probe draw while the patches hold."""
    splits, draws = [], []
    init, probe_states = RegionSplit.__init__, CellGeometry.probe_states

    def counted_init(self, path, *args):
        splits.append(path)
        init(self, path, *args)

    monkeypatch.setattr(RegionSplit, "__init__", counted_init)
    monkeypatch.setattr(CellGeometry, "probe_states", lambda self, rng: draws.append(self) or probe_states(self, rng))
    return splits, draws


def test_anomalous_transport_builds_one_split_and_draws_probes_per_window(monkeypatch):
    window = random_phase_window(np.random.default_rng(23), 0.2, range(-9, 10), range(-9, 10))
    field = SiteMap(2, window=window, background=params_r(0.2))
    splits, draws = _counting(monkeypatch)
    result = anomalous_transport(field, crossover_path(), [0.25, 0.125, 0.0625])
    assert len(result["traces"]) == 3
    # four fluxes on two window extents: the uncapped one, and the one
    # capped extent of the shared cap reach
    assert len(splits) == 1
    assert len(draws) == 2


def test_a_plan_serves_every_draw_of_an_anomalous_analysis(monkeypatch):
    setup = _setup("cc_anomalous")
    splits, draws = _counting(monkeypatch)
    out = ANALYSES["cc"]["anomalous_transport"](setup, {"epsilons": [0.25, 0.125, 0.0625], "draws": 3}, {})
    assert out["pass"] and out["draws"] == 3
    # the uncapped window and the one capped window, shared by every draw
    assert len(splits) == 1 and len(draws) == 2


def test_an_ensemble_builds_one_split(monkeypatch):
    setup = _setup("cc_rpath")
    splits, draws = _counting(monkeypatch)
    out = ANALYSES["cc"]["ensemble_index"](setup, {"draws": 6}, {})
    assert out["draws"] == 6
    assert len(splits) == 1 and len(draws) == 1


def test_surgery_builds_the_extended_split_once(monkeypatch):
    setup = _setup("cc_rpath")
    setup.flux  # the base index, whose split is not the extended path's
    extended = setup.path.extended(12, 12)
    splits, _ = _counting(monkeypatch)
    out = ANALYSES["cc"]["surgery"](setup, {"reroutes": 6}, {})
    assert out["pass"] and out["reroutes"] >= 2
    assert sum(path.middle == extended.middle for path in splits) == 1


def test_surgery_analyses_each_distinct_reroute_once(monkeypatch):
    # a repeated reroute reads the index and difference rank of its first
    # draw: one split of the extended path, then at most two per distinct
    # path (its flux window's and its difference rank's); random_bump still
    # runs for every reroute, so the draws do not change
    setup = _setup("cc_rpath")
    setup.flux
    bumps, random_bump = [], cc_module.random_bump
    monkeypatch.setattr(cc_module, "random_bump", lambda *args: bumps.append(random_bump(*args)) or bumps[-1])
    splits, _ = _counting(monkeypatch)
    out = ANALYSES["cc"]["surgery"](setup, {"reroutes": 20}, {})
    distinct = {bumped[0].middle for bumped in bumps if bumped is not None}
    assert out["pass"] and len(bumps) == 20
    assert len(distinct) < out["reroutes"]  # 11 distinct paths in 20 reroutes
    assert len(splits) <= 1 + 2 * len(distinct)


# ---------------------------------------------------------------------------
# box rows, not label tuples


@pytest.mark.parametrize("capped_tail", [False, True], ids=["bundled", "capped"])
def test_a_cc_analysis_builds_no_label_tuples_of_its_box(monkeypatch, capped_tail):
    # ``SiteIndex.sites`` tuples every label of a box, about 1 260 on a CC
    # box; the spectrum's error labels, the certificate witness and the
    # kernel states need one row's label at a time at most
    reads = []
    sites = SiteIndex.sites
    monkeypatch.setattr(SiteIndex, "sites", property(lambda index: reads.append(index) or sites.fget(index)))
    if capped_tail:
        path = crossover_path()
        flux = cc_flux(capped(SiteMap(2, background=params_r(0.2)), path), path)
        assert flux.tail_zero
    else:
        flux = _setup("cc_crossover_critical").flux
    assert abs(analyze(flux).index) == 1
    build_perturbed(flux.geometry.unitary, flux)
    assert not [index for index in reads if index is flux.box.index]
