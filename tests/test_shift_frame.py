"""The shift check on its site frame against the per-step reference.

``reference_state.shift_check`` runs the check as it ran before the frame:
one ``LatticeState`` per step, through the unitary's ``apply`` and
``apply_adjoint`` and the correction applied to lattice states.  On every
instance the frame check must give the same ``ShiftReport`` bit for bit, and
the same orbit halves: their sites in the same order and their values.  The
instances cover swapped pairs and nonzero block maps (non-identity
corrections), a network unitary, a d = 3 lead whose frame box is too large
to read whole and one small enough, and random one- and two-lead networks.  The work
saved is pinned too: the check reads the unitary's table rows once, however
many steps it takes, and no orbit step reads them.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import reference_state as ref
from fluxwalk.errors import CertificationError
from fluxwalk.fields import SiteMap
from fluxwalk.lattice import GRID_CELLS, LatticeState
from fluxwalk.shift import SiteFrame, build_perturbed, extract_kernels, verify_shift_structure
from fluxwalk.walks import (
    LeadSpec,
    NetworkSpec,
    build_walk,
    build_walk_flux,
    network_projection,
    perturb_coin_window,
    random_background,
    random_network,
    synthesize_lead_coin,
)
from test_shift import basic_example, trace_class_cc_flux


def bits(value):
    """A report field as bytes: floats by their IEEE bits, the rest by repr."""
    return struct.pack("<d", value) if isinstance(value, float) else repr(value).encode()


def frame_check(perturbed, k_max, monkeypatch):
    """The report of ``verify_shift_structure`` with its frame's orbit
    halves as (sites, values) pairs, and the frame."""
    seen = {}
    orbit = SiteFrame.orbit

    def kept_orbit(frame, basis, steps):
        halves = orbit(frame, basis, steps)
        seen["frame"], seen["halves"] = frame, [(frame.sites(h.site_array), h.value_array) for h in halves]
        return halves

    with monkeypatch.context() as patch:
        patch.setattr(SiteFrame, "orbit", kept_orbit)
        report = verify_shift_structure(perturbed, k_max=k_max)
    return report, seen["halves"], seen["frame"]


def assert_same_check(perturbed, k_max, monkeypatch):
    report, halves, frame = frame_check(perturbed, k_max, monkeypatch)
    want, want_halves = ref.shift_check(perturbed, k_max)
    assert {k: bits(v) for k, v in report.as_dict().items()} == {k: bits(v) for k, v in want.as_dict().items()}
    for (sites, values), half in zip(halves, want_halves):
        assert sites.tobytes() == half.site_array.tobytes()
        assert values.tobytes() == half.value_array.tobytes()
    return report, frame


def walk_perturbed(coin, proj):
    flux = build_walk_flux(build_walk(coin), proj)
    return build_perturbed(flux, extract_kernels(flux))


def lead_perturbed(seed, incoming=(), outgoing=(), box=3, strength=0.0, d=2):
    rng = np.random.default_rng(seed)
    net = NetworkSpec(incoming=tuple(incoming), outgoing=tuple(outgoing))
    coin = synthesize_lead_coin(net, random_background(rng, d, box=box))
    if strength:
        coin = perturb_coin_window(coin, rng, strength)
    return walk_perturbed(coin, network_projection(net))


TWO_INCOMING = (LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1)), LeadSpec("incoming", [(4, -2), (3, -2)], (1, 0)))
D3_LEAD = LeadSpec("outgoing", [(0, 0, 0), (1, 0, 0)], (1, 0, 0))


def test_the_bundled_walk_instances_keep_their_bits(monkeypatch):
    # the basic example and two incoming leads: no swapped pair, no map
    report, _ = assert_same_check(walk_perturbed(*basic_example(seed=2)), 30, monkeypatch)
    assert report.ok and report.multiplicity == 1
    report, _ = assert_same_check(lead_perturbed(12, incoming=TWO_INCOMING, box=4), 30, monkeypatch)
    assert report.ok and report.multiplicity == 2


def test_non_identity_corrections_keep_their_bits(monkeypatch):
    # a swapped pair (test_paired_kernels_give_finite_rank_part) and nonzero
    # block maps from a nonzero small flux (test_remainder_bound_with_nonzero_small_flux)
    paired = lead_perturbed(
        13, incoming=(LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1)),), outgoing=(LeadSpec("outgoing", [(3, 0)], (1, 0)),)
    )
    assert paired._diffs.n_columns == 1
    assert_same_check(paired, 15, monkeypatch)
    mapped = lead_perturbed(14, outgoing=(LeadSpec("outgoing", [(0, 0)], (0, 1)),), strength=0.3)
    assert len(mapped._map_stack)
    report, _ = assert_same_check(mapped, 15, monkeypatch)
    assert report.ok and report.remainder_norm > 0


def test_a_network_check_keeps_its_bits(monkeypatch):
    # the trace-class CC instance of test_shift, whose check runs on a frame
    # of network points through CCUnitary.frame_step
    _, flux = trace_class_cc_flux()
    perturbed = build_perturbed(flux, extract_kernels(flux))
    assert len(perturbed._map_stack)
    report, _ = assert_same_check(perturbed, 25, monkeypatch)
    assert report.ok


@pytest.mark.parametrize("k_max", [6, 30])
def test_a_three_dimensional_lead_keeps_its_bits(monkeypatch, k_max):
    # at 30 steps the frame's box exceeds GRID_CELLS and coins reads the
    # table rows of the keys it is handed; at 6 the box's rows are read once
    perturbed = lead_perturbed(3, outgoing=(D3_LEAD,), box=1, d=3)
    report, frame = assert_same_check(perturbed, k_max, monkeypatch)
    assert report.ok and report.multiplicity == 1
    assert (np.prod(frame.shape) > GRID_CELLS) == (k_max == 30)
    assert (frame.rows is not None) == (k_max == 6)


LEADS = st.sampled_from([(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)])


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(leads=LEADS, seed=st.integers(0, 2**32 - 1), k_max=st.integers(1, 12), strength=st.sampled_from([0.0, 0.2]))
def test_random_lead_networks_keep_their_bits(leads, seed, k_max, strength):
    rng = np.random.default_rng(seed)
    net = random_network(rng, *leads, box=4)
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
    if strength:
        coin = perturb_coin_window(coin, rng, strength)
    try:
        perturbed = walk_perturbed(coin, network_projection(net))
    except CertificationError:
        assume(False)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_check(perturbed, k_max, monkeypatch)


def test_the_check_reads_table_rows_once_and_no_step_reads_them(monkeypatch):
    # one value_index call for the frame's table rows, and the same count at
    # 15 and 30 steps; none while the orbit runs
    perturbed = lead_perturbed(12, incoming=TWO_INCOMING, box=4)
    calls, in_orbit = [], []
    value_index, orbit = SiteMap.value_index, SiteFrame.orbit
    monkeypatch.setattr(SiteMap, "value_index", lambda self, sites: calls.append(1) or value_index(self, sites))

    def counted_orbit(frame, basis, k_max):
        before = len(calls)
        halves = orbit(frame, basis, k_max)
        in_orbit.append(len(calls) - before)
        return halves

    monkeypatch.setattr(SiteFrame, "orbit", counted_orbit)
    counts = []
    for k_max in (15, 30):
        calls.clear()
        assert verify_shift_structure(perturbed, k_max=k_max).ok
        counts.append(len(calls))
    assert counts[0] == counts[1] and in_orbit == [0, 0]


def test_the_frame_box_holds_the_corrections_however_far_the_states_lie():
    # the swap differences and the block maps' incoming bases are keyed
    # inside the box even when the states handed in lie far from them
    paired = lead_perturbed(
        13, incoming=(LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1)),), outgoing=(LeadSpec("outgoing", [(3, 0)], (1, 0)),)
    )
    mapped = lead_perturbed(14, outgoing=(LeadSpec("outgoing", [(0, 0)], (0, 1)),), strength=0.3)
    for perturbed in (paired, mapped):
        frame = SiteFrame(perturbed, [LatticeState.basis((40, -40), 0, 4)], 1)
        assert frame.sites(frame.diffs.site_array).tobytes() == perturbed._diffs.site_array.reshape(-1, 2).tobytes()
        in_sites, _ = perturbed.base.in_basis(perturbed._map_index.table)
        assert (in_sites >= frame.low).all() and (in_sites < frame.low + frame.shape).all()


@pytest.mark.parametrize("adjoint", [False, True])
def test_a_frame_holds_every_state_within_its_reach(adjoint):
    # a state on one site, stepped as many times as the frame's reach, keeps
    # the bits of the per-step reference: its frontier reaches the box's
    # border on the last step, and no key leaves the box
    perturbed = lead_perturbed(12, incoming=TWO_INCOMING, box=4)
    psi = LatticeState.basis((1, -1), 0, 4)
    frame = SiteFrame(perturbed, [psi], 6)
    step = ref.perturbed_apply_adjoint if adjoint else ref.perturbed_apply
    want, got = psi, frame.state(psi)
    for _ in range(6):
        want, got = step(perturbed, want), frame.apply(got, adjoint)
    assert np.abs(want.site_array - (1, -1)).max() == 6
    assert frame.sites(got.site_array).tobytes() == want.site_array.tobytes()
    assert got.value_array.tobytes() == want.value_array.tobytes()
