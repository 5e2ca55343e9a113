import itertools
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_state as ref
from reference_state import bulk_boundary_flux, lead_flux_index
from fluxwalk import scenarios
from fluxwalk import walks as walks_module
from fluxwalk.cli import bundled_scenarios
from fluxwalk.errors import ValidationError
from fluxwalk.fields import Ray, SiteMap, interpolate_matrix_fields
from fluxwalk.flux import analyze, index_stability_probe
from fluxwalk.lattice import (
    LatticeState,
    direction_index,
    haar_unitary,
    index_of_vector,
    random_state,
)
from fluxwalk.walks import (
    BoundarySpec,
    LeadSpec,
    NetworkSpec,
    boundary_projection_full,
    build_walk,
    build_walk_flux,
    check_lead_count,
    halfline_projection,
    network_projection,
    perturb_coin_window,
    random_background,
    random_network,
    reflecting_coin,
    synthesize_lead_coin,
    validate_network,
    verify_confinement,
    verify_wandering,
    walk_index,
)


def commuting_coin(rng, n, slot):
    rest = [k for k in range(n) if k != slot]
    m = np.zeros((n, n), dtype=complex)
    m[slot, slot] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    u = haar_unitary(rng, len(rest))
    for a, sa in enumerate(rest):
        for c, sc in enumerate(rest):
            m[sc, sa] = u[c, a]
    return m


def halfline_coin(rng, d, sign, box=3):
    import itertools as it

    n = 2 * d
    slot = direction_index(1, sign)
    window = {}
    for site in it.product(*([range(-box, box + 1)] * d)):
        window[site] = haar_unitary(rng, n)
    for x in range(1, box + 1):
        window[tuple([x] + [0] * (d - 1))] = commuting_coin(rng, n, slot)
    base = tuple([1] + [0] * (d - 1))
    step = tuple([1] + [0] * (d - 1))
    return SiteMap(
        d,
        window=window,
        rays=[(Ray(base, step), [commuting_coin(rng, n, slot)])],
        background=np.eye(n, dtype=complex),
    )


# ---------------------------------------------------------------------------
# half-line examples


@pytest.mark.parametrize("sign,expected", [(1, 1), (-1, -1)])
def test_halfline_index_in_z2(sign, expected):
    rng = np.random.default_rng(42 + sign)
    coin = halfline_coin(rng, 2, sign)
    report, flux = walk_index(coin, halfline_projection(2, sign))
    assert report.index == expected
    # flux concentrates where the shifted projection disagrees with the
    # original: the origin for the forward lead, the first ray site backward
    assert ref.kept_labels(flux) == ([(0, 0)] if sign == 1 else [(1, 0)])


def test_halfline_index_in_z3():
    rng = np.random.default_rng(5)
    coin = halfline_coin(rng, 3, 1, box=2)
    report, _ = walk_index(coin, halfline_projection(3, 1))
    assert report.index == 1


# ---------------------------------------------------------------------------
# leads and networks


def test_lead_spec_validation():
    with pytest.raises(ValidationError):
        LeadSpec("outgoing", [(0, 0), (2, 0)], (1, 0))  # non-unit prefix step
    with pytest.raises(ValidationError):
        LeadSpec("outgoing", [(0, 0), (1, 0)], (-1, 0))  # ray re-enters prefix
    with pytest.raises(ValidationError):
        LeadSpec("sideways", [(0, 0)], (1, 0))
    with pytest.raises(ValidationError):
        LeadSpec("outgoing", [(0, 0)], (1, 1))  # not a lattice direction
    with pytest.raises(ValidationError, match="ray direction must be a unit lattice step"):
        LeadSpec("outgoing", [(0, 0)], (1.5, 0))
    with pytest.raises(ValidationError, match="lead prefix must take unit steps"):
        LeadSpec("outgoing", [(0, 0), (0.5, 0.5)], (1, 0))
    with pytest.raises(ValidationError, match="same number of coordinates"):
        LeadSpec("outgoing", [(0, 0), (1,)], (1, 0))
    with pytest.raises(ValidationError, match="same number of coordinates"):
        LeadSpec("outgoing", [(0, 0)], (1, 0, 0))


def test_lead_parametrization_and_tangents():
    lead = LeadSpec("outgoing", [(0, 0), (0, 1), (1, 1)], (1, 0))
    assert ref.lead_site(lead, 1) == (0, 0)
    assert ref.lead_site(lead, 3) == (1, 1)
    assert ref.lead_site(lead, 5) == (3, 1)
    # head tangent convention: tangent at the head equals the next one
    assert ref.lead_tangent(lead, 1) == ref.lead_tangent(lead, 2) == (0, 1)
    assert ref.lead_tangent(lead, 3) == (1, 0)
    assert ref.lead_tangent(lead, 4) == (1, 0)

    incoming = LeadSpec("incoming", [(0, 2), (0, 1), (0, 0)], (0, 1))
    assert ref.lead_site(incoming, -1) == (0, 0)
    assert ref.lead_site(incoming, -3) == (0, 2)
    assert ref.lead_site(incoming, -5) == (0, 4)
    assert ref.lead_tangent(incoming, -1) == (0, -1)
    assert ref.lead_tangent(incoming, -4) == (0, -1)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_a_lead_keeps_its_geometry_as_the_per_t_recomputation(seed):
    network = random_network(np.random.default_rng(seed), 2, 2)
    for lead in network.leads():
        m, sign = len(lead.prefix), 1 if lead.kind == "outgoing" else -1
        window, junctions = (range(1, m + 1), range(1, m + 1)) if sign > 0 else (range(-m, 0), range(-m - 1, -1))
        pairs = tuple((ref.lead_site(lead, t), ref.lead_tangent(lead, t)) for t in window)
        items = tuple(
            (ref.lead_site(lead, t), index_of_vector(ref.lead_tangent(lead, t)), index_of_vector(ref.lead_tangent(lead, t + 1)))
            for t in junctions
        )
        assert lead.window_pairs == pairs and lead.constraint_items == items
        ray, tangent, slot = lead.ray_family
        tail = [sign * (m + 1 + k) for k in range(4)]
        assert [ray.site_at(k) for k in range(4)] == [ref.lead_site(lead, t) for t in tail]
        assert {tangent} == {ref.lead_tangent(lead, t + sign) for t in tail} and slot == index_of_vector(tangent)
        # read-only tuples of tuples, computed once
        kept = (lead.window_pairs, lead.constraint_items, lead.ray_family)
        assert all(type(entry) is tuple for entry in (*kept, *lead.window_pairs, *lead.constraint_items))
        assert lead.window_pairs is lead.window_pairs and lead.constraint_items is lead.constraint_items


def test_tangential_crossing_detected():
    a = LeadSpec("outgoing", [(0, 0)], (0, 1))
    b = LeadSpec("outgoing", [(0, -3), (0, -2), (0, -1), (0, 0)], (0, 1))
    with pytest.raises(ValidationError, match="tangential"):
        validate_network(NetworkSpec(outgoing=(a, b)))


def test_ray_ray_tangential_overlap_detected():
    # same line, same tangent: outgoing east vs an eastward-flowing incoming
    # lead whose tail covers the same row
    a = LeadSpec("outgoing", [(0, 0)], (1, 0))
    b = LeadSpec("incoming", [(8, 0), (9, 0)], (-1, 0))
    with pytest.raises(ValidationError, match="tangential"):
        validate_network(NetworkSpec(outgoing=(a,), incoming=(b,)))


def test_opposed_tangents_on_one_line_are_legal():
    # an eastward outgoing lead and a westward incoming lead may share their
    # ray sites: the tangents differ, and the merged coin conducts both ways
    rng = np.random.default_rng(17)
    a = LeadSpec("outgoing", [(0, 0)], (1, 0))
    b = LeadSpec("incoming", [(5, 0), (4, 0)], (1, 0))
    net = NetworkSpec(outgoing=(a,), incoming=(b,))
    validate_network(net)
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
    report, _ = lead_flux_index(net, coin)
    assert report.index == 0


def test_non_tangential_site_sharing_is_fine():
    a = LeadSpec("outgoing", [(0, 0)], (0, 1))
    b = LeadSpec("outgoing", [(0, 0)], (-1, 0))
    validate_network(NetworkSpec(outgoing=(a, b)))
    proj = network_projection(NetworkSpec(outgoing=(a, b)))
    assert proj.open_slots((0, 0)) == {
        index_of_vector((0, 1)),
        index_of_vector((-1, 0)),
    }


def test_named_examples_from_leads():
    rng = np.random.default_rng(3)
    bg = random_background(rng, 2, box=4)
    rho1 = LeadSpec("outgoing", [(0, 0)], (0, 1))
    rho2 = LeadSpec("outgoing", [(0, 0)], (-1, 0))
    net = NetworkSpec(outgoing=(rho1, rho2))
    report, _ = lead_flux_index(net, synthesize_lead_coin(net, bg))
    assert report.index == 2

    gamma = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    net2 = NetworkSpec(incoming=(gamma,), outgoing=(rho2,))
    report2, _ = lead_flux_index(net2, synthesize_lead_coin(net2, bg))
    assert report2.index == 0


def test_lead_flux_index_checks_its_inputs():
    # the coin must conduct along every lead, and the index must count leads
    rng = np.random.default_rng(24)
    net = NetworkSpec(outgoing=(LeadSpec("outgoing", [(0, 0)], (0, 1)),))
    with pytest.raises(ValidationError, match="conduction violated"):
        lead_flux_index(net, random_background(rng, 2, box=3))
    report, _ = lead_flux_index(net, synthesize_lead_coin(net, random_background(rng, 2, box=3)))
    check_lead_count(report, net)
    with pytest.raises(ValidationError, match="n_out - n_in"):
        check_lead_count(report, NetworkSpec(outgoing=net.outgoing * 2))


def test_single_lead_flux_is_rank_one():
    # outgoing lead: the flux is the pulled-back head projection
    rng = np.random.default_rng(6)
    lead = LeadSpec("outgoing", [(0, 0)], (0, 1))
    net = NetworkSpec(outgoing=(lead,))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
    report, flux = lead_flux_index(net, coin)
    assert report.index == 1
    assert abs(report.odd_trace - 1) < 1e-9
    walk = build_walk(coin)
    head = LatticeState.basis((0, 0), index_of_vector((0, 1)), 4)
    pulled = walk.apply_adjoint(head)
    psi = random_state(rng, [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)], 4)
    expected = pulled.scaled(pulled.inner(psi))
    assert (ref.flux_apply(flux, psi) - expected).norm() < 1e-12


def test_single_incoming_lead_flux_is_negative_head_projection():
    rng = np.random.default_rng(7)
    lead = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    net = NetworkSpec(incoming=(lead,))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
    report, flux = lead_flux_index(net, coin)
    assert report.index == -1
    end = LatticeState.basis((0, 0), index_of_vector((0, -1)), 4)
    psi = random_state(rng, [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)], 4)
    expected = end.scaled(end.inner(psi)).scaled(-1.0)
    assert (ref.flux_apply(flux, psi) - expected).norm() < 1e-12


def test_lead_additivity_over_disjoint_projections():
    rng = np.random.default_rng(8)
    lead_a = LeadSpec("outgoing", [(0, 0)], (0, 1))
    lead_b = LeadSpec("incoming", [(4, 0), (3, 0)], (1, 0))
    net = NetworkSpec(outgoing=(lead_a,), incoming=(lead_b,))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
    total, _ = lead_flux_index(net, coin)
    a_only, _ = walk_index(coin, network_projection(NetworkSpec(outgoing=(lead_a,))))
    b_only, _ = walk_index(coin, network_projection(NetworkSpec(incoming=(lead_b,))))
    assert total.index == a_only.index + b_only.index == 0


def test_wandering_along_leads():
    rng = np.random.default_rng(10)
    out_lead = LeadSpec("outgoing", [(0, 0), (1, 0)], (0, 1))
    in_lead = LeadSpec("incoming", [(-4, 2), (-4, 1), (-4, 0)], (0, 1))
    net = NetworkSpec(outgoing=(out_lead,), incoming=(in_lead,))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=4))
    walk = build_walk(coin)
    rep = verify_wandering(walk, out_lead, 50)
    assert rep.ok and rep.max_overlap <= 1e-12 and rep.transport_defect <= 1e-12
    rep_in = verify_wandering(walk, in_lead, 50)
    assert rep_in.ok


def test_wandering_failure_detected():
    # the swap coin sends +e to -e and -e back to -(+e): the walker started
    # on a lead's head returns to it, up to sign, every second step, so it
    # neither wanders nor travels along the lead
    lead = LeadSpec("outgoing", [(0,)], (1,))
    walk = build_walk(SiteMap(1, background=np.array([[0, -1], [1, 0]], dtype=complex)))
    rep = verify_wandering(walk, lead, 5)
    assert rep.overlaps == [0.0, 1.0, 0.0, 1.0, 0.0]
    assert rep.worst_step == 2 and rep.max_overlap == 1.0
    assert not rep.transport_ok and rep.transport_defect == 1.0
    assert not rep.ok
    # a map that moves the walker along the lead exactly and keeps a copy on
    # the head, not unitary, passes the transport check and fails on the
    # overlap alone
    head, t = LatticeState.basis((0,), 0, 2), itertools.count(2)
    echo = SimpleNamespace(n_internal=2, apply=lambda psi: head + LatticeState.basis(ref.lead_site(lead, next(t)), 0, 2))
    rep = verify_wandering(echo, lead, 3)
    assert rep.transport_ok and rep.transport_defect == 0.0
    assert rep.overlaps == [1.0, 1.0, 1.0] and not rep.ok


LEAD_SCENARIOS = ["two_incoming_leads", "two_outgoing_leads", "bulk_boundary_leads", "lead_in_out", "lead_stability"]


def assert_wandering_matches_the_per_t_reference(unitary, lead, k_max):
    got, want = verify_wandering(unitary, lead, k_max), ref.verify_wandering(unitary, lead, k_max)
    assert got.overlaps == want.overlaps and len(got.overlaps) == k_max
    assert (got.max_overlap, got.worst_step) == (want.max_overlap, want.worst_step)
    assert got.transport_defect == want.transport_defect
    assert (got.ok, got.transport_ok) == (want.ok, want.transport_ok)


@pytest.mark.parametrize("name", LEAD_SCENARIOS)
def test_wandering_walks_the_lead_as_the_per_t_reference(name):
    # iterate k is read at the k-th site after the head, along the window
    # pairs and on along the ray: the per-t site and tangent, bit for bit
    setup = scenarios._checked_setup(json.loads(bundled_scenarios()[name].read_text()))
    for lead in setup.network.leads():
        for k_max in (1, len(lead.prefix), len(lead.prefix) + 1, 50):
            assert_wandering_matches_the_per_t_reference(setup.unitary, lead, k_max)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]),
    st.booleans(),
    st.integers(-2, 6),
)
def test_wandering_on_random_networks_matches_the_per_t_reference(seed, counts, conducting, past):
    # incoming and outgoing leads, k_max short of, at and past the prefix;
    # without the lead coin the walker leaves the lead, so the overlaps and
    # the transport defect are not all 0 and 1
    rng = np.random.default_rng(seed)
    network = random_network(rng, *counts, box=8)
    background = random_background(rng, 2, box=3)
    walk = build_walk(synthesize_lead_coin(network, background) if conducting else background)
    for lead in network.leads():
        assert_wandering_matches_the_per_t_reference(walk, lead, max(1, len(lead.prefix) + past))


def test_random_networks_index(subtests=None):
    rng = np.random.default_rng(99)
    for _ in range(10):
        n_in = int(rng.integers(0, 3))
        n_out = int(rng.integers(0, 3))
        if n_in + n_out == 0:
            n_out = 1
        net = random_network(rng, n_in, n_out, box=8)
        coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
        report, _ = lead_flux_index(net, coin)
        assert report.index == n_out - n_in


# ---------------------------------------------------------------------------
# bulk boundaries


def test_bulk_boundary_flux_vanishes():
    rng = np.random.default_rng(20)
    coin = reflecting_coin(2, rng, box=3)
    flux = bulk_boundary_flux(coin)
    assert not len(flux.kept)
    report = analyze(flux)
    assert report.index == 0


@pytest.mark.parametrize("d_total, box, seed", [(2, 3, 20), (2, 0, 1), (3, 1, 5), (2, 4, 9), (1, 2, 4)])
def test_a_reflecting_coin_keeps_the_per_site_draws(d_total, box, seed):
    # one standard_normal block split per draw and one QR per matrix size
    # give every coin and the plane's of one haar_unitary call per site, and
    # leave the generator where the per-site draws left it
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    coin, want = reflecting_coin(d_total, rng, box=box), ref.reflecting_coin(d_total, reference_rng, box=box)
    assert coin.window_coords.tobytes() == want.window_coords.tobytes()
    assert np.asarray(coin.window_values).tobytes() == np.array(want.window_values).tobytes()
    assert [(p, v.tobytes()) for p, v in coin.planes] == [(p, v.tobytes()) for p, v in want.planes]
    assert coin.background.tobytes() == want.background.tobytes()
    assert rng.random() == reference_rng.random()


def test_bulk_boundary_flux_rejects_a_nan_block_norm(monkeypatch):
    # a NaN norm compares false with the bound and must fail as well
    monkeypatch.setattr(ref, "max_block_norm", lambda flux: float("nan"))
    message = "reflecting configuration has a nonzero flux block (norm nan)"
    with pytest.raises(ValidationError, match=re.escape(message)) as info:
        bulk_boundary_flux(reflecting_coin(2, np.random.default_rng(20), box=3))
    assert info.type is ValidationError


def test_boundary_projection_is_homogeneous():
    proj = boundary_projection_full(2)
    hat = proj.shift_conjugate()
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert len(hat.open_slots((x, y))) == len(proj.open_slots((x, y)))


def test_confinement_above_the_plane():
    rng = np.random.default_rng(21)
    coin = reflecting_coin(2, rng, box=3)
    walk = build_walk(coin)
    assert verify_confinement(walk, rng, steps=30, box=3) <= 1e-12


def test_boundary_with_surface_lead():
    rng = np.random.default_rng(22)
    lead = LeadSpec("outgoing", [(1, 0)], (1, 0))
    net = NetworkSpec(outgoing=(lead,), boundary=BoundarySpec(2))
    coin = synthesize_lead_coin(net, reflecting_coin(2, rng, box=3))
    report, _ = lead_flux_index(net, coin)
    assert report.index == 1
    walk = build_walk(coin)
    assert verify_confinement(walk, rng, steps=30, box=3) <= 1e-12


def test_cell_masks_match_the_shift_conjugate_reference():
    # P_out of the walk cell at x opens slot k iff P opens it at x + dir_k;
    # _ShiftConjugate computes that independently.  Every window and shell
    # label of a lead network and of a bulk boundary is compared.
    rng = np.random.default_rng(25)
    a = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    b = LeadSpec("outgoing", [(6, 0), (7, 0)], (1, 0))
    net = NetworkSpec(incoming=(a,), outgoing=(b,))
    _, lead_flux = lead_flux_index(net, synthesize_lead_coin(net, random_background(rng, 2, box=3)))
    for flux in (lead_flux, bulk_boundary_flux(reflecting_coin(2, rng, box=3))):
        geom = flux.geometry
        hat = geom.proj.shift_conjugate()
        assert not flux.box.window.all()
        labels = flux.box.index.sites  # every window and shell label
        _, p_in, p_out, _, which = geom.block(np.array(labels))
        p_in, p_out = p_in[which], p_out[which]
        for label, p_in_row, p_out_row in zip(labels, p_in, p_out):
            assert np.array_equal(p_in_row, ref.diagonal(geom.proj, label)), label
            assert np.array_equal(p_out_row, ref.diagonal(hat, label)), label


def test_off_boundary_lead_rejected():
    lead = LeadSpec("outgoing", [(0, 1)], (1, 0))
    with pytest.raises(ValidationError, match="boundary"):
        validate_network(NetworkSpec(outgoing=(lead,), boundary=BoundarySpec(2)))


# ---------------------------------------------------------------------------
# homotopy stability


def test_stability_probe_constant_index():
    rng = np.random.default_rng(30)
    net = NetworkSpec(outgoing=(LeadSpec("outgoing", [(0, 0)], (0, 1)),))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
    target = perturb_coin_window(coin, rng, 0.1)
    proj = network_projection(net)

    def family(t):
        return build_walk_flux(build_walk(interpolate_matrix_fields(coin, target, t)), proj, selfcheck=False)

    probes = index_stability_probe(family, 20)
    assert all(p.certified for p in probes)
    assert {p.index for p in probes} == {1}


def test_stability_probe_flags_gap_closing():
    # rotate the coin from the identity toward the direction swap: the tail
    # flux norm grows to 1 and the certificate must flag the end point
    proj = halfline_projection(1, 1)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)

    def family(t):
        theta = t * np.pi / 2
        rot = np.array(
            [
                [np.cos(theta), 1j * np.sin(theta)],
                [1j * np.sin(theta), np.cos(theta)],
            ],
            dtype=complex,
        )
        coin_t = SiteMap(1, background=rot)
        return build_walk_flux(build_walk(coin_t), proj, selfcheck=False)

    probes = index_stability_probe(family, 10)
    assert not probes[-1].certified
    certified = [p for p in probes if p.certified]
    assert certified and {p.index for p in certified} == {1}


def test_trivial_family_is_constant():
    rng = np.random.default_rng(31)
    coin = halfline_coin(rng, 1, 1)
    proj = halfline_projection(1, 1)

    def family(t):
        return build_walk_flux(build_walk(coin), proj, selfcheck=False)

    probes = index_stability_probe(family, 5)
    assert {p.index for p in probes} == {1}


# ---------------------------------------------------------------------------
# one coin table per walk


@pytest.mark.parametrize(
    "coin, message",
    [
        (
            SiteMap(1, window={(0,): np.eye(3)}, background=np.eye(2)),
            "coin matrix at window(0,) has shape (3, 3), expected (2, 2)",
        ),
        (SiteMap(1, background=np.eye(3)), "coin matrix at background has shape (3, 3), expected (2, 2)"),
        (
            SiteMap(1, rays=[(Ray((1,), (1,)), [np.eye(2), 2 * np.eye(2)])], background=np.eye(2)),
            "coin matrix at ray0[1] is not unitary",
        ),
    ],
    ids=["ragged", "shape", "unitary"],
)
def test_build_walk_names_the_first_bad_coin(coin, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        build_walk(coin)


def test_a_walk_reads_the_coin_table_that_build_walk_checked(monkeypatch):
    checked, deviations = [], walks_module.unitary_deviations
    monkeypatch.setattr(walks_module, "unitary_deviations", lambda table: checked.append(table) or deviations(table))
    coin = random_background(np.random.default_rng(3), 2, box=2)
    walk = build_walk(coin)
    table, rows = walk.table_rows(np.array([[0, 0], [5, -1]]))
    assert len(checked) == 1 and table is checked[0]
    assert table[rows].tobytes() == np.array([coin.value((0, 0)), coin.value((5, -1))], dtype=complex).tobytes()
