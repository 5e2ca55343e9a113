"""Lead networks against the per-site reference, and their input checks.

``reference_state`` keeps the lead constructor's checks, the junctions
recomputed from ``LeadSpec.site``/``LeadSpec.tangent`` and the coin
synthesis that completed a fresh coin per constrained site and walked each
ray's run through the background box.  A lead must pass or fail the same
checks, keep the same geometry, and synthesize the same coin bit for bit:
its window sites in the same order, its window coins and its ray layers,
or fail with the same message.  The work saved is pinned too: parsing and
synthesis recompute no lead site per parameter, and a network synthesized
again completes no new coin.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_state as ref
from fluxwalk import scenarios, walks
from fluxwalk.cli import bundled_scenarios, main
from fluxwalk.errors import ValidationError
from fluxwalk.lattice import all_direction_vectors
from fluxwalk.walks import BoundarySpec, LeadSpec, ValidNetwork

DIRS = all_direction_vectors(2)


def outcome(call):
    """``("ok", value)``, or ``("error", message)`` of a ``ValidationError``."""
    try:
        return "ok", call()
    except ValidationError as exc:
        return "error", str(exc)


def lead_args(kind, start, steps, ray):
    """The constructor arguments of a lead that starts at ``start`` and
    takes the unit steps ``steps``, slot numbers into ``DIRS``."""
    sites = [tuple(start)]
    for k in steps:
        sites.append(tuple(a + b for a, b in zip(sites[-1], DIRS[k])))
    return kind, sites, DIRS[ray]


def twin_args(lead, shift, same_kind):
    """A one-site lead on the line of ``lead``'s ray, ``shift`` steps from
    its base, whose ray takes the same step: the two tails merge where the
    kinds differ and overlap tangentially where they agree."""
    ray = lead.ray_family[0]
    kind = lead.kind if same_kind else {"outgoing": "incoming", "incoming": "outgoing"}[lead.kind]
    return kind, [tuple(b + shift * s for b, s in zip(ray.base, ray.step))], ray.step


LEAD = st.tuples(
    st.sampled_from(["incoming", "outgoing"]),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.lists(st.integers(0, 3), max_size=4),
    st.integers(0, 3),
)
# on the plane y = 0 the leads step and point along x, and now and then
# along +y (slot 2), off the plane
PLANE_LEAD = st.tuples(
    st.sampled_from(["incoming", "outgoing"]),
    st.tuples(st.integers(-3, 3), st.just(0)),
    st.lists(st.sampled_from([0, 0, 1, 1, 2]), max_size=3),
    st.sampled_from([0, 0, 1, 1, 2]),
)
NETWORK = st.one_of(
    st.tuples(st.just(False), st.lists(LEAD, min_size=1, max_size=4)),
    st.tuples(st.just(True), st.lists(PLANE_LEAD, min_size=1, max_size=3)),
)
TWIN = st.none() | st.tuples(st.integers(-3, 6), st.booleans())


def build(boundary, drawn, twin, seed):
    """The leads drawn that construct, each checked against the reference
    checks and the per-t geometry, as a network taken unchecked, and a
    background coin for it."""
    leads = []
    for args in drawn:
        made = outcome(lambda: LeadSpec(*args))
        assert made[0] == outcome(lambda: ref.check_lead(*args))[0]
        if made[0] == "error":
            assert made == outcome(lambda: ref.check_lead(*args))
            continue
        lead = made[1]
        m = len(lead.prefix)
        window = range(1, m + 1) if lead.kind == "outgoing" else range(-m, 0)
        assert lead.window_pairs == tuple((lead.site(t), lead.tangent(t)) for t in window)
        assert lead.constraint_items == ref.junctions(lead)
        leads.append(lead)
    if twin is not None and leads:
        made = outcome(lambda: LeadSpec(*twin_args(leads[0], *twin)))
        leads += [made[1]] if made[0] == "ok" else []
    incoming = tuple(lead for lead in leads if lead.kind == "incoming")
    outgoing = tuple(lead for lead in leads if lead.kind == "outgoing")
    # synthesis takes a ValidNetwork unchecked, so one built past the check
    # shows the conflicting constraints that the check keeps out
    network = ValidNetwork(incoming, outgoing, BoundarySpec(2) if boundary else None)
    rng = np.random.default_rng(seed)
    background = walks.reflecting_coin(2, rng, box=2) if boundary else walks.random_background(rng, 2, box=2)
    return network, background


def assert_same_coin(coin, reference):
    assert coin.window_coords.tobytes() == reference.window_coords.tobytes()
    assert np.asarray(coin.window_values).tobytes() == np.asarray(reference.window_values).tobytes()
    assert [ray for ray, _ in coin.rays] == [ray for ray, _ in reference.rays]
    for (_, pattern), (_, expected) in zip(coin.rays, reference.rays):
        assert [np.asarray(m).tobytes() for m in pattern] == [np.asarray(m).tobytes() for m in expected]
    assert coin.planes == reference.planes and coin.background is reference.background


@settings(max_examples=150, deadline=None)
@given(NETWORK, TWIN, st.integers(0, 2**16))
# an outgoing lead east and an incoming lead flowing east on its row: tails merge
@example((False, [("outgoing", (0, 0), [], 0), ("incoming", (5, 0), [1], 0)]), None, 17)
# rays crossing at one site, one of them through another lead's prefix
@example((False, [("outgoing", (0, 0), [], 2), ("outgoing", (-2, 3), [], 0), ("incoming", (1, -1), [2], 3)]), None, 3)
# opposed rays on one line, meeting in a finite stretch
@example((False, [("outgoing", (0, 0), [], 0), ("outgoing", (6, 0), [], 1)]), None, 4)
# the same tangent twice along one line
@example((False, [("outgoing", (0, 0), [], 0)]), (2, True), 5)
# a surface lead on the boundary, and one that leaves it
@example((True, [("outgoing", (1, 0), [], 0)]), None, 22)
@example((True, [("outgoing", (1, 0), [2], 0)]), None, 22)
# a ray that starts outside the background box, and one that runs across it
@example((False, [("outgoing", (3, 3), [0, 0], 0), ("incoming", (-3, 2), [], 0)]), None, 8)
# a ray whose base is the last site of the widened box (box 2, grown by 2)
@example((False, [("outgoing", (-3, 0), [], 1)]), None, 0)
def test_synthesis_matches_the_per_site_reference(network_draw, twin, seed):
    boundary, drawn = network_draw
    network, background = build(boundary, [lead_args(*lead) for lead in drawn], twin, seed)
    synthesized = outcome(lambda: walks.synthesize_lead_coin(network, background))
    reference = outcome(lambda: ref.synthesize_lead_coin(network, background))
    assert synthesized[0] == reference[0]
    if synthesized[0] == "ok":
        assert_same_coin(synthesized[1], reference[1])
    else:
        assert synthesized == reference


@pytest.mark.parametrize(
    "leads, message",
    [
        # a ray runs straight through a turn of another lead
        (
            [("outgoing", [(0, 0), (1, 0), (1, 1)], (0, 1)), ("outgoing", [(-3, 0)], (1, 0))],
            "conflicting coin constraints at (1, 0): slot 0 must map to both 2 and 0",
        ),
        # a ray enters a turn from below: two inputs share one output
        (
            [("outgoing", [(0, 0), (1, 0), (1, 1)], (0, 1)), ("outgoing", [(1, -3)], (0, 1))],
            "conflicting coin constraints: outputs [2, 2]",
        ),
    ],
    ids=["same_input", "same_output"],
)
def test_conflicting_constraints_name_the_reference_offender(leads, message):
    made = [LeadSpec(*args) for args in leads]
    network = ValidNetwork(
        tuple(lead for lead in made if lead.kind == "incoming"),
        tuple(lead for lead in made if lead.kind == "outgoing"),
    )
    with pytest.raises(ValidationError, match="tangential crossing"):
        walks.validate_network(network)
    background = walks.random_background(np.random.default_rng(0), 2, box=4)
    for synthesize in (walks.synthesize_lead_coin, ref.synthesize_lead_coin):
        with pytest.raises(ValidationError, match=re.escape(message)):
            synthesize(network, background)


@pytest.mark.parametrize("name", ["two_incoming_leads", "two_outgoing_leads", "bulk_boundary_leads", "lead_in_out"])
def test_a_lead_network_is_built_without_per_parameter_sites(monkeypatch, name):
    spec = json.loads(bundled_scenarios()[name].read_text())
    d = spec["geometry"]["d"]
    for method in ("site", "tangent"):
        monkeypatch.setattr(LeadSpec, method, lambda *args: pytest.fail("a lead site recomputed per parameter"))
    network = scenarios._network_from_json(spec["projection"], d)
    rng = np.random.default_rng(0)
    background = walks.reflecting_coin(d, rng, box=4) if network.boundary else walks.random_background(rng, d, box=4)
    coin = walks.synthesize_lead_coin(network, background)
    # each completion is built once and shared read-only; the window holds copies
    built = walks._complete_unitary.cache_info().misses
    again = walks.synthesize_lead_coin(network, background)
    assert walks._complete_unitary.cache_info().misses == built
    assert np.asarray(again.window_values).tobytes() == np.asarray(coin.window_values).tobytes()
    assert not walks._complete_unitary(2 * d, ((0, 0),)).flags.writeable
    assert np.asarray(coin.window_values).flags.writeable


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("outgoing", 0, "prefix", 0), [0], "outgoing[0] lead site must be a list of 2 integers, got [0]"),
        (("outgoing", 1, "ray"), [0, 1, 0], "outgoing[1] lead ray must be a list of 2 integers, got [0, 1, 0]"),
    ],
    ids=["prefix_site", "ray"],
)
def test_a_lead_coordinate_count_is_checked_against_the_geometry(tmp_path, capsys, where, value, message):
    # a dropped coordinate of a prefix site used to escape as a ValueError
    spec = json.loads(bundled_scenarios()["two_outgoing_leads"].read_text())
    target = spec["projection"]
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        scenarios.validate_scenario(spec)
    scenario_file = tmp_path / "short_site.json"
    scenario_file.write_text(json.dumps(spec))
    assert main(["validate", str(scenario_file)]) == 3
    assert main(["run", str(scenario_file), "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", [[], {}, 1, None], ids=["list", "object", "number", "null"])
def test_a_kind_that_is_not_a_string_fails_validation(tmp_path, capsys, kind):
    # a list or an object used to escape as a TypeError (unhashable type)
    spec = json.loads(bundled_scenarios()["basic_example"].read_text())
    spec["kind"] = kind
    message = f"unknown scenario kind {kind!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        scenarios.validate_scenario(spec)
    scenario_file = tmp_path / "kind.json"
    scenario_file.write_text(json.dumps(spec))
    assert main(["validate", str(scenario_file)]) == 3
    assert main(["run", str(scenario_file), "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err
