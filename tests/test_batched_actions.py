"""Batched state actions against their per-site references, bit for bit.

Walk steps, projections, network steps and cell-block actions gather the
rows of a packed state, multiply stacked matrices and scatter the result.
Each must give exactly the state that the per-site loop in
``reference_state`` gives, row order included.  On a stack of K states each
action must give the K single-column results: within 1e-14 in general, and
bit for bit for the dense compression of a unitary (``matrix_on_window``),
a single product on basis columns of exact zeros and ones.
"""

import copy
import itertools
import sys
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_state as ref
from fluxwalk.cc import (
    CRITICAL,
    FULL_REFLECTION,
    CCUnitary,
    RegionSplit,
    cc_flux,
    crossover_path,
    random_phase_window,
    wiggled_r_path,
)
from fluxwalk.errors import DimensionMismatchError
from fluxwalk.fields import SiteMap
from fluxwalk.lattice import DICT_GROUPING, LatticeState, SiteIndex
from fluxwalk.operators import matrix_on_window
from fluxwalk.flux import CellGeometry
from fluxwalk.shift import SiteFrame, build_perturbed, extract_kernels, verify_shift_structure
from fluxwalk.walks import (
    LeadSpec,
    NetworkSpec,
    boundary_projection_full,
    build_walk,
    build_walk_flux,
    network_projection,
    random_background,
    random_network,
    reflecting_coin,
    synthesize_lead_coin,
)
from test_assembly import reference_block
from test_cc import capped
from test_flux import make_basic_example
from test_shift import basic_example

seeds = st.integers(0, 2**32 - 1)


def random_packed(rng, lo, hi, n, size):
    """A state on up to ``size`` random sites of the box [lo, hi]; some
    entries are exact zeros of either sign and some rows vanish."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    sites = {tuple(rng.integers(lo, hi + 1).tolist()) for _ in range(size)}
    entries = {}
    for site in sites:
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kind = rng.integers(4)
        if kind == 1:
            vec[rng.random(n) < 0.5] = rng.choice([0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0)])
        elif kind == 2:
            vec[:] = 0.0
        entries[site] = vec
    return ref.state(n, entries)


# ---------------------------------------------------------------------------
# models: layered coins (window, rays, planes, half-spaces, background) and
# network fields on crossover and pure-r paths


@lru_cache(maxsize=None)
def walk_model(name):
    rng = np.random.default_rng(5)
    if name == "basic_example":
        coin, proj = make_basic_example()
    elif name == "lead_network":
        network = random_network(rng, 2, 1, box=5)
        coin = synthesize_lead_coin(network, random_background(rng, 2, box=3))
        proj = network_projection(network)
    else:
        coin, proj = reflecting_coin(2, rng, box=2), boundary_projection_full(2)
    return build_walk_flux(build_walk(coin), proj)


@lru_cache(maxsize=None)
def cc_model(name):
    rng = np.random.default_rng(9)
    if name == "crossover_capped":
        path = crossover_path()
        field = capped(SiteMap(2, background=CRITICAL), path)
    else:
        path = wiggled_r_path()
        window = random_phase_window(rng, 0.6, range(-4, 5), range(-4, 5))
        field = SiteMap(2, window=window, background=FULL_REFLECTION)
    return cc_flux([field], path)[0]


WALKS = ["basic_example", "lead_network", "reflecting"]
NETWORKS = ["crossover_capped", "random_phases"]


def _states(flux, seed, count=4, size=12):
    rng = np.random.default_rng(seed)
    lo, hi = np.array(flux.geometry.window.lo) - 3, np.array(flux.geometry.window.hi) + 3
    n = flux.geometry.state_dim
    return [random_packed(rng, lo, hi, n, size) for _ in range(count)]


def _short_and_long_states(flux, seed):
    """``_states``, then one state drawn from ``4 * DICT_GROUPING`` sites of
    the box, widened where needed to hold ``6 * DICT_GROUPING`` sites, so
    that the actions meet states on both sides of ``DICT_GROUPING`` (the
    long state had more than 100 sites on each of a thousand seeds tried)."""
    states = _states(flux, seed)
    rng = np.random.default_rng([seed, 1])
    lo, hi = np.array(flux.geometry.window.lo) - 3, np.array(flux.geometry.window.hi) + 3
    while np.prod(hi - lo + 1) < 6 * DICT_GROUPING:
        lo, hi = lo - 3, hi + 3
    return states + [random_packed(rng, lo, hi, flux.geometry.state_dim, 4 * DICT_GROUPING)]


# ---------------------------------------------------------------------------
# walk and network steps


@pytest.mark.parametrize("name", WALKS)
@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_walk_step_matches_per_site_reference(name, seed):
    walk = walk_model(name).geometry.unitary
    for psi in _short_and_long_states(walk_model(name), seed):
        assert ref.same_state(walk.apply(psi), ref.walk_apply(walk, ref.to_dict(psi)))
        assert ref.same_state(
            walk.apply_adjoint(psi), ref.walk_apply_adjoint(walk, ref.to_dict(psi))
        )


@pytest.mark.parametrize("name", NETWORKS)
@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_network_step_matches_per_site_reference(name, seed):
    unitary = cc_model(name).geometry.unitary
    assert isinstance(unitary, CCUnitary)
    for psi in _states(cc_model(name), seed):
        assert ref.same_state(unitary.apply(psi), ref.cc_apply(unitary, ref.to_dict(psi)))
        assert ref.same_state(
            unitary.apply_adjoint(psi), ref.cc_apply_adjoint(unitary, ref.to_dict(psi))
        )


# ---------------------------------------------------------------------------
# projections


@pytest.mark.parametrize("name", WALKS)
@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_adapted_projection_matches_per_site_reference(name, seed):
    proj = walk_model(name).geometry.proj
    for psi in _short_and_long_states(walk_model(name), seed):
        for p in (proj, proj.shift_conjugate(), proj.complement()):
            assert ref.same_state(p.apply(psi), ref.projection_apply(p, ref.to_dict(psi)))


@pytest.mark.parametrize("name", NETWORKS)
@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_region_projection_matches_per_site_reference(name, seed):
    split = cc_model(name).geometry.proj
    for psi in _states(cc_model(name), seed, size=40):
        assert ref.same_state(split.apply(psi), ref.region_apply(split, ref.to_dict(psi)))


# ---------------------------------------------------------------------------
# cell blocks


def random_cell_maps(flux, rng):
    """Random maps on some of the box cells, as ``PerturbedUnitary`` keeps
    them: the dict the reference reads, and the lookup and the one stack
    that ``CellGeometry.apply_blocks`` takes."""
    k = flux.box.flux.shape[1]
    maps = {
        label: rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        for label in flux.box.index.sites
        if rng.random() < 0.5
    }
    index = SiteIndex(np.array(list(maps), dtype=np.int64).reshape(-1, len(flux.geometry.window.lo)))
    return maps, index.rows, np.array(list(maps.values())).reshape(-1, k, k)


@pytest.mark.parametrize("name", WALKS + NETWORKS)
@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_cell_blocks_match_per_cell_reference(name, seed):
    flux = walk_model(name) if name in WALKS else cc_model(name)
    geometry = flux.geometry
    rng = np.random.default_rng(seed)
    k = flux.box.flux.shape[1]
    maps, rows_of, matrices = random_cell_maps(flux, rng)

    def adjoint_at(label):
        m = maps.get(label)
        return None if m is None else m.conj().T

    for psi in _states(flux, seed, size=20):
        assert ref.same_state(
            ref.flux_apply(flux, psi),
            ref.apply_blocks(geometry, ref.to_dict(psi), lambda label: reference_block(geometry, label)),
        )
        assert ref.same_state(
            geometry.apply_blocks(psi, rows_of, [matrices]),
            ref.apply_blocks(geometry, ref.to_dict(psi), maps.get),
        )
        assert ref.same_state(
            geometry.apply_blocks(psi, rows_of, [matrices], adjoint=True),
            ref.apply_blocks(geometry, ref.to_dict(psi), adjoint_at),
        )
        # an empty stack leaves every cell alone
        empty = geometry.apply_blocks(psi, rows_of, [np.zeros((0, k, k), dtype=complex)])
        assert empty.support_size() == 0 and empty.n_columns == psi.n_columns
    label = flux.box.index.sites[rng.integers(len(flux.box.index.sites))]
    coords = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    coords[0] = -0.0
    assert ref.same_state(
        geometry.make_state(label, coords), ref.cell_state(geometry, label, coords)
    )


def test_empty_states_pass_through_every_action():
    for flux in (walk_model("basic_example"), cc_model("crossover_capped")):
        geometry = flux.geometry
        zero = LatticeState.zero(geometry.state_dim)
        for action in (
            geometry.unitary.apply,
            geometry.unitary.apply_adjoint,
            geometry.proj.apply,
            lambda psi: ref.flux_apply(flux, psi),
        ):
            assert action(zero).support_size() == 0


# ---------------------------------------------------------------------------
# K columns at once against K single columns


def assert_columns_match(stacked, singles, tol=1e-14):
    """Column k of ``stacked`` equals ``singles[k]`` site by site, within
    ``tol`` relative to the largest entry of the single state."""
    columns = ref.columns(stacked)
    assert len(columns) == len(singles)
    for column, single in zip(columns, singles):
        got, want = dict(ref.items(column)), dict(ref.items(single))
        scale = max([1.0] + [float(np.abs(v).max()) for v in want.values()])
        for site in got.keys() | want.keys():
            diff = got.get(site, 0.0) - want.get(site, 0.0)
            assert float(np.abs(diff).max()) <= tol * scale, (site, diff)


def _actions(flux, seed):
    """Every batched action of a model: the unitary both ways, each
    projection, the flux and random cell maps both ways."""
    geometry = flux.geometry
    _, rows_of, matrices = random_cell_maps(flux, np.random.default_rng(seed))
    proj = geometry.proj
    projections = [proj] if isinstance(proj, RegionSplit) else [proj, proj.shift_conjugate(), proj.complement()]
    return [
        geometry.unitary.apply,
        geometry.unitary.apply_adjoint,
        *(p.apply for p in projections),
        lambda psi: ref.flux_apply(flux, psi),
        lambda psi: geometry.apply_blocks(psi, rows_of, [matrices]),
        lambda psi: geometry.apply_blocks(psi, rows_of, [matrices], adjoint=True),
    ]


@pytest.mark.parametrize("name", WALKS + NETWORKS)
@settings(max_examples=6, deadline=None)
@given(seed=seeds)
def test_k_column_actions_match_k_single_column_actions(name, seed):
    flux = walk_model(name) if name in WALKS else cc_model(name)
    states = _states(flux, seed, count=3, size=16)
    stacked = LatticeState.stack(states)
    # stacking and splitting keeps every column's rows and bits
    for column, psi in zip(ref.columns(stacked), states):
        assert {s: v.tobytes() for s, v in ref.items(column)} == {s: v.tobytes() for s, v in ref.items(psi)}
    for action in _actions(flux, seed):
        assert_columns_match(action(stacked), [action(psi) for psi in states])
    gram = stacked.gram(stacked)
    inner = np.array([[a.inner(b) for b in states] for a in states])
    assert np.abs(gram - inner).max() <= 1e-14 * max(1.0, np.abs(inner).max())


def _column_bits(psi):
    """Each column of ``psi`` as a dict of site to vector bytes."""
    return [{site: v.tobytes() for site, v in ref.items(column)} for column in ref.columns(psi)]


@settings(max_examples=6, deadline=None)
@given(seed=seeds)
def test_stacked_actions_send_each_column_block_through_its_own_member(seed):
    # the one-pass selfcheck of a flux axis: column block f goes through
    # network f and box stack f, bit for bit as through that member alone
    flux = cc_model("random_phases")
    geometry, rng = flux.geometry, np.random.default_rng(seed)
    span = range(-4, 5)
    others = [
        CCUnitary(SiteMap(2, window=random_phase_window(rng, r_abs, span, span), background=FULL_REFLECTION))
        for r_abs in (0.3, 0.6)
    ]
    psi = LatticeState.stack(_states(flux, seed, count=3, size=16))
    tiled = psi.with_values(np.tile(psi.value_array, 3))
    for name in ("apply", "apply_adjoint"):
        alone = [bits for network in (geometry.unitary, *others) for bits in _column_bits(getattr(network, name)(psi))]
        assert _column_bits(getattr(geometry.unitary, name)(tiled, *others)) == alone, name
    _, rows_of, matrices = random_cell_maps(flux, rng)
    stacks = [matrices, 2.0 * matrices, matrices.conj()]
    for adjoint in (False, True):
        alone = [bits for m in stacks for bits in _column_bits(geometry.apply_blocks(psi, rows_of, [m], adjoint))]
        assert _column_bits(geometry.apply_blocks(tiled, rows_of, stacks, adjoint)) == alone, adjoint


@lru_cache(maxsize=None)
def perturbed_model():
    coin, proj = basic_example(seed=2)
    flux = build_walk_flux(build_walk(coin), proj)
    return build_perturbed(flux, extract_kernels(flux))


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_perturbed_unitary_acts_on_k_columns_as_on_each(seed):
    perturbed = perturbed_model()
    states = _states(perturbed.flux, seed, count=3)
    stacked = LatticeState.stack(states)
    frame = SiteFrame(perturbed, states, 2)
    for adjoint in (False, True):

        def action(psi):
            return frame.on_sites(frame.apply(frame.state(psi), adjoint))

        assert_columns_match(action(stacked), [action(psi) for psi in states])


@lru_cache(maxsize=None)
def paired_model():
    """The perturbed unitary of a network with index 0 and one swapped pair
    of kernel vectors and no block maps (``test_paired_kernels_give_finite_rank_part``)."""
    rng = np.random.default_rng(13)
    g = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    r = LeadSpec("outgoing", [(3, 0)], (1, 0))
    net = NetworkSpec(incoming=(g,), outgoing=(r,))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
    flux = build_walk_flux(build_walk(coin), network_projection(net))
    return build_perturbed(flux, extract_kernels(flux))


def with_cell_maps(perturbed, seed):
    """A copy of ``perturbed`` whose block maps are ``random_cell_maps``."""
    mapped = copy.copy(perturbed)
    _, rows_of, mapped._map_stack = random_cell_maps(mapped.flux, np.random.default_rng(seed))
    mapped._map_index = rows_of.__self__
    return mapped


def unconditional_correction(perturbed, psi, adjoint):
    """psi - F psi + M psi on a lattice state with every term applied, F psi
    from the stacked product, as the correction ran before it skipped empty
    terms."""
    diffs = perturbed._diffs
    out = psi - diffs.with_values(diffs.value_array @ diffs.gram(psi))
    return out + perturbed.flux.geometry.apply_blocks(psi, perturbed._map_index.rows, [perturbed._map_stack], adjoint)


def count_correction_terms(monkeypatch):
    """Counts of the ``gram`` and ``apply_blocks`` calls that
    ``SiteFrame._correct`` makes while the patches hold."""
    calls = {"gram": 0, "apply_blocks": 0}
    gram, apply_blocks = LatticeState.gram, CellGeometry.apply_blocks

    def from_correction():
        return sys._getframe(2).f_code is SiteFrame._correct.__code__

    def counted_gram(self, other):
        calls["gram"] += from_correction()
        return gram(self, other)

    def counted_apply_blocks(self, *args):
        calls["apply_blocks"] += from_correction()
        return apply_blocks(self, *args)

    monkeypatch.setattr(LatticeState, "gram", counted_gram)
    monkeypatch.setattr(CellGeometry, "apply_blocks", counted_apply_blocks)
    return calls


def test_a_correction_without_pairs_or_maps_returns_its_input(monkeypatch):
    # the basic example has no swapped pairs and no block maps: the
    # correction is the identity, and a whole shift check forms no term of it
    perturbed = perturbed_model()
    assert perturbed._diffs.n_columns == 0 and len(perturbed._map_stack) == 0
    states = _short_and_long_states(perturbed.flux, 5)
    frame = SiteFrame(perturbed, states, 2)
    psi = frame.state(LatticeState.stack(states))
    for adjoint in (False, True):
        assert frame._correct(psi, adjoint) is psi
    calls = count_correction_terms(monkeypatch)
    assert verify_shift_structure(perturbed).ok
    assert calls == {"gram": 0, "apply_blocks": 0}


def test_the_counters_see_the_terms_a_correction_forms(monkeypatch):
    # a shift check with a swapped pair forms the swap term and no map term;
    # one action with random block maps forms the map term once
    calls = count_correction_terms(monkeypatch)
    assert verify_shift_structure(paired_model(), k_max=15).ok
    assert calls["gram"] > 0 and calls["apply_blocks"] == 0
    mapped = with_cell_maps(perturbed_model(), 3)
    states = _states(mapped.flux, 3)
    frame = SiteFrame(mapped, states, 2)
    calls.update(gram=0, apply_blocks=0)
    frame.apply(frame.state(LatticeState.stack(states)))
    assert len(mapped._map_stack) and calls == {"gram": 0, "apply_blocks": 1}


@pytest.mark.parametrize("pairs, maps", [(True, False), (False, True), (True, True)])
@settings(max_examples=8, deadline=None)
@given(seed=seeds)
def test_a_correction_with_pairs_or_maps_is_the_unconditional_one(pairs, maps, seed):
    # the frame's correction, which skips the empty terms and the cells its
    # state does not meet, has the bits and rows of every term applied to
    # the lattice state
    perturbed = paired_model() if pairs else perturbed_model()
    if maps:
        perturbed = with_cell_maps(perturbed, seed)
        assume(len(perturbed._map_stack))
    assert bool(perturbed._diffs.n_columns) == pairs and bool(len(perturbed._map_stack)) == maps
    psi = LatticeState.stack(_short_and_long_states(perturbed.flux, seed))
    frame = SiteFrame(perturbed, [psi], 2)
    for adjoint in (False, True):
        got, want = frame.on_sites(frame._correct(frame.state(psi), adjoint)), unconditional_correction(perturbed, psi, adjoint)
        assert got.site_array.tobytes() == want.site_array.tobytes()
        assert got.value_array.tobytes() == want.value_array.tobytes()


@pytest.mark.parametrize("name", WALKS + NETWORKS)
def test_window_compression_keeps_the_bits_of_one_vector_at_a_time(name):
    flux = walk_model(name) if name in WALKS else cc_model(name)
    unitary = flux.geometry.unitary
    lo = flux.geometry.window.lo
    hi = [x + 8 for x in lo]
    sites = sorted(itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]))
    dense = matrix_on_window(unitary, sites)
    assert dense.tobytes() == ref.compress(unitary.apply, sites, unitary.n_internal).tobytes()


def test_single_vector_readers_refuse_stacked_states():
    psi = LatticeState.basis((0, 0), 1, 4)
    stacked = LatticeState.stack([psi, LatticeState.basis((1, 0), 2, 4)])
    for read in (
        stacked.norm,
        lambda: stacked.inner(stacked),
        lambda: psi.inner(stacked),
        lambda: ref.items(stacked),
        lambda: ref.vector_at(stacked, (0, 0)),
    ):
        with pytest.raises(DimensionMismatchError):
            read()
