"""Batched state actions against their per-site references, bit for bit.

Walk steps, projections, network steps and cell-block actions gather the
rows of a packed state, multiply stacked matrices and scatter the result.
Each must give exactly the state that the per-site loop in
``reference_state`` gives, row order included.  On a stack of K states each
action must give the K single-column results: within 1e-14 in general, and
bit for bit for the dense compression of a unitary (``matrix_on_window``),
a single product on basis columns of exact zeros and ones.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
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
from fluxwalk.shift import build_perturbed, extract_kernels
from fluxwalk.walks import (
    boundary_projection_full,
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
    return LatticeState(n, entries)


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
    return build_walk_flux(coin, proj)


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
    return cc_flux(field, path)


WALKS = ["basic_example", "lead_network", "reflecting"]
NETWORKS = ["crossover_capped", "random_phases"]


def _states(flux, seed, count=4, size=12):
    rng = np.random.default_rng(seed)
    lo, hi = np.array(flux.lo) - 3, np.array(flux.hi) + 3
    n = flux.geometry.state_dim
    return [random_packed(rng, lo, hi, n, size) for _ in range(count)]


def _short_and_long_states(flux, seed):
    """``_states``, then one state drawn from ``4 * DICT_GROUPING`` sites of
    the box, widened where needed to hold ``6 * DICT_GROUPING`` sites, so
    that the actions meet states on both sides of ``DICT_GROUPING`` (the
    long state had more than 100 sites on each of a thousand seeds tried)."""
    states = _states(flux, seed)
    rng = np.random.default_rng([seed, 1])
    lo, hi = np.array(flux.lo) - 3, np.array(flux.hi) + 3
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
    them: the dict the reference reads, and the ``(rows_of, matrices)`` pair
    of ``CellGeometry.apply_blocks``."""
    k = flux.box.flux.shape[1]
    maps = {
        label: rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        for label in flux.box.labels
        if rng.random() < 0.5
    }
    index = SiteIndex(np.array(list(maps), dtype=np.int64).reshape(len(maps), len(flux.lo)))
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
            flux.apply(psi),
            ref.apply_blocks(geometry, ref.to_dict(psi), lambda label: reference_block(geometry, label)),
        )
        assert ref.same_state(
            geometry.apply_blocks(psi, rows_of, matrices),
            ref.apply_blocks(geometry, ref.to_dict(psi), maps.get),
        )
        assert ref.same_state(
            geometry.apply_blocks(psi, rows_of, matrices, adjoint=True),
            ref.apply_blocks(geometry, ref.to_dict(psi), adjoint_at),
        )
        # an empty stack leaves every cell alone
        empty = geometry.apply_blocks(psi, rows_of, np.zeros((0, k, k), dtype=complex))
        assert empty.support_size() == 0 and empty.n_columns == psi.n_columns
    label = flux.box.labels[rng.integers(len(flux.box.labels))]
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
            flux.apply,
        ):
            assert action(zero).support_size() == 0


# ---------------------------------------------------------------------------
# K columns at once against K single columns


def assert_columns_match(stacked, singles, tol=1e-14):
    """Column k of ``stacked`` equals ``singles[k]`` site by site, within
    ``tol`` relative to the largest entry of the single state."""
    columns = stacked.columns()
    assert len(columns) == len(singles)
    for column, single in zip(columns, singles):
        got, want = dict(column.items()), dict(single.items())
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
        flux.apply,
        lambda psi: geometry.apply_blocks(psi, rows_of, matrices),
        lambda psi: geometry.apply_blocks(psi, rows_of, matrices, adjoint=True),
    ]


@pytest.mark.parametrize("name", WALKS + NETWORKS)
@settings(max_examples=6, deadline=None)
@given(seed=seeds)
def test_k_column_actions_match_k_single_column_actions(name, seed):
    flux = walk_model(name) if name in WALKS else cc_model(name)
    states = _states(flux, seed, count=3, size=16)
    stacked = LatticeState.stack(states)
    # stacking and splitting keeps every column's rows and bits
    for column, psi in zip(stacked.columns(), states):
        assert {s: v.tobytes() for s, v in column.items()} == {s: v.tobytes() for s, v in psi.items()}
    for action in _actions(flux, seed):
        assert_columns_match(action(stacked), [action(psi) for psi in states])
    gram = stacked.gram(stacked)
    inner = np.array([[a.inner(b) for b in states] for a in states])
    assert np.abs(gram - inner).max() <= 1e-14 * max(1.0, np.abs(inner).max())


@lru_cache(maxsize=None)
def perturbed_model():
    coin, proj = basic_example(seed=2)
    flux = build_walk_flux(coin, proj)
    return build_perturbed(flux.geometry.unitary, flux, extract_kernels(flux))


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_perturbed_unitary_acts_on_k_columns_as_on_each(seed):
    perturbed = perturbed_model()
    states = _states(perturbed.flux, seed, count=3)
    stacked = LatticeState.stack(states)
    for action in (perturbed.apply, perturbed.apply_adjoint):
        assert_columns_match(action(stacked), [action(psi) for psi in states])


@pytest.mark.parametrize("name", WALKS + NETWORKS)
def test_window_compression_keeps_the_bits_of_one_vector_at_a_time(name):
    flux = walk_model(name) if name in WALKS else cc_model(name)
    unitary = flux.geometry.unitary
    lo, hi = flux.lo, [lo + 8 for lo in flux.lo]
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
        stacked.items,
        lambda: stacked.vector_at((0, 0)),
    ):
        with pytest.raises(DimensionMismatchError):
            read()
