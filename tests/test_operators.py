import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxwalk.cc import CRITICAL, CCUnitary
from fluxwalk.errors import DimensionMismatchError, ValidationError
from fluxwalk.fields import SiteMap
from fluxwalk.lattice import LatticeState, direction_index, haar_unitary, random_state
from fluxwalk.operators import CoinedWalk, matrix_on_window
from fluxwalk.walks import random_background
from reference_state import conditional_shift


def test_shift_moves_components():
    shift = conditional_shift(1)
    plus = direction_index(1, 1)
    minus = direction_index(1, -1)
    out = shift.apply(LatticeState.basis((0,), plus, 2))
    assert sorted(out.site_list()) == [(1,)]
    assert out.vector_at((1,))[plus] == 1.0
    back = shift.apply_adjoint(LatticeState.basis((1,), plus, 2))
    assert sorted(back.site_list()) == [(0,)]
    out2 = shift.apply(LatticeState.basis((0,), minus, 2))
    assert sorted(out2.site_list()) == [(-1,)]


def test_apply_zero_state():
    shift = conditional_shift(2)
    assert shift.apply(LatticeState.zero(4)).support_size() == 0


def test_hadamard_step():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    walk = CoinedWalk(SiteMap(1, background=h))
    out = walk.apply(LatticeState.basis((0,), 0, 2))
    assert abs(out.vector_at((1,))[0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(out.vector_at((-1,))[1] - 1 / np.sqrt(2)) < 1e-15


def test_dimension_mismatch():
    shift = conditional_shift(2)
    with pytest.raises(DimensionMismatchError):
        shift.apply(LatticeState.basis((0, 0), 0, 2))


@pytest.mark.parametrize("adjoint", [False, True])
def test_walk_rejects_sites_of_another_dimension(adjoint):
    # a 2-slot state at a site of Z^2 is not a state of the walk on Z
    shift = conditional_shift(1)
    action = shift.apply_adjoint if adjoint else shift.apply
    with pytest.raises(DimensionMismatchError, match=r"Z\^2.*Z\^1"):
        action(LatticeState.basis((0, 5), 0, 2))


@pytest.mark.parametrize("adjoint", [False, True])
def test_network_rejects_sites_in_three_dimensions(adjoint):
    u = CCUnitary(SiteMap(2, background=CRITICAL))
    action = u.apply_adjoint if adjoint else u.apply
    with pytest.raises(DimensionMismatchError, match=r"Z\^3.*Z\^2"):
        action(LatticeState.basis((0, 0, 7), 0, 1))


@pytest.mark.parametrize("adjoint", [False, True])
def test_network_rejects_sites_on_a_line(adjoint):
    u = CCUnitary(SiteMap(2, background=CRITICAL))
    action = u.apply_adjoint if adjoint else u.apply
    with pytest.raises(DimensionMismatchError, match=r"Z\^1.*Z\^2"):
        action(LatticeState.basis((4,), 0, 1))


def test_shift_window_matrix():
    # compression of the d=1 shift to {0, 1}: exactly two unit entries,
    # |0,+> -> |1,+> and |1,-> -> |0,->
    shift = conditional_shift(1)
    m = matrix_on_window(shift, [(0,), (1,)])
    expected = np.zeros((4, 4))
    expected[2, 0] = 1.0  # site 1 slot + from site 0 slot +
    expected[1, 3] = 1.0  # site 0 slot - from site 1 slot -
    assert np.max(np.abs(m - expected)) < 1e-15
    assert int(np.sum(np.abs(m) > 0.5)) == 2


def test_window_compression_drops_leaving_couplings():
    shift = conditional_shift(1)
    m = matrix_on_window(shift, [(0,)])
    # the shift never keeps a site fixed, so the one-site compression is zero
    assert np.max(np.abs(m)) == 0.0


def test_empty_window_rejected():
    with pytest.raises(ValidationError):
        matrix_on_window(conditional_shift(1), [])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_isometry_and_adjoint_consistency(seed):
    rng = np.random.default_rng(seed)
    walk = CoinedWalk(random_background(rng, 2, box=3))
    sites = [(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))) for _ in range(6)]
    psi = random_state(rng, sites, 4)
    phi = random_state(rng, sites, 4)
    assert abs(walk.apply(psi).norm() - 1.0) < 1e-12
    # <phi, U psi> == <U* phi, psi>
    lhs = phi.inner(walk.apply(psi))
    rhs = walk.apply_adjoint(phi).inner(psi)
    assert abs(lhs - rhs) < 1e-12
    # round trip
    assert (walk.apply_adjoint(walk.apply(psi)) - psi).norm() < 1e-12


def test_isometry_many_random_states():
    rng = np.random.default_rng(7)
    walk = CoinedWalk(random_background(rng, 1, box=6))
    worst = 0.0
    for _ in range(1000):
        sites = [(int(rng.integers(-6, 7)),) for _ in range(4)]
        psi = random_state(rng, sites, 2)
        worst = max(worst, abs(walk.apply(psi).norm() - 1.0))
    assert worst < 1e-12


def test_locality_one_ball():
    rng = np.random.default_rng(11)
    walk = CoinedWalk(random_background(rng, 3, box=2))
    psi = LatticeState.basis((0, 0, 0), 2, 6)
    out = walk.apply(psi)
    for site in out.site_list():
        assert sum(abs(c) for c in site) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_window_compression_applies_the_map_once(monkeypatch, d):
    # every basis vector of an 11^d-site window goes through the walk as a
    # column of one state (2d * 11^d single-vector actions before); 11 x 11
    # is spectrum_window's default window
    walk = CoinedWalk(random_background(np.random.default_rng(0), d, box=3))
    sites = sorted(itertools.product(range(-5, 6), repeat=d))
    reference = matrix_on_window(walk, sites)
    widths = []
    original = walk.apply
    monkeypatch.setattr(walk, "apply", lambda psi: widths.append(psi.n_columns) or original(psi))
    assert matrix_on_window(walk, sites).tobytes() == reference.tobytes()
    assert widths == [2 * d * 11**d]
