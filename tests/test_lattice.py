import numpy as np
import pytest

from fluxwalk.errors import DimensionMismatchError
from fluxwalk.lattice import (
    LatticeState,
    direction_index,
    direction_vector,
    haar_unitary,
    index_of_vector,
    is_unitary,
    random_state,
    trace_norm_hermitian,
)


def test_direction_bijection():
    # (+j) <-> slot 2j-2, (-j) <-> slot 2j-1, zero based
    assert direction_index(1, 1) == 0
    assert direction_index(1, -1) == 1
    assert direction_index(2, 1) == 2
    assert direction_index(3, -1) == 5
    for d in (1, 2, 3):
        for k in range(2 * d):
            assert index_of_vector(direction_vector(k, d)) == k


def test_index_of_vector_rejects_non_unit():
    with pytest.raises(ValueError):
        index_of_vector((1, 1))
    with pytest.raises(ValueError):
        index_of_vector((0, 0))


def test_state_basics():
    psi = LatticeState.basis((0, 0), 1, 4)
    assert psi.norm() == 1.0
    assert psi.support_size() == 1
    phi = psi + psi
    assert phi.norm() == 2.0
    assert (phi - psi - psi).support_size() == 0
    assert abs(psi.inner(phi) - 2.0) < 1e-15


def test_zero_vectors_are_pruned():
    psi = LatticeState(2, {(0,): np.zeros(2), (1,): np.array([1.0, 0.0])})
    assert psi.sites() == [(1,)]
    # cancellation leaves exact zeros, which are dropped as well
    assert (psi - psi).support_size() == 0


def test_inner_product_convention():
    # antilinear in the first argument
    a = LatticeState(1, {(0,): np.array([1j])})
    b = LatticeState(1, {(0,): np.array([1.0])})
    assert abs(a.inner(b) + 1j) < 1e-15


def test_dimension_mismatch_raises():
    a = LatticeState.basis((0,), 0, 2)
    b = LatticeState.basis((0,), 0, 3)
    with pytest.raises(DimensionMismatchError):
        a.inner(b)


def test_haar_unitary_and_checks():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        u = haar_unitary(rng, n)
        assert is_unitary(u)


def test_hermitian_norms():
    m = np.diag([0.5, -0.75]).astype(complex)
    assert abs(trace_norm_hermitian(m) - 1.25) < 1e-15


def test_random_state_normalized():
    rng = np.random.default_rng(1)
    psi = random_state(rng, [(0, 0), (1, 0), (2, 2)], 4)
    assert abs(psi.norm() - 1.0) < 1e-12
