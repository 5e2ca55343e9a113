"""The dense oracle's component solve: ``flux.component_eigenvalues`` against
one ``eigvalsh`` of the whole matrix, and ``flux.dense_window_index`` against
the blockwise index.

The solve splits a window matrix into the connected components of its exact
nonzero pattern, symmetrized, and diagonalizes one stack per component size.
Its eigenvalues must be the dense ones up to rounding, in the same ascending
order (``classify_unit`` raises on the first ambiguous one), and bit for bit
the dense ones when a single component spans the matrix.  The oracle reads
only the operator: a corrupted flux box leaves it at the true index.
"""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxwalk import flux as flux_module
from fluxwalk import scenarios
from fluxwalk.cli import bundled_scenarios
from fluxwalk.config import DEFAULT
from fluxwalk.errors import EigenvalueAmbiguityError
from fluxwalk.flux import analyze, classify_unit, component_eigenvalues, dense_window_index
from fluxwalk.lattice import haar_unitary
from fluxwalk.walks import (
    build_walk,
    build_walk_flux,
    network_projection,
    random_background,
    random_network,
    synthesize_lead_coin,
)

ORACLE_SCENARIOS = ["basic_example", "half_line_minus", "half_line_plus", "lead_in_out", "two_outgoing_leads"]


def hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def permuted_blocks(rng, sizes, zero_rows, holes, coupling):
    """A matrix of random Hermitian blocks of ``sizes``, some entries of each
    zeroed in pairs (``holes``), plus ``zero_rows`` zero rows, under a random
    permutation.  ``coupling`` 'lower' or 'upper' adds one entry between the
    first two blocks in that triangle only: ``eigvalsh`` reads the lower
    triangle, so the dense solve sees the one and not the other."""
    n = sum(sizes) + zero_rows
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        block = hermitian(rng, size)
        for _ in range(holes if size > 2 else 0):
            i, j = rng.integers(size, size=2)
            block[i, j] = block[j, i] = 0.0
        m[start : start + size, start : start + size] = block
        start += size
    perm = rng.permutation(n)
    m = m[perm][:, perm]
    if coupling and len(sizes) > 1:
        a, b = perm.argsort()[0], perm.argsort()[sizes[0]]  # a row of the first and of the second block
        low, high = max(a, b), min(a, b)
        m[(low, high) if coupling == "lower" else (high, low)] = 0.5 - 0.25j
    return m


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 6), min_size=1, max_size=8),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from([None, "lower", "upper"]),
)
def test_the_component_solve_equals_the_sorted_dense_solve(seed, sizes, zero_rows, holes, coupling):
    m = permuted_blocks(np.random.default_rng(seed), sizes, zero_rows, holes, coupling)
    got, want = component_eigenvalues(m), np.linalg.eigvalsh(m)
    assert got.shape == want.shape
    assert np.all(np.diff(got) >= 0)
    assert np.abs(got - want).max() <= 1e-12


def test_a_coupling_below_the_diagonal_alone_joins_its_two_blocks():
    # rows 0, 3 and rows 1, 2 form two blocks, and m[3, 2] couples them below
    # the diagonal only, where eigvalsh reads it; the pattern of m alone
    # would never carry row 0's label over to rows 1 and 2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[3, 3], m[0, 3], m[3, 0] = 1.0, -0.5, 0.3j, -0.3j
    m[1, 1], m[2, 2], m[1, 2], m[2, 1] = 0.25, 2.0, 0.7, 0.7
    m[3, 2] = 0.4
    assert np.abs(component_eigenvalues(m) - np.linalg.eigvalsh(m)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_a_fully_coupled_matrix_takes_the_dense_solve_bit_for_bit(seed, n):
    m = hermitian(np.random.default_rng(seed), n)
    assume(np.all(m != 0))
    assert component_eigenvalues(m).tobytes() == np.linalg.eigvalsh(m).tobytes()


def test_two_ambiguous_eigenvalues_raise_with_the_dense_eigenvalue():
    # 1 - 3e-8 and -1 + 3e-8 sit in the guard band, in two rotated 2 x 2
    # blocks interleaved so that the one near +1 comes first in row order;
    # the first in ascending order, near -1, raises
    rng = np.random.default_rng(5)
    m = np.zeros((6, 6), dtype=complex)
    for start, values in ((0, (1.0 - 3e-8, 0.25)), (3, (-1.0 + 3e-8, -0.5))):
        u = haar_unitary(rng, 2)
        m[start : start + 2, start : start + 2] = u @ np.diag(values) @ u.conj().T
    m[2, 2], m[5, 5] = 0.125, 0.0
    perm = [0, 3, 2, 1, 4, 5]
    m = m[perm][:, perm]
    raised = []
    for evals in (np.linalg.eigvalsh(m), component_eigenvalues(m)):
        with pytest.raises(EigenvalueAmbiguityError) as info:
            classify_unit(evals[None], DEFAULT, lambda _: ("dense", (0,)))
        raised.append(info.value.value)
    assert raised[0] < 0 and abs(raised[0] - raised[1]) <= 1e-12


@pytest.mark.parametrize("name", ORACLE_SCENARIOS)
def test_the_oracle_equals_the_blockwise_index_on_the_bundled_scenarios(name, monkeypatch):
    # every window matrix the oracle splits also goes through one dense
    # eigvalsh, which the component solve must match
    solved = []

    def checked(m):
        evals = component_eigenvalues(m)
        assert np.abs(evals - np.linalg.eigvalsh(m)).max() <= 1e-12
        solved.append(len(m))
        return evals

    monkeypatch.setattr(flux_module, "component_eigenvalues", checked)
    spec = json.loads(bundled_scenarios()[name].read_text())
    setup = scenarios._checked_setup(spec)
    args = next(args for atype, args in setup.analyses.values() if atype == "oracle_equivalence")
    result = scenarios._walk_oracle_analysis(setup, args, {})
    assert result["applicable"] and solved
    assert result["dense"] == result["blockwise"] == setup.index_report.index


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (0, 2)]))
def test_the_oracle_equals_the_blockwise_index_on_random_lead_networks(seed, counts):
    rng = np.random.default_rng(seed)
    network = random_network(rng, *counts, box=4)
    coin = synthesize_lead_coin(network, random_background(rng, 2, box=3))
    proj = network_projection(network)
    walk = build_walk(coin)
    flux = build_walk_flux(walk, proj)
    index = analyze(flux).index
    assert index == counts[1] - counts[0]
    labels = flux.box.index.table[flux.kept]
    lo, hi = labels.min(axis=0), labels.max(axis=0) + 1
    assume(np.all(hi - lo <= 7))
    box = [tuple(s) for s in np.stack(np.meshgrid(*map(np.arange, lo - 2, hi + 2), indexing="ij"), -1).reshape(-1, 2)]
    assert dense_window_index(walk, proj.apply, box, walk.n_internal) == index


def test_the_oracle_solves_no_block_wider_than_a_cell_on_a_bench_wander_spec(monkeypatch):
    # d = 2: every component of the window matrix is one 4 x 4 cell block or
    # smaller, so no eigvalsh inside the oracle sees a wider matrix
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "fluxbench" / "workloads.py"))
    spec = next(j.spec for j in workloads["generate"]("shift_evolution", 3, 1) if j.stratum == "out2_wander")
    widths, inside = [], []
    eigvalsh, oracle = np.linalg.eigvalsh, scenarios.dense_window_index

    def recording_eigvalsh(a, *args, **kwargs):
        if inside:
            widths.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    def recording_oracle(*args, **kwargs):
        inside.append(True)
        try:
            return oracle(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    monkeypatch.setattr(scenarios, "dense_window_index", recording_oracle)
    result = scenarios.run_scenario(spec)
    assert result.ok and result.report["analyses"]["oracle_equivalence#2"]["applicable"]
    assert widths and max(widths) <= 2 * spec["geometry"]["d"] == 4


def test_the_oracle_ignores_a_corrupted_kept_block():
    # the oracle applies U and P alone: zeroing the first kept box block
    # changes the blockwise spectrum, not the dense index
    setup = scenarios._checked_setup(json.loads(bundled_scenarios()["basic_example"].read_text()))
    flux = setup.flux
    true_index = setup.index_report.index
    labels = flux.box.index.table[flux.kept]
    box = [(x,) for x in range(int(labels.min()) - 2, int(labels.max()) + 3)]
    walk = flux.geometry.unitary
    block = flux.box.flux[flux.kept[0]]
    assert np.abs(np.linalg.eigvalsh(block)).max() > 0.5
    block[...] = 0.0
    assert dense_window_index(walk, setup.projection.apply, box, walk.n_internal, setup.tol) == true_index
