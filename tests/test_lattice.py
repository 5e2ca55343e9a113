import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_state import DictState, items, same_state, state, trace_norm_hermitian, vector_at
from reference_state import random_state as reference_random_state

from fluxwalk.errors import DimensionMismatchError
from fluxwalk.lattice import (
    DICT_GROUPING,
    GRID_CELLS,
    LatticeState,
    SiteIndex,
    direction_index,
    direction_vector,
    group_sites,
    haar_unitary,
    haar_unitaries,
    index_of_vector,
    random_state,
    unitary_deviations,
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
    psi = state(2, {(0,): np.zeros(2), (1,): np.array([1.0, 0.0])})
    assert sorted(psi.site_list()) == [(1,)]
    # cancellation leaves exact zeros, which are dropped as well
    assert (psi - psi).support_size() == 0


@pytest.mark.parametrize(
    "sites,values",
    [
        (np.zeros((2, 1), np.int64), np.ones((2, 3, 1), complex)),  # three slots, not two
        (np.zeros((3, 1), np.int64), np.ones((2, 2, 1), complex)),  # three sites, two rows
        (np.zeros((2, 1), np.int64), np.ones((2, 2), complex)),  # no column axis
    ],
    ids=["slots", "sites", "two-d"],
)
def test_a_state_refuses_a_malformed_pair(sites, values):
    message = f"site vectors have shape {values.shape}, expected ({len(sites)}, 2, K)"
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        LatticeState(2, sites, values)


def test_inner_product_convention():
    # antilinear in the first argument
    a = state(1, {(0,): np.array([1j])})
    b = state(1, {(0,): np.array([1.0])})
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
        assert unitary_deviations(u) <= 1e-12


def reference_haar_unitary(rng, n):
    """One Haar draw, as ``haar_unitary`` made it before stacked draws."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


@pytest.mark.parametrize("n", [1, 2, 4])
def test_stacked_haar_draws_repeat_single_draws_bit_for_bit(n):
    # the stacked draw reads the generator in the order of single draws, so
    # fields sampled either way, and every draw after them, are the same
    rngs = [np.random.default_rng(5) for _ in range(3)]
    reference = np.array([reference_haar_unitary(rngs[0], n) for _ in range(81)])
    assert haar_unitaries(rngs[1], n, 81).tobytes() == reference.tobytes()
    assert np.array([haar_unitary(rngs[2], n) for _ in range(81)]).tobytes() == reference.tobytes()
    assert rngs[0].random() == rngs[1].random() == rngs[2].random()


def test_hermitian_norms():
    m = np.diag([0.5, -0.75]).astype(complex)
    assert abs(trace_norm_hermitian(m) - 1.25) < 1e-15


def test_random_state_normalized():
    rng = np.random.default_rng(1)
    psi = random_state(rng, [(0, 0), (1, 0), (2, 2)], 4)
    assert abs(psi.norm() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "sites",
    [[(0, 0), (1, 0), (2, 2)], [(3,), (-1,), (3,), (0,), (-1,)], [(1, -2)], [(0, 0, 1), (0, 0, -1)]],
    ids=["distinct", "repeated", "single", "d3"],
)
def test_random_state_matches_the_per_site_draws(sites):
    # one draw for the whole state; a repeated site keeps its first row and
    # its last draw, as in a dict
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    got, want = random_state(rng, sites, 3), reference_random_state(ref_rng, sites, 3)
    assert got.site_array.tobytes() == want.site_array.tobytes()
    assert got.value_array.tobytes() == want.value_array.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# packed layout against the dict reference model, bit for bit

FAR = 2**62
# small coordinates make sites overlap; far ones test the keys
coordinate = st.one_of(st.integers(-2, 2), st.integers(-(2**63), 2**63 - 1), st.sampled_from([FAR, -FAR]))
part = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=True),
)


def _bits(z) -> bytes:
    return np.complex128(z).tobytes()


@st.composite
def state_triples(draw):
    """(n, three entry dicts) over one site pool, so supports overlap; rows
    may be all zero (dropped) or carry signed zeros.  A large pool fills a
    box with more than ``DICT_GROUPING`` sites, and may add a far site, so
    that both ``SiteIndex`` strategies match the sites."""
    n = draw(st.sampled_from([1, 2, 4]))
    d = draw(st.integers(1, 3))
    vector = st.lists(st.tuples(part, part), min_size=n, max_size=n).map(
        lambda v: np.array([complex(a, b) for a, b in v])
    )
    if draw(st.booleans()):
        pool = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=8, unique=True))
        sites = st.lists(st.sampled_from(pool), max_size=len(pool), unique=True)
        return n, [{s: draw(vector) for s in draw(sites)} for _ in range(3)]
    box = list(itertools.product(range({1: 2 * DICT_GROUPING, 2: 12, 3: 6}[d]), repeat=d))
    pool = draw(st.permutations(box + draw(st.lists(st.tuples(*[coordinate] * d), max_size=2))))
    vectors = draw(st.lists(vector, min_size=1, max_size=3))
    triple = []
    for _ in range(3):
        start, stop = sorted(draw(st.integers(0, len(pool))) for _ in range(2))
        triple.append({s: draw(st.sampled_from(vectors)) for s in pool[start:stop]})
    return n, triple


factor = st.one_of(
    st.sampled_from([0, 1.0, -1.0, 0.5, 1j, -0.0]),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(state_triples(), factor)
def test_packed_state_matches_dict_reference(case, f):
    n, entries = case
    packed = [state(n, e) for e in entries]
    ref = [DictState(n, e) for e in entries]
    pairs = list(zip(packed, ref))
    for p, r in pairs:
        assert same_state(p, r)
        assert p.support_size() == r.support_size()
        assert np.float64(p.norm()).tobytes() == np.float64(r.norm()).tobytes()
        assert same_state(p.scaled(f), r.scaled(f))
        for site, vec in r.items():
            assert vector_at(p, site).tobytes() == vec.tobytes()
    for (a, ra), (b, rb) in itertools.product(pairs, repeat=2):
        assert same_state(a + b, ra + rb)
        assert same_state(a - b, ra - rb)
        assert _bits(a.inner(b)) == _bits(ra.inner(rb))
        c, rc = a - b.scaled(b.inner(a)), ra - rb.scaled(rb.inner(ra))
        assert same_state(c, rc)
        assert same_state(c + a.scaled(f), rc + ra.scaled(f))
        assert np.float64(c.norm()).tobytes() == np.float64(rc.norm()).tobytes()


@st.composite
def site_index_cases(draw):
    """A table of distinct sites and a query mixing members, other sites of
    the bordered box, sites beyond each face and the int64 corners.  The
    table is dense (near the origin, or on either side of 2**62 from it, or
    at the int64 limits), sparse (coordinates up to 2**40), or two sites
    whose box is within one row of ``GRID_CELLS`` sites, and queries and
    tables come on each side of ``DICT_GROUPING``."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["dense", "sparse", "edge"]))
    shift = draw(st.sampled_from([0, 2**62 - 200, 2**62 + 200, -(2**62) + 200, -(2**62) - 200, 2**63 - 6, -(2**63) + 130]))
    if kind == "edge":
        far = GRID_CELLS // 3 ** (d - 1) - 3 + draw(st.integers(-1, 1))
        table = [(0,) * d, (far,) + (0,) * (d - 1)]
    else:
        span = {"dense": (-{1: 130, 2: 6, 3: 3}[d], 5), "sparse": (-(2**40), 2**40)}[kind]
        size = draw(st.sampled_from([0, 1, 2, DICT_GROUPING + 1]))
        table = draw(st.lists(st.tuples(*[st.integers(*span)] * d), min_size=size, max_size=size, unique=True))
        if kind == "dense":
            table = [tuple(x + shift for x in site) for site in table]
    table = np.array(table, dtype=np.int64).reshape(len(table), d)
    lo, hi = (table.min(axis=0), table.max(axis=0)) if len(table) else (np.zeros(d, int), np.zeros(d, int))
    inside = st.tuples(*[st.integers(max(int(a) - 1, -(2**63)), min(int(b) + 1, 2**63 - 1)) for a, b in zip(lo, hi)])

    def past_a_face(case):
        axis, side, offset, site = case
        site = list(site)
        site[axis] = min(int(hi[axis]) + offset, 2**63 - 1) if side > 0 else max(int(lo[axis]) - offset, -(2**63))
        return tuple(site)

    beyond = st.tuples(st.integers(0, d - 1), st.sampled_from([-1, 1]), st.integers(1, 2**40), inside)
    beyond = beyond.map(past_a_face)
    members = st.sampled_from([tuple(s) for s in table.tolist()]) if len(table) else inside
    length = draw(st.sampled_from([0, 1, DICT_GROUPING, DICT_GROUPING + 1, 2 * DICT_GROUPING]))
    corners = st.tuples(*[st.sampled_from([-(2**63), 2**63 - 1])] * d)
    query = draw(st.lists(st.one_of(members, inside, beyond, corners), min_size=length, max_size=length))
    return table, np.array(query, dtype=np.int64).reshape(length, d)


@settings(max_examples=100, deadline=None)
@given(site_index_cases())
# a box spanning all of int64, whose corner and shape would wrap around
@example((np.array([[-(2**63)], [2**63 - 1]]), np.zeros((DICT_GROUPING + 1, 1), dtype=np.int64)))
def test_site_index_matches_a_dict(case):
    table, query = case
    reference = {tuple(s): i for i, s in enumerate(table.tolist())}
    index = SiteIndex(table)
    assert index.rows(query).tolist() == [reference.get(tuple(s), -1) for s in query.tolist()]
    for site in query.tolist()[:8]:
        assert index.row(site) == reference.get(tuple(site))
    # the strategy: a grid, if the table is dense, for a nonempty query that
    # is long or meets a long table before its dict is built
    box = np.prod(np.ptp(table.astype(object), axis=0) + 3) if len(table) else 0
    near = len(table) and -(2**62) < table.min() and table.max() < 2**62
    dense = bool(near and box <= max(GRID_CELLS, 8 * len(table)))
    if not len(query) or (len(query) <= DICT_GROUPING and len(table) <= DICT_GROUPING):
        assert index._grid is None
    else:
        assert bool(index._grid) == dense
    # once the dict is built, a short query keeps it; a row builds it from
    # the site tuples a caller hands in
    warm = SiteIndex(table, [tuple(s) for s in table.tolist()])
    if len(table):
        warm.row(table[0])
    assert warm.rows(query).tolist() == [reference.get(tuple(s), -1) for s in query.tolist()]
    if len(query) <= DICT_GROUPING:
        assert warm._grid is None
    # without them, a row on a long dense table reads the grid instead
    cold = SiteIndex(table)
    if len(table):
        assert cold.row(table[-1]) == len(table) - 1
        assert (cold._dict is None) == bool(cold._grid) == (len(table) > DICT_GROUPING and dense)


def test_far_sites_never_share_a_key():
    # sites that agree in their low 32 bits, or are swapped, stay distinct
    sites = [(2**32, 0), (0, 2**32), (0, 0), (1, 2**40), (2**40, 1), (-(2**63), 2**63 - 1)]
    psi = state(1, {s: [k + 1.0] for k, s in enumerate(sites)})
    assert [s for s, _ in items(psi)] == sites
    assert (psi + psi).support_size() == len(sites)
    assert (psi - psi).support_size() == 0
    for k, s in enumerate(sites):
        assert vector_at(psi, s)[0] == k + 1.0
    assert vector_at(psi, (2**32, 2**32))[0] == 0.0
    assert psi.inner(psi) == sum((k + 1.0) ** 2 for k in range(len(sites)))


def test_states_of_different_site_dimension_do_not_mix():
    a = LatticeState.basis((0,), 0, 2)
    b = LatticeState.basis((0, 0), 0, 2)
    with pytest.raises(DimensionMismatchError):
        a + b
    with pytest.raises(DimensionMismatchError):
        a.inner(b)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 90),
    st.sampled_from([1, 2, 4, 6]),
    st.one_of(st.integers(0, 3), st.integers(0, 140), st.integers(124, 136)),
    st.one_of(st.integers(0, 3), st.integers(0, 40)),
    st.integers(0, 2**32 - 1),
)
def test_combine_is_the_stacked_product_bit_for_bit(rows, n, k, k_out, seed):
    # the flat (S n, K) product keeps the bits of the S stacked (n, K)
    # products, also for states of no rows or no columns, signed zeros,
    # zero columns, one slot per site and K either side of 128, where a
    # threaded OpenBLAS rounds a flat product differently
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, n, k)) + 1j * rng.standard_normal((rows, n, k))
    values[rng.random(values.shape) < 0.3] = -0.0
    if k:
        values[:, :, rng.integers(k)] = 0.0
    coeffs = rng.standard_normal((k, k_out)) + 1j * rng.standard_normal((k, k_out))
    coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
    psi = LatticeState(n, np.arange(rows, dtype=np.int64)[:, None], values)
    want = psi.value_array @ coeffs
    got = psi.combine(coeffs)
    keep = np.logical_or.reduce(want, axis=(1, 2))
    assert got.value_array.shape == want[keep].shape and got.value_array.flags.c_contiguous
    assert got.value_array.tobytes() == want[keep].tobytes()
    assert got.site_array.tobytes() == psi.site_array[keep].tobytes()


def test_rows_keep_first_insertion_order():
    psi = state(1, {(3,): [1.0], (-1,): [2.0], (0,): [0.0], (2,): [3.0]})
    assert [s for s, _ in items(psi)] == [(3,), (-1,), (2,)]
    phi = state(1, {(2,): [1.0], (7,): [1.0], (3,): [-1.0], (5,): [1.0]})
    # rows of psi, the cancelled (3,) dropped, then the new sites in phi's order
    assert [s for s, _ in items(psi + phi)] == [(-1,), (2,), (7,), (5,)]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.one_of(st.integers(-2, 2), st.sampled_from([FAR, -FAR, 2**32]))] * d),
            min_size=1,
            max_size=3 * DICT_GROUPING,
        )
    )
)
def test_group_sites_orders_by_first_appearance(sites):
    # the sites as drawn, and repeated past the dict path's length so that
    # the sort path runs too
    for entries in (sites, sites * (DICT_GROUPING // len(sites) + 1)):
        first_of: dict = {}
        for e, site in enumerate(entries):
            first_of.setdefault(site, e)
        number = {site: k for k, site in enumerate(first_of)}
        first, rows = group_sites(np.array(entries, dtype=np.int64))
        assert first.tolist() == list(first_of.values())
        assert rows.tolist() == [number[site] for site in entries]
