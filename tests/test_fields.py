import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluxwalk.errors import ValidationError
from fluxwalk.fields import (
    AdaptedProjection,
    HalfSpace,
    MatrixField,
    PeriodicBackground,
    Plane,
    Ray,
    SiteMap,
    interpolate_unitaries,
)
from fluxwalk.lattice import direction_index, haar_unitary
from fluxwalk.walks import alternating_halfline_projection, halfline_projection


def test_ray_locate():
    ray = Ray((1, 0), (1, 0))
    assert ray.locate((1, 0)) == 0
    assert ray.locate((5, 0)) == 4
    assert ray.locate((0, 0)) is None
    assert ray.locate((3, 1)) is None
    assert ray.site_at(2) == (3, 0)


unit_rays_2d = st.builds(
    Ray,
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
)


@given(unit_rays_2d, unit_rays_2d)
def test_ray_meet_matches_brute_force(a, b):
    # bases lie within 10 steps of each other, so 40 sites per ray reach past
    # every finite meeting and 30 sites into a shared tail
    shared = {a.site_at(t) for t in range(40)} & {b.site_at(t) for t in range(40)}
    where = a.meet(b)
    if where is None:
        assert not shared
    elif isinstance(where, Ray):
        assert where.step == a.step == b.step
        assert all(where.locate(s) is not None for s in shared)
        assert {where.site_at(t) for t in range(30)} <= shared
    else:
        assert where and set(where) == shared
        ts = [a.locate(s) for s in where]
        assert ts == sorted(set(ts))


def test_ray_meet_needs_unit_steps():
    with pytest.raises(ValidationError):
        Ray((0, 0), (2, 0)).meet(Ray((0, 0), (1, 0)))


def test_sitemap_first_match_precedence():
    sm = SiteMap(
        1,
        window={(0,): "w"},
        rays=[(Ray((0,), (1,)), ["r"])],
        planes=[(Plane(0, 2), "p")],
        halfspaces=[(HalfSpace(0, 1, 2), "h")],
        background="b",
    )
    assert sm.value((0,)) == "w"   # window beats the ray
    assert sm.value((1,)) == "r"   # ray beats the half-space
    assert sm.value((2,)) == "r"
    assert sm.value((-1,)) == "b"


def test_sitemap_union_mode():
    sm = SiteMap(
        1,
        window={(0,): frozenset({0})},
        rays=[(Ray((0,), (1,)), [frozenset({1})])],
        background=frozenset(),
        combine="union",
    )
    assert sm.value((0,)) == {0, 1}
    assert sm.value((3,)) == {1}
    assert sm.value((-2,)) == frozenset()


def test_periodic_background():
    bg = PeriodicBackground((2,), {(0,): "even", (1,): "odd"})
    sm = SiteMap(1, background=bg)
    assert sm.value((4,)) == "even"
    assert sm.value((-3,)) == "odd"
    assert sm.periods() == [2]


def test_bounds_and_periods():
    sm = SiteMap(
        2,
        window={(3, -1): "x"},
        rays=[(Ray((0, 5), (0, 1)), ["a", "b"])],
        halfspaces=[(HalfSpace(0, -1, 4), "h")],
    )
    lo, hi = sm.bounds()
    assert lo == [-4, -1]
    assert hi == [3, 5]
    assert sm.periods() == [1, 2]


def test_unitary_tag_validation():
    good = np.eye(2, dtype=complex)
    MatrixField(1, 2, SiteMap(1, background=good), tag="unitary")
    with pytest.raises(ValidationError):
        MatrixField(1, 2, SiteMap(1, background=1.1 * good), tag="unitary")


def test_halfline_hat_is_homogeneous_where_expected():
    # forward-open half-line: the shifted projection opens the same slot one
    # site earlier, so ranks match everywhere except at the origin
    proj = halfline_projection(2, 1)
    hat = proj.shift_conjugate()
    slot = direction_index(1, 1)
    assert proj.open_slots((3, 0)) == {slot}
    assert hat.open_slots((3, 0)) == {slot}
    assert proj.open_slots((0, 0)) == frozenset()
    assert hat.open_slots((0, 0)) == {slot}
    for x in range(-3, 6):
        for y in (-2, -1, 1, 2):
            assert hat.rank((x, y)) == proj.rank((x, y)) == 0


def test_constant_projection_hat_equals_itself():
    full = AdaptedProjection.from_layers(1, background={0, 1})
    hat = full.shift_conjugate()
    for x in range(-4, 5):
        assert hat.open_slots((x,)) == {0, 1}


def test_alternating_projection_hat_is_complement():
    # open slot alternates with the parity of x on {1, 2, ...}; its
    # shift-conjugate opens exactly the other slot on the same region
    proj = alternating_halfline_projection()
    hat = proj.shift_conjugate()
    for x in range(1, 9):
        opened = proj.open_slots((x,))
        expected = {direction_index(1, -1)} if x % 2 else {direction_index(1, 1)}
        assert opened == expected
        assert hat.open_slots((x,)) == {0, 1} - opened
        assert hat.rank((x,)) == proj.rank((x,)) == 1


def test_complement_roundtrip():
    proj = halfline_projection(2, 1)
    comp = proj.complement()
    site = (4, 0)
    assert comp.open_slots(site) == frozenset(range(4)) - proj.open_slots(site)
    assert comp.complement() is proj


def test_projection_apply_masks_slots():
    from fluxwalk.lattice import LatticeState

    proj = halfline_projection(1, 1)
    psi = LatticeState(2, {(2,): np.array([1.0, 2.0]), (-1,): np.array([3.0, 0.0])})
    out = proj.apply(psi)
    assert np.allclose(out.vector_at((2,)), [1.0, 0.0])
    assert out.vector_at((-1,)).tolist() == [0.0, 0.0]


def test_interpolate_unitaries_stays_unitary():
    rng = np.random.default_rng(3)
    u0, u1 = haar_unitary(rng, 4), haar_unitary(rng, 4)
    for s in (0.0, 0.3, 1.0):
        us = interpolate_unitaries(u0, u1, s)
        assert np.max(np.abs(us.conj().T @ us - np.eye(4))) < 1e-12
    assert np.max(np.abs(interpolate_unitaries(u0, u1, 0.0) - u0)) < 1e-12
    assert np.max(np.abs(interpolate_unitaries(u0, u1, 1.0) - u1)) < 1e-12
