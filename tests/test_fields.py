import functools
import re

import numpy as np
import pytest
import reference_state as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxwalk.errors import ValidationError
from fluxwalk.fields import (
    AdaptedProjection,
    HalfSpace,
    Plane,
    Ray,
    SiteMap,
    interpolate_matrix_fields,
    interpolate_unitaries,
)
from fluxwalk.lattice import add, all_direction_vectors, direction_index, haar_unitary
from fluxwalk.walks import build_walk, halfline_projection


def test_ray_locate():
    ray = Ray((1, 0), (1, 0))
    assert ray.locate((1, 0)) == 0
    assert ray.locate((5, 0)) == 4
    assert ray.locate((0, 0)) is None
    assert ray.locate((3, 1)) is None
    assert ray.site_at(2) == (3, 0)


# coordinates near the origin and far out, short of where t * step leaves int64
ray_coordinate = st.one_of(st.integers(-4, 4), st.sampled_from([2**40, -(2**40), 2**60, -(2**60)]))


@st.composite
def rays_and_sites(draw):
    """A ray with a unit, non-unit or diagonal step and sites near its
    base, on and beside it, and near the origin."""
    d = draw(st.integers(1, 3))
    base = draw(st.tuples(*[ray_coordinate] * d))
    step = draw(st.tuples(*[st.integers(-3, 3)] * d).filter(any))
    near = st.tuples(*[st.integers(-10, 10)] * d)
    ray = Ray(base, step)
    sites = [tuple(b + o for b, o in zip(base, off)) for off in draw(st.lists(near, max_size=30))]
    sites += [tuple(x + o for x, o in zip(ray.site_at(t), off)) for t in range(-3, 6) for off in [(0,) * d, draw(near)]]
    sites += draw(st.lists(near, max_size=10))
    return ray, sites


@settings(max_examples=200, deadline=None)
@given(rays_and_sites())
def test_locate_all_agrees_with_locate(case):
    ray, sites = case
    hit, t = ray.locate_all(np.array(sites, dtype=np.int64))
    assert hit.dtype == bool and t.shape == hit.shape == (len(sites),)
    assert [int(x) if h else None for h, x in zip(hit, t)] == [ray.locate(s) for s in sites]


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


@pytest.mark.parametrize("shape", [Plane(1, -2), HalfSpace(0, 1, 1), HalfSpace(1, -1, 2)], ids=repr)
def test_planes_and_half_spaces_locate_as_rays_do(shape):
    # 0 on the layer and None off it, one site at a time or as an array
    sites = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    holds = [
        s[shape.axis] == shape.value if isinstance(shape, Plane) else shape.sign * s[shape.axis] >= shape.threshold
        for s in sites
    ]
    assert [shape.locate(s) for s in sites] == [0 if h else None for h in holds]
    hit, t = shape.locate_all(np.array(sites, dtype=np.int64))
    assert hit.tolist() == holds and t.shape == hit.shape and not t.any()


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
    # an adapted projection unites the open slots of every matching layer
    proj = AdaptedProjection.from_layers(
        1,
        window={(0,): {0}},
        rays=[(Ray((0,), (1,)), [{1}])],
    )
    assert proj.open_slots((0,)) == {0, 1}
    assert proj.open_slots((3,)) == {1}
    assert proj.open_slots((-2,)) == frozenset()


def test_sitemap_overridden_order_and_precedence():
    sm = SiteMap(
        1,
        window={(0,): "a", (1,): "b"},
        rays=[(Ray((5,), (1,)), ["r"])],
        background="bg",
    )
    out = sm.overridden(window={(1,): "B", (2,): "C"}, rays=[(Ray((7,), (1,)), ["R"])])
    # new window entries first, then the untouched old ones
    assert out.window_coords.tolist() == [[1, 2, 0]] and out.window_values == ("B", "C", "a")
    assert out.value((0,)) == "a" and out.value((1,)) == "B" and out.value((2,)) == "C"
    assert out.value((6,)) == "r" and out.value((7,)) == "R" and out.value((-1,)) == "bg"
    assert sm.value((1,)) == "b" and sm.value((7,)) == "r"


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


def test_bounds_and_periods_are_kept_and_read_as_fresh_lists():
    sm = SiteMap(2, window={(3, -1): "x"}, rays=[(Ray((0, 5), (0, 1)), ["a", "b"])])
    lo, hi = sm.bounds()
    periods = sm.periods()
    lo[0] = hi[1] = periods[1] = 99
    # the layers are read-only, so a later read returns the kept values
    # without another pass over them
    sm.rays = ()
    assert sm.bounds() == ([0, -1], [3, 5]) and sm.periods() == [1, 2]


def test_unitary_tag_validation():
    good = np.eye(2, dtype=complex)
    assert build_walk(SiteMap(1, background=good)).n_internal == 2
    with pytest.raises(ValidationError, match="not unitary"):
        build_walk(SiteMap(1, background=1.1 * good))
    with pytest.raises(ValidationError, match="shape"):
        build_walk(SiteMap(1, background=np.eye(4, dtype=complex)))
    with pytest.raises(ValidationError, match="shape"):
        build_walk(SiteMap(2, window={(0, 0): good}, background=np.eye(4, dtype=complex)))
    # two failing window entries: the message names the first in
    # ``template_values`` order, the window sorted by site, not the first
    # in the window's own order
    for bad, message in [
        (np.eye(4, dtype=complex), "coin matrix at window(-2,) has shape (4, 4), expected (2, 2)"),
        (1.1 * good, "coin matrix at window(-2,) is not unitary"),
    ]:
        coin = SiteMap(1, window={(3,): bad, (0,): good, (-2,): bad}, rays=[(Ray((5,), (1,)), [good])], background=good)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build_walk(coin)


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
            assert len(hat.open_slots((x, y))) == len(proj.open_slots((x, y))) == 0


def test_constant_projection_hat_equals_itself():
    full = AdaptedProjection.from_layers(1, background={0, 1})
    hat = full.shift_conjugate()
    for x in range(-4, 5):
        assert hat.open_slots((x,)) == {0, 1}


def alternating_halfline_projection() -> AdaptedProjection:
    """d=1, open direction alternating with the parity of x on {1, 2, ...}:
    x = 1 + t, odd x first."""
    slot_plus = direction_index(1, 1)
    slot_minus = direction_index(1, -1)
    return AdaptedProjection.from_layers(1, rays=[(Ray((1,), (1,)), [{slot_minus}, {slot_plus}])])


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
        assert len(hat.open_slots((x,))) == len(proj.open_slots((x,))) == 1


def test_complement_roundtrip():
    proj = halfline_projection(2, 1)
    comp = proj.complement()
    site = (4, 0)
    assert comp.open_slots(site) == frozenset(range(4)) - proj.open_slots(site)
    assert comp.complement() is proj


def test_projection_apply_masks_slots():
    proj = halfline_projection(1, 1)
    psi = ref.state(2, {(2,): np.array([1.0, 2.0]), (-1,): np.array([3.0, 0.0])})
    out = proj.apply(psi)
    assert np.allclose(ref.vector_at(out, (2,)), [1.0, 0.0])
    assert ref.vector_at(out, (-1,)).tolist() == [0.0, 0.0]


def test_interpolate_unitaries_stays_unitary():
    rng = np.random.default_rng(3)
    u0, u1 = haar_unitary(rng, 4), haar_unitary(rng, 4)
    for s in (0.0, 0.3, 1.0):
        us = interpolate_unitaries(u0, u1, s)
        assert np.max(np.abs(us.conj().T @ us - np.eye(4))) < 1e-12
    assert np.max(np.abs(interpolate_unitaries(u0, u1, 0.0) - u0)) < 1e-12
    assert np.max(np.abs(interpolate_unitaries(u0, u1, 1.0) - u1)) < 1e-12


def _interpolation_pair(layer, extra):
    eye = np.eye(4, dtype=complex)
    return SiteMap(2, background=eye, **{layer: extra}), SiteMap(2, background=eye)


@pytest.mark.parametrize(
    "layer,extra",
    [
        ("planes", [(Plane(0, 5), -np.eye(4, dtype=complex))]),
        ("halfspaces", [(HalfSpace(0, 1, 5), -np.eye(4, dtype=complex))]),
    ],
    ids=["plane", "halfspace"],
)
def test_interpolation_rejects_a_missing_layer(layer, extra):
    f0, f1 = _interpolation_pair(layer, extra)
    for a, b in ((f0, f1), (f1, f0)):
        with pytest.raises(ValidationError, match=layer):
            interpolate_matrix_fields(a, b, 0.0)
    # with matching layers, s = 0 reproduces the first field
    same = interpolate_matrix_fields(f0, f0, 0.0)
    assert np.allclose(same.value((5, 0)), f0.value((5, 0)))


def test_interpolation_rejects_mismatched_geometry_and_patterns():
    eye = np.eye(2, dtype=complex)
    f0 = SiteMap(1, planes=[(Plane(0, 5), eye)], background=eye)
    f1 = SiteMap(1, planes=[(Plane(0, 6), eye)], background=eye)
    with pytest.raises(ValidationError, match="planes"):
        interpolate_matrix_fields(f0, f1, 0.5)
    r0 = SiteMap(1, rays=[(Ray((0,), (1,)), [eye])], background=eye)
    r1 = SiteMap(1, rays=[(Ray((0,), (1,)), [eye, eye])], background=eye)
    with pytest.raises(ValidationError, match="pattern"):
        interpolate_matrix_fields(r0, r1, 0.5)


@st.composite
def layered_maps(draw):
    """A random layered map in d = 1 or 2, as a SiteMap with a distinct tag
    per layer entry and as an AdaptedProjection with random slot sets on the
    same layers.  Bases, plane values and thresholds crowd round the origin,
    so rays overlap each other and the other layers."""
    d = draw(st.integers(1, 2))
    coord = st.integers(-3, 3)
    site = st.tuples(*[coord] * d)
    slots = st.frozensets(st.integers(0, 2 * d - 1))
    window = draw(st.lists(site, max_size=6, unique=True))
    steps = st.tuples(*[st.integers(-2, 2)] * d).filter(any)
    rays = draw(st.lists(st.tuples(site, steps, st.integers(1, 3)), max_size=4))
    planes = draw(st.lists(st.tuples(st.integers(0, d - 1), coord), max_size=2))
    halfspaces = draw(
        st.lists(st.tuples(st.integers(0, d - 1), st.sampled_from([-1, 1]), coord), max_size=2)
    )
    rays = [(Ray(base, step), length) for base, step, length in rays]
    planes = [Plane(axis, v) for axis, v in planes]
    halfspaces = [HalfSpace(*h) for h in halfspaces]
    tags = SiteMap(
        d,
        window={s: f"w{s}" for s in window},
        rays=[(ray, [f"r{i}[{k}]" for k in range(n)]) for i, (ray, n) in enumerate(rays)],
        planes=[(p, f"p{i}") for i, p in enumerate(planes)],
        halfspaces=[(h, f"h{i}") for i, h in enumerate(halfspaces)],
        background=draw(st.sampled_from([None, "bg"])),
    )
    proj = AdaptedProjection.from_layers(
        d,
        window={s: draw(slots) for s in window},
        rays=[(ray, [draw(slots) for _ in range(n)]) for ray, n in rays],
        planes=[(p, draw(slots)) for p in planes],
        halfspaces=[(h, draw(slots)) for h in halfspaces],
        background=draw(slots),
    )
    return tags, proj


def _probe_sites(d: int) -> np.ndarray:
    """Every site of [-8, 8]^d: five sites or more beyond every layer's
    features, more than any ray pattern's period."""
    axes = np.meshgrid(*[np.arange(-8, 9)] * d, indexing="ij")
    return np.stack([a.reshape(-1) for a in axes], axis=1)


@given(layered_maps())
def test_array_lookups_match_the_scalar_ones(maps):
    # both forms read the one ``layers`` list; the reference reads the rays,
    # planes and half-spaces kind by kind and tests a site on a layer by its
    # coordinates, so a wrong order or pattern entry in ``layers`` shows
    tags, proj = maps
    d = tags.d
    sites = _probe_sites(d)
    points = list(map(tuple, sites.tolist()))
    want = [ref.sitemap_value(tags, s) for s in points]
    assert [tags.value(s) for s in points] == want
    assert [tags.table[i] for i in tags.value_index(sites)] == want
    full, dirs = frozenset(range(2 * d)), all_direction_vectors(d)

    def conjugate(slots):
        return lambda s: frozenset(k for k, v in enumerate(dirs) if k in slots(add(s, v)))

    base = functools.lru_cache(maxsize=None)(lambda s: ref.projection_slots(proj, s))
    hat, hat_ref = proj.shift_conjugate(), conjugate(base)
    for p, slots in (
        (proj, base),
        (hat, hat_ref),
        (proj.complement(), lambda s: full - base(s)),
        (hat.complement(), lambda s: full - hat_ref(s)),
        (hat.shift_conjugate(), conjugate(hat_ref)),
    ):
        expected = [slots(s) for s in points]
        masks = (p.slot_bits(sites)[:, None] >> np.arange(2 * d, dtype=np.uint64)) & 1
        assert masks.shape == (len(points), 2 * d)
        assert [set(np.flatnonzero(m).tolist()) for m in masks] == expected
        assert [p.open_slots(s) for s in points] == expected


@given(layered_maps(), st.booleans())
def test_a_pair_window_reads_like_its_dict(maps, listed):
    # a dict window is read once into the pair of its keys and values, and
    # a pair lists its sites as tuples or as an array: every argument gives
    # the same map, whose one-site reads go through the window's SiteIndex
    tags, _ = maps
    d, sites = tags.d, tags.window_coords.T
    window = dict(zip(map(tuple, sites.tolist()), tags.window_values))
    layers = dict(rays=tags.rays, planes=tags.planes, halfspaces=tags.halfspaces, background=tags.background)
    same = SiteMap(d, window=dict(window), **layers)
    pair = SiteMap(d, window=([*window] if listed else sites.copy(), tuple(window.values())), **layers)
    for m in (same, pair):
        assert m.window_coords.dtype == np.int64 and m.window_coords.shape == (d, len(window))
    assert pair.window_coords.tolist() == same.window_coords.tolist() == tags.window_coords.tolist()
    assert pair.window_values == same.window_values == tuple(window.values())
    assert pair.table == same.table
    probes = _probe_sites(d)
    assert pair.value_index(probes).tolist() == same.value_index(probes).tolist()
    assert [pair.value(p) for p in probes.tolist()] == [same.value(p) for p in probes.tolist()]
    assert [pair.value(site) for site in window] == list(window.values())
    assert list(pair.template_values()) == list(same.template_values())
    assert pair.bounds() == same.bounds()
    with pytest.raises(ValidationError, match="3 window sites, 2 values"):
        SiteMap(2, window=(np.array([(0, 0), (2, -1), (-3, 4)]), ["a", "b"]))


@st.composite
def pair_overrides(draw):
    """A pair-form map with a ray, and a pair override with a ray of its
    own, as (map, override sites, override values, override rays).  The
    override sites repeat, fall on drawn sites and reach beyond them."""
    near, far = (st.tuples(st.integers(-n, n), st.integers(-n, n)) for n in (3, 6))
    drawn = draw(st.lists(near, max_size=12, unique=True))
    added = draw(st.lists(st.sampled_from(drawn or [(0, 0)]) | far, max_size=16))
    steps = st.sampled_from([(1, 0), (0, -1), (-2, 1)])
    rays = [(Ray(draw(far), draw(steps)), [np.full(3, k + 0.5)]) for k in (1, 2)]
    rows = np.arange(3 * (len(drawn) + len(added)), dtype=complex).reshape(-1, 3)
    pair = SiteMap(2, window=(np.array(drawn).reshape(-1, 2), rows[: len(drawn)]), rays=rays[:1], background=np.zeros(3))
    return pair, np.array(added).reshape(-1, 2), rows[len(drawn) :], rays[1:]


@given(pair_overrides(), st.booleans(), st.booleans(), st.booleans())
def test_a_pair_override_matches_the_dict_merge(maps, as_list, on_dict, by_dict):
    # an override, by a pair or a dict, gives the window order and values of
    # the dict merge (each new site at its first position with its last
    # value, then the drawn sites it leaves); its values are one array when
    # the override's are and the map's are one or none
    pair, sites, values, rays = maps
    drawn = dict(zip(map(tuple, pair.window_coords.T.tolist()), pair.window_values))
    as_dict = SiteMap(2, window=drawn, rays=pair.rays, background=pair.background)
    new = dict(zip(map(tuple, sites.tolist()), values))
    window = new if by_dict else (sites, list(values) if as_list else values)
    merged = (as_dict if on_dict else pair).overridden(window=window, rays=rays)
    want = ref.dict_merge(pair, new)
    block = not by_dict and not as_list and not (on_dict and len(pair.window_values))
    assert isinstance(merged.window_values, np.ndarray) == block
    assert [tuple(s) for s in merged.window_coords.T.tolist()] == list(want)
    assert np.array_equal(np.array(merged.window_values).reshape(-1, 3), np.array([*want.values()]).reshape(-1, 3))
    oracle = SiteMap(2, window=want, rays=(*rays, *pair.rays), background=pair.background)
    probes = np.concatenate([_probe_sites(2), [ray.site_at(t) for ray, _ in merged.rays for t in (0, 7, 30)]])
    got = np.array([merged.table[i] for i in merged.value_index(probes)])
    assert np.array_equal(got, [oracle.table[i] for i in oracle.value_index(probes)])
    assert np.array_equal([merged.value(p) for p in probes.tolist()], [oracle.value(p) for p in probes.tolist()])
    assert merged.bounds() == oracle.bounds() and merged.periods() == oracle.periods()


def test_array_lookups_of_a_sparse_window():
    # a window whose bounding box is too large for a grid is read per site
    far = 10**6
    sm = SiteMap(2, window={(0, 0): "a", (far, far): "b", (-far, 3): "c"}, background="bg")
    sites = np.array([(0, 0), (far, far), (-far, 3), (1, 0), (far, 0)])
    assert [sm.table[i] for i in sm.value_index(sites)] == ["a", "b", "c", "bg", "bg"]


def test_sitemap_layers_are_read_only():
    sm = SiteMap(1, window={(0,): "w"}, rays=[(Ray((0,), (1,)), ["r"])], background="b")
    assert sm.value_index(np.array([[0], [1]])).tolist() == [0, 1]
    with pytest.raises(TypeError):
        sm.window_values[0] = "x"
    with pytest.raises(AttributeError):
        sm.rays.append((Ray((5,), (1,)), ["s"]))
    assert sm.value((5,)) == "r" and sm.value_index(np.array([[5]])).tolist() == [1]
