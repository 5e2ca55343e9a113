"""Dual-path steps in one array pass against the one-step references.

``cc.classify_steps`` classifies a run of dual steps at once; it must give
the crossed points, cells, slots and tags of ``reference_state.classify_step``
step by step, and raise the same error on the first step that is not a unit
step.  The path queries built on it (``DualPath.crossings``,
``switch_window``, ``is_pure``), the labels of ``RegionSplit`` and
``region_difference_rank`` must equal the loops of ``reference_state`` on
the four bundled path types, on random explicit paths and on random bumps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_state as ref
from fluxwalk.cc import (
    DualPath,
    RegionSplit,
    classify_steps,
    crossover_path,
    path_surgery,
    random_bump,
    region_difference_rank,
    straight_r_path,
    wiggled_r_path,
)
from fluxwalk.errors import ValidationError
from test_assembly import dual_paths

UNIT_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@st.composite
def vertex_lists(draw):
    """Self-avoiding unit-step vertex lists from a start of either sign, run
    forwards or backwards."""
    vertices = [(draw(st.integers(-60, 60)), draw(st.integers(-60, 60)))]
    for step in draw(st.lists(st.sampled_from(UNIT_STEPS), max_size=30)):
        nxt = (vertices[-1][0] + step[0], vertices[-1][1] + step[1])
        if nxt not in vertices:
            vertices.append(nxt)
    return vertices[::-1] if draw(st.booleans()) else vertices


def scalar_steps(vertices):
    """``classify_step`` of every step, or the message of the first error."""
    try:
        return [ref.classify_step(t, v, w) for t, (v, w) in enumerate(zip(vertices, vertices[1:]))]
    except ValidationError as exc:
        return str(exc)


def array_steps(vertices):
    v = np.array(vertices, dtype=np.int64).reshape(-1, 2)
    try:
        return classify_steps(v[:-1], v[1:])
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(vertex_lists())
def test_array_classification_matches_the_scalar_steps(vertices):
    points, cells, slots, tags = array_steps(vertices)
    edges = scalar_steps(vertices)
    assert len(points) == len(cells) == len(slots) == len(tags) == len(edges) == len(vertices) - 1
    assert cells.dtype == slots.dtype == np.int64
    for edge, v, w, p, z, s, tag in zip(edges, vertices, vertices[1:], points.tolist(), cells.tolist(), slots.tolist(), tags):
        assert tuple(map(tuple, p)) == ref.crossed_points(v, w)
        assert (tuple(z), s[0], s[1], str(tag)) == (edge.cell, edge.slot_in, edge.slot_out, edge.tag)


@settings(max_examples=200, deadline=None)
@given(vertex_lists(), st.data())
def test_the_first_non_unit_step_fails_as_in_the_scalar_loop(vertices, data):
    # jump to a far or repeated vertex somewhere in the list
    at = data.draw(st.integers(0, len(vertices) - 1))
    jump = data.draw(st.sampled_from([(0, 0), (1, 1), (-2, 0), (0, 3), (-5, 7)]))
    vertices = list(vertices)
    vertices.insert(at + 1, (vertices[at][0] + jump[0], vertices[at][1] + jump[1]))
    message = array_steps(vertices)
    assert isinstance(message, str) and message.endswith("is not a unit step")
    assert message == scalar_steps(vertices)


PATHS = {
    "straight_r": straight_r_path(),
    "straight_r_low": straight_r_path(-2),
    "crossover_west": crossover_path(),
    "crossover_east": crossover_path(False),
    "wiggled_r": wiggled_r_path(),
    "explicit": DualPath([(-4, -3), (-4, -2), (-3, -2), (-2, -2), (-2, -1), (-1, -1)], (0, -1), (1, 0)),
}


def assert_path_queries_match(path, probes=(40, 7)):
    # a fresh path for each query, so a reference mismatch is not hidden by
    # a range another query classified
    fresh = DualPath(path.middle, path.pre_dir, path.post_dir)
    cells, tags = fresh.crossings(-45, path.m_last + 45)
    edges = [ref.step(path, t) for t in range(-45, path.m_last + 45)]
    assert [tuple(z) for z in cells.tolist()] == [e.cell for e in edges]
    assert tags.tolist() == [e.tag for e in edges]
    for probe in probes:
        fresh = DualPath(path.middle, path.pre_dir, path.post_dir)
        assert fresh.switch_window(probe) == ref.switch_window(path, probe)
    t0, t1 = ref.switch_window(path)
    for lo, hi in ((-30, t0), (t1, 30), (-12, 12), (5, 3)):
        for tag in "rt":
            fresh = DualPath(path.middle, path.pre_dir, path.post_dir)
            assert fresh.is_pure(lo, hi, tag) == ref.is_pure(path, lo, hi, tag)
    for lo, hi in (((-6, -6), (6, 6)), ((-20, -3), (4, 15))):
        split = RegionSplit(path, lo, hi)
        labels = ref.region_labels(path, lo, hi)
        assert split._labels.dtype == labels.dtype and split._labels.tobytes() == labels.tobytes()


@pytest.mark.parametrize("name", list(PATHS))
def test_path_queries_match_the_scalar_reference(name):
    assert_path_queries_match(PATHS[name])


@settings(max_examples=40, deadline=None)
@given(dual_paths())
def test_random_path_queries_match_the_scalar_reference(path):
    assert_path_queries_match(path, probes=(40,))


@pytest.mark.parametrize("name", ["straight_r", "crossover_west", "crossover_east", "wiggled_r", "explicit"])
def test_random_bumps_match_the_scalar_reference(name):
    extended = PATHS[name].extended(12, 12)
    t0, t1 = extended.m_last // 2 - 8, extended.m_last // 2 + 8
    rng = np.random.default_rng(17)
    bumped = [b for b in (random_bump(extended, rng, t0, t1) for _ in range(6)) if b is not None]
    assert bumped
    for new_path, rank in bumped:
        assert_path_queries_match(new_path, probes=(40,))
        split = RegionSplit(extended, (-40, -40), (40, 40))
        assert region_difference_rank(split, new_path) == rank == ref.region_difference(extended, new_path, 40)


def test_the_classified_range_only_grows():
    # each step is classified once, however the ranges asked for overlap
    path = crossover_path()
    seen = []

    def recording(t0, t1):
        seen.extend(range(t0, t1))
        return DualPath._classify(path, t0, t1)

    path._classify = recording
    for t0, t1 in ((0, 5), (-3, 2), (10, 12), (-8, 20), (4, 4), (7, 3), (-8, 20)):
        cells, tags = path.crossings(t0, t1)
        assert len(cells) == len(tags) == max(0, t1 - t0)
        assert tags.tolist() == [ref.step(path, t).tag for t in range(t0, t1)]
    assert sorted(seen) == list(range(-8, 20))


def test_a_region_difference_at_the_box_boundary_fails_as_in_the_reference():
    base = straight_r_path().extended(8, 8)
    replacement = [(-3, 0), (-3, 1), (-3, 2), (-2, 2), (-1, 2), (-1, 1), (-1, 0)]
    bumped = path_surgery(base, base.middle.index((-3, 0)), base.middle.index((-1, 0)), replacement, "r")
    assert region_difference_rank(RegionSplit(base, (-6, -6), (6, 6)), bumped) == ref.region_difference(base, bumped, 6) == 4
    with pytest.raises(ValidationError, match="region difference reaches the box boundary"):
        region_difference_rank(RegionSplit(base, (-4, -4), (4, 4)), bumped)
    with pytest.raises(ValidationError, match="region difference reaches the box boundary"):
        ref.region_difference(base, bumped, 4)
