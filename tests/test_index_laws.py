"""Index laws of Avron–Seiler–Simon and Gross–Nesme–Vogts–Werner, checked
through the dense oracle rather than the blockwise path.

For a strictly local unitary U and a projection P whose flux is compact,
ind(U*, P) = -ind(U, P) and ind(U^2, P) = 2 ind(U, P).  The walks of four
bundled scenarios are wrapped on the test side (``apply`` and
``apply_adjoint`` swapped, or applied twice) and each index is counted by
``flux.dense_window_index`` on the box around the kept window blocks,
padded by 2 and by 3: U^2 has band width 2, so its flux reaches one site
further than that of U.  The same laws hold for the capped crossover
networks of ``test_cc.test_dense_window_oracle_on_capped_flux``, whose
fluxes have finitely many nonzero blocks.

The index is also covariant under translations: moving every layer of a
walk's coin and projection by an integer vector moves the kept labels by
it and leaves every kept block, eigenvalue and index formula as it was.
The same holds for a capped crossover network moved by (2a, 2b), its
scattering window, rays and dual path together: cells live on Z x 2Z, so
an even shift maps the cell lattice and its scattering layout onto
themselves.
"""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxwalk.cc import CCUnitary, DualPath, cc_index, crossover_path, random_phase_window
from fluxwalk.cli import bundled_scenarios
from fluxwalk.fields import AdaptedProjection, HalfSpace, Plane, Ray, SiteMap
from fluxwalk.flux import analyze, dense_window_index
from fluxwalk.scenarios import _checked_setup
from fluxwalk.walks import build_walk, build_walk_flux
from test_cc import capped, params_r


class Adjoint:
    """U* as a unitary of its own."""

    def __init__(self, u):
        self.u = u

    def apply(self, psi):
        return self.u.apply_adjoint(psi)

    def apply_adjoint(self, psi):
        return self.u.apply(psi)


class Squared:
    """U^2 as a unitary of its own."""

    def __init__(self, u):
        self.u = u

    def apply(self, psi):
        return self.u.apply(self.u.apply(psi))

    def apply_adjoint(self, psi):
        return self.u.apply_adjoint(self.u.apply_adjoint(psi))


@pytest.mark.parametrize("pad", [2, 3])
@pytest.mark.parametrize(
    "name, index",
    [("basic_example", 1), ("half_line_plus", 1), ("two_outgoing_leads", 2), ("lead_in_out", 0)],
)
def test_the_index_is_odd_under_adjoints_and_additive_under_squares(name, index, pad):
    setup = _checked_setup(json.loads(bundled_scenarios()[name].read_text()))
    flux = setup.flux
    assert setup.index_report.index == index
    labels = flux.box.index.table[flux.kept]
    lo, hi = labels.min(axis=0), labels.max(axis=0)
    box = list(itertools.product(*[range(l - pad, h + pad + 1) for l, h in zip(lo.tolist(), hi.tolist())]))
    walk = flux.geometry.unitary

    def dense(u):
        return dense_window_index(u, setup.projection.apply, box, walk.n_internal, setup.tol)

    assert dense(walk) == index
    assert dense(Adjoint(walk)) == -index
    assert dense(Squared(walk)) == 2 * index


@pytest.mark.parametrize("pad", [2, 3])
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("west_first", [True, False])
def test_the_capped_network_index_is_odd_under_adjoints_and_additive_under_squares(west_first, seed, pad):
    path = crossover_path(west_first)
    window = random_phase_window(np.random.default_rng(seed), 0.2, range(-3, 4), range(-3, 4))
    field = capped(SiteMap(2, window=window, background=params_r(0.2)), path)
    report, flux = cc_index(field, path)
    assert flux.tail_zero and abs(report.index) == 1
    # the points of every kept cell's incoming pair, padded
    points = flux.geometry.unitary.in_basis(flux.box.index.table[flux.kept])[0].reshape(-1, 2)
    lo, hi = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    box = list(itertools.product(*[range(l - pad, h + pad + 1) for l, h in zip(lo, hi)]))
    network = CCUnitary(field)

    def dense(u):
        return dense_window_index(u, flux.geometry.proj.apply, box, 1)

    assert dense(network) == report.index
    assert dense(Adjoint(network)) == -report.index
    assert dense(Squared(network)) == 2 * report.index


def translated(field: SiteMap, v) -> SiteMap:
    """``field`` moved by the integer vector ``v``: its window sites, ray
    bases, plane values and half-space thresholds, with the same values."""
    return SiteMap(
        field.d,
        window=(field.window_coords.T + np.array(v, dtype=np.int64), field.window_values),
        rays=[(Ray(tuple(b + x for b, x in zip(ray.base, v)), ray.step), pattern) for ray, pattern in field.rays],
        planes=[(Plane(p.axis, p.value + v[p.axis]), value) for p, value in field.planes],
        halfspaces=[(HalfSpace(h.axis, h.sign, h.threshold + h.sign * v[h.axis]), value) for h, value in field.halfspaces],
        background=field.background,
    )


@functools.cache
def bundled_setup(name):
    return _checked_setup(json.loads(bundled_scenarios()[name].read_text()))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["basic_example", "half_line_plus", "two_incoming_leads", "bulk_boundary", "lead_in_out"]), st.data())
def test_a_translated_walk_has_the_translated_flux(name, data):
    setup = bundled_setup(name)
    d, flux = setup.coin.d, setup.flux
    v = data.draw(st.tuples(*[st.integers(-5, 5)] * d), label="v")
    proj = AdaptedProjection(d, translated(setup.projection.map, v))
    moved = build_walk_flux(build_walk(translated(setup.coin, v), setup.tol), proj, setup.tol)
    labels = flux.box.index.table[flux.kept]
    assert np.array_equal(moved.box.index.table[moved.kept], labels + np.array(v))
    assert moved.box.flux[moved.kept].tobytes() == flux.box.flux[flux.kept].tobytes()
    assert moved.eigh.eigenvalues.tobytes() == flux.eigh.eigenvalues.tobytes()
    want, got = analyze(flux), analyze(moved)
    assert (got.index, got.dim_ker_plus) == (want.index, want.dim_ker_plus)
    assert got.certificate.bound == want.certificate.bound
    assert got.odd_trace == want.odd_trace


@functools.cache
def capped_crossover(west_first, seed):
    """A capped crossover network on a random phase window, and its flux."""
    path = crossover_path(west_first)
    window = random_phase_window(np.random.default_rng(seed), 0.2, range(-3, 4), range(-3, 4))
    field = capped(SiteMap(2, window=window, background=params_r(0.2)), path)
    return field, path, cc_index(field, path)


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.integers(0, 7), st.integers(-3, 3), st.integers(-3, 3))
def test_a_translated_capped_network_has_the_translated_flux(west_first, seed, a, b):
    field, path, (want, flux) = capped_crossover(west_first, seed)
    v = (2 * a, 2 * b)
    moved_path = DualPath([(x + v[0], y + v[1]) for x, y in path.middle], path.pre_dir, path.post_dir)
    got, moved = cc_index(translated(field, v), moved_path)
    labels = flux.box.index.table[flux.kept]
    assert np.array_equal(moved.box.index.table[moved.kept], labels + np.array(v))
    assert moved.box.flux[moved.kept].tobytes() == flux.box.flux[flux.kept].tobytes()
    assert moved.eigh.eigenvalues.tobytes() == flux.eigh.eigenvalues.tobytes()
    assert abs(want.index) == 1 and (got.index, got.rank_difference) == (want.index, want.rank_difference)
