"""The flux axis of ``assemble_field`` and the one cap reach of ``anomalous_transport``.

A list of geometries that share one window and one projection is assembled
as one stack.  Every field of a stack must equal, byte for byte, the field
that assembling its geometry alone gives: box arrays and labels, rank list,
certificate, kept box rows and the ``eigh`` stack over them, which must
also equal one ``eigh`` per kept block.  A fault in a later flux of
a stack must raise what assembling that flux alone raises, and a geometry
with another window or projection must not enter a stack.

The capped fields of an anomalous analysis take one cap reach, the largest
epsilon's.  Each must carry the S^T values of the field that its own
epsilon's reach gave (``reference_state.per_epsilon_capped``), and give the
same odd trace.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxwalk.cc as cc_module
import reference_state as ref
from fluxwalk.cc import (
    CRITICAL,
    CCUnitary,
    RegionSplit,
    anomalous_transport,
    cc_flux,
    crossover_path,
    random_phase_window,
)
from fluxwalk.cli import bundled_scenarios
from fluxwalk.errors import ConsistencyError, FluxwalkError, ValidationError
from fluxwalk.fields import SiteMap
from fluxwalk.flux import CellGeometry, assemble_field, index_by_odd_trace
from fluxwalk.scenarios import ANALYSES, _checked_setup
from test_cc import params_r

EPSILONS = [0.25, 0.125, 0.0625]
# the |r| of the bench's CC jobs, the critical one last
MODULI = [0.2, 0.3, 0.4, float(abs(CRITICAL.r))]

BOX_FIELDS = ("flux", "p_in", "p_out", "cells", "eigenvalues", "norms", "window")


def _recorded_stacks(monkeypatch):
    """The geometries and tolerances of every stack of more than one flux
    that ``cc`` assembles while the patch holds."""
    stacks, original = [], cc_module.assemble_field

    def recording(geometry, block_fn, tol):
        if len(geometry) > 1:
            stacks.append((geometry, tol))
        return original(geometry, block_fn, tol)

    monkeypatch.setattr(cc_module, "assemble_field", recording)
    return stacks


def _random_field(seed, r_abs, extent=8):
    span = range(-extent, extent + 1)
    return SiteMap(2, window=random_phase_window(np.random.default_rng(seed), r_abs, span, span), background=params_r(r_abs))


def assert_field_is_its_own(stacked, alone):
    """One field of a stack against the same geometry assembled alone."""
    box, own = stacked.box, alone.box
    assert box.index.table.tobytes() == own.index.table.tobytes()
    for name in BOX_FIELDS:
        got, want = getattr(box, name), getattr(own, name)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert box.rank_differences == own.rank_differences
    assert stacked.rank_difference == alone.rank_difference
    cert, want = stacked.certificate, alone.certificate
    assert (cert.ok, cert.radius, cert.witness) == (want.ok, want.radius, want.witness)
    assert np.float64(cert.bound).tobytes() == np.float64(want.bound).tobytes()
    assert stacked.kept.tolist() == alone.kept.tolist()
    assert len(stacked.eigh.eigenvalues) == len(alone.eigh.eigenvalues) == len(stacked.kept)
    # the eigh stack against one eigh per kept block
    for i, row in enumerate(stacked.kept.tolist()):
        w, v = stacked.eigh.eigenvalues[i], stacked.eigh.eigenvectors[i]
        w_ref, v_ref = np.linalg.eigh(box.flux[row][None])
        assert w.tobytes() == alone.eigh.eigenvalues[i].tobytes() == w_ref[0].tobytes(), row
        assert v.tobytes() == alone.eigh.eigenvectors[i].tobytes() == v_ref[0].tobytes(), row


def assert_stack_is_each_alone(geometries, tol):
    fields = assemble_field(geometries, geometries[0].block, tol)
    assert len(fields) == len(geometries) and [f.geometry for f in fields] == geometries
    for field, geometry in zip(fields, geometries):
        assert_field_is_its_own(field, assemble_field(geometry, geometry.block, tol))


# ---------------------------------------------------------------------------
# a stack equals its fluxes assembled alone


def test_the_capped_stacks_of_bundled_draws_are_each_flux_alone(monkeypatch):
    spec = json.loads(bundled_scenarios()["cc_anomalous"].read_text())
    stacks = _recorded_stacks(monkeypatch)
    out = ANALYSES["cc"]["anomalous_transport"](_checked_setup(spec), {"epsilons": EPSILONS, "draws": 5}, {})
    assert out["pass"] and len(stacks) == 5
    for geometries, tol in stacks:
        assert len(geometries) == len(EPSILONS)
        assert_stack_is_each_alone(geometries, tol)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(MODULI))
def test_the_capped_stacks_of_random_windows_are_each_flux_alone(seed, west_first, r_abs):
    with pytest.MonkeyPatch.context() as monkeypatch:
        stacks = _recorded_stacks(monkeypatch)
        anomalous_transport(_random_field(seed, r_abs), crossover_path(west_first), EPSILONS)
    (geometries, tol), = stacks
    assert_stack_is_each_alone(geometries, tol)


def _stack(seed=3):
    """The geometries of the capped stack of one random field."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        stacks = _recorded_stacks(monkeypatch)
        anomalous_transport(_random_field(seed, 0.3), crossover_path(), EPSILONS)
    return stacks[0]


def _faulty(geometries, position, bad, shift):
    """The stack's ``block_fn`` with ``shift`` added to the blocks of flux
    ``position`` at the labels ``bad``, every label on its own row; with one
    geometry, that geometry's own ``block_fn`` so altered."""

    def block_fn(labels, *stacked):
        *stacks, which = geometries[0].block(labels, *stacked)
        flux, *rest = (a[which] for a in stacks)
        rows = np.flatnonzero([tuple(label) in bad for label in labels.tolist()])
        flux[position * len(labels) + rows] += shift
        return (flux, *rest, np.arange(len(which)))

    return block_fn


def _raised(geometry, block_fn, tol):
    with pytest.raises(FluxwalkError) as info:
        assemble_field(geometry, block_fn, tol)
    return info.type, str(info.value)


def test_a_fault_in_the_second_flux_raises_what_that_flux_alone_raises():
    geometries, tol = _stack()
    window = geometries[0].window
    (x0, y0), (x1, _), (bx, by) = window.lo, window.hi, window.bands
    faults = [
        # a non-Hermitian block at a window label and a later shell label
        ({(x0 + 1, y0), (x1 + bx, y0)}, np.array([[0.0, 1.0], [0.0, 0.0]]), ValidationError, "is not Hermitian"),
        # a tripwire block that no longer repeats its shell partner
        ({(x1 + 2 * bx, y0 - 2 * by)}, 0.5 * np.eye(2), ConsistencyError, "tail is not translation invariant"),
    ]
    for bad, shift, error, message in faults:
        expected = _raised(geometries[1], _faulty(geometries[1:2], 0, bad, shift), tol)
        assert expected[0] is error and message in expected[1]
        assert _raised(geometries, _faulty(geometries, 1, bad, shift), tol) == expected
        # the first flux alone is sound, so the fault is the second one's
        assemble_field(geometries[0], _faulty(geometries[:1], 0, set(), 0.0), tol)


def test_a_stack_refuses_another_window_or_projection():
    geometries, tol = _stack()
    first, second = geometries[:2]
    unitary = second.unitary
    uncapped = cc_flux(_random_field(3, 0.3), crossover_path())
    others = [
        CellGeometry(unitary, first.proj, uncapped.geometry.window, first.probes),
        CellGeometry(unitary, RegionSplit(crossover_path(), *first.proj.box), first.window, first.probes),
    ]
    for other in others:
        with pytest.raises(ConsistencyError, match="share one window and one projection"):
            assemble_field([first, other], first.block, tol)


# ---------------------------------------------------------------------------
# one cap reach changes no capped field


def _cell_box(reach):
    a, b = np.arange(-reach, reach + 1), np.arange(-reach - reach % 2, reach + 1, 2)
    return np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1).reshape(-1, 2)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(MODULI))
def test_the_shared_reach_changes_no_capped_field(seed, west_first, r_abs):
    path, field = crossover_path(west_first), _random_field(seed, r_abs)
    with pytest.MonkeyPatch.context() as monkeypatch:
        stacks = _recorded_stacks(monkeypatch)
        result = anomalous_transport(field, path, EPSILONS)
    (geometries, _), = stacks
    uncapped = cc_flux(field, path)
    # a cell box that covers both reaches (36 at most) with room to spare
    labels = _cell_box(60)
    for eps, geometry, (_, trace) in zip(EPSILONS, geometries, result["traces"]):
        own = ref.per_epsilon_capped(field, path, eps, uncapped)
        table, rows, *_ = geometry.unitary.cells(labels)
        own_table, own_rows, *_ = CCUnitary(own).cells(labels)
        # equal as values; a cap that was a ray cell may now be a window row,
        # whose zero entries may carry the other sign
        assert np.array_equal(table[rows], own_table[own_rows])
        assert index_by_odd_trace(cc_flux(own, path), 0) == trace
    # the shared reach is the smallest epsilon's own: its field is unchanged
    widest, shared = ref.per_epsilon_capped(field, path, EPSILONS[-1], uncapped), geometries[-1].unitary.scattering
    assert widest.window_coords.tobytes() == shared.window_coords.tobytes()
    assert [ray for ray, _ in widest.rays] == [ray for ray, _ in shared.rays]


def test_an_epsilon_out_of_range_after_a_valid_one_still_raises(monkeypatch):
    fluxes, original = [], cc_module.assemble_field
    monkeypatch.setattr(cc_module, "assemble_field", lambda *args: fluxes.append(args) or original(*args))
    with pytest.raises(ValidationError, match=re.escape("epsilon 1.5 out of range")):
        anomalous_transport(_random_field(5, 0.2), crossover_path(), [0.25, 1.5])
    # every epsilon is checked before any capped flux is assembled
    assert [len(geometries) for geometries, *_ in fluxes] == [1]
