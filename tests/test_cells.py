"""One cell contract for walks and networks, on random label arrays.

``flux.CellGeometry`` reads a model's cells only through arrays: the
incoming basis of a label array and the cell labels of a site array.  For
both models, ``cell_labels`` must send every point of every incoming basis
back to its own label, so the incoming bases partition the lattice basis;
for networks, ``out_cells`` must do the same for the outgoing bases.  The
array label maps of a network must also agree with the scalar
``in_cell``/``out_cell`` of ``reference_state``, which its one-step dual
path classification reads.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxwalk.cc import CRITICAL, CCUnitary, in_cells, out_cells
from fluxwalk.fields import SiteMap
from reference_state import conditional_shift, in_cell, out_cell

NETWORK = CCUnitary(SiteMap(2, background=CRITICAL))
coords = st.integers(-60, 60)


def label_arrays(d, even_last=False):
    """(N, d) label arrays with coordinates of both signs; network labels
    lie in Z x 2Z."""
    last = coords.map(lambda c: 2 * c) if even_last else coords
    rows = st.tuples(*([coords] * (d - 1)), last)
    return st.lists(rows, min_size=1, max_size=12).map(lambda r: np.array(r, dtype=np.int64))


def assert_bases_return_to_their_labels(model, labels):
    sites, slots = model.in_basis(labels)
    n, k, d = sites.shape
    assert np.array_equal(model.cell_labels(sites.reshape(-1, d)), np.repeat(labels, k, axis=0))
    # the basis vectors of one cell are distinct
    for row in sites.tolist():
        assert len({(tuple(site), slot) for site, slot in zip(row, slots.tolist())}) == k


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_walk_in_bases_partition_the_lattice(data):
    d = data.draw(st.sampled_from([1, 2]))
    walk = conditional_shift(d)
    labels = data.draw(label_arrays(d))
    assert_bases_return_to_their_labels(walk, labels)
    # every site is its own cell and holds all of the cell's slots
    assert np.array_equal(walk.cell_labels(labels), labels)
    assert walk.in_basis(labels)[1].tolist() == list(range(2 * d))


@settings(max_examples=60, deadline=None)
@given(label_arrays(2, even_last=True))
def test_network_in_and_out_bases_partition_the_lattice(labels):
    assert_bases_return_to_their_labels(NETWORK, labels)
    n = len(labels)
    for basis, cells in ((NETWORK.in_basis, in_cells), (NETWORK.out_basis, out_cells)):
        sites, slots = basis(labels)
        back, back_slots = cells(sites.reshape(-1, 2))
        assert np.array_equal(back, np.repeat(labels, 2, axis=0))
        assert np.array_equal(back_slots, np.tile([0, 1], n))
        # every point of the pair carries the network's one internal slot
        assert slots.tolist() == [0, 0]


@settings(max_examples=60, deadline=None)
@given(label_arrays(2))
def test_network_cell_labels_lie_in_z_times_2z(points):
    labels = NETWORK.cell_labels(points)
    assert (labels[:, 1] % 2 == 0).all()
    # each point belongs to the incoming pair of its cell
    sites = NETWORK.in_basis(labels)[0]
    assert ((sites == points[:, None, :]).all(axis=2).sum(axis=1) == 1).all()


def test_array_label_maps_equal_the_scalar_ones():
    points = np.array(list(itertools.product(range(-7, 8), repeat=2)), dtype=np.int64)
    for array_map, scalar_map in ((in_cells, in_cell), (out_cells, out_cell)):
        labels, slots = array_map(points)
        got = [(tuple(z), j) for z, j in zip(labels.tolist(), slots.tolist())]
        assert got == [scalar_map(p) for p in map(tuple, points.tolist())]
