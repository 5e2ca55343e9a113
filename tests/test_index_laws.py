"""Index laws of Avron–Seiler–Simon and Gross–Nesme–Vogts–Werner, checked
through the dense oracle rather than the blockwise path.

For a strictly local unitary U and a projection P whose flux is compact,
ind(U*, P) = -ind(U, P) and ind(U^2, P) = 2 ind(U, P).  The walks of four
bundled scenarios are wrapped on the test side (``apply`` and
``apply_adjoint`` swapped, or applied twice) and each index is counted by
``flux.dense_window_index`` on the box around the kept window blocks,
padded by 2 and by 3: U^2 has band width 2, so its flux reaches one site
further than that of U.
"""

import itertools
import json

import pytest

from fluxwalk.cli import bundled_scenarios
from fluxwalk.flux import dense_window_index
from fluxwalk.scenarios import _checked_setup


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
