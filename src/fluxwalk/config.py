"""Central tolerance record shared by every verification routine."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances, one knob per kind of check.

    ``eigenvalue_unit`` decides when a flux eigenvalue counts as exactly +1 or
    -1; anything between that and ``guard_factor`` times it aborts instead of
    silently miscounting.
    """

    unitary: float = 1e-12
    hermitian: float = 1e-12
    eigenvalue_unit: float = 1e-8
    guard_factor: float = 10.0
    trace_match: float = 1e-9
    shift_check: float = 1e-10
    kernel_membership: float = 1e-10
    wandering: float = 1e-12
    block_prune: float = 1e-13
    certificate_margin: float = 1e-9

    @property
    def guard_band(self) -> float:
        return self.guard_factor * self.eigenvalue_unit


DEFAULT = Tolerances()

# Tightened profile for the CLI; block arithmetic is exact to ~1e-14 so the
# unit-eigenvalue window can shrink two orders without tripping the guard.
STRICT = replace(DEFAULT, eigenvalue_unit=1e-10, trace_match=1e-10)

PROFILES = {"default": DEFAULT, "strict": STRICT}

# Most labels, points, cells or sites that a window sized from feature
# coordinates or a scenario's box may hold (flux labels, the region box, the
# random-phase window, each coin window and the confinement box).  A larger
# one raises ``ValidationError`` before any site is listed or drawn; the
# bundled scenarios stay about 40 times below it.
WINDOW_SITES = 1 << 18

# Most basis vectors N of a dense window compression, refused before its sites
# are listed: it bounds the N x N matrix's memory, 256 MiB.  The oracle solves
# only the matrix's exact blocks; ``spectrum_window`` solves it whole.  The
# bundled ``spectrum_window`` spans 50, the oracle at its default pad at most 484.
DENSE_BASIS = 4096
