"""Central tolerance record, and the one size check with the bounds it sets."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ValidationError


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
# random-phase window, each coin window, the confinement box and the box an
# evolution reaches), compared only in ``check_size``, before any is listed or
# drawn.  The bundled scenarios stay about 40 times below it.
WINDOW_SITES = 1 << 18


def check_size(count: int, what: str, unit: str) -> None:
    """Refuse a ``what`` holding ``count`` ``unit``, above ``WINDOW_SITES``."""
    if count > WINDOW_SITES:
        raise ValidationError(f"the {what} holds {count} {unit}, more than {WINDOW_SITES}")


# The most a scenario may ask of a run, refused at validation and at least
# twice the largest bundled or benchmark value.  s steps evolve within the
# (2 s + 1)^d box around a site, sized by ``check_size``, which 255 keep within
# WINDOW_SITES for d <= 2; a stability probe's steps share the bound.
STEPS_MOST = 255
# Each draw or reroute assembles fluxes on windows of about 2^10 labels.
DRAWS_MOST = WINDOW_SITES >> 10
# A network_ensemble draw's window, at most 87^2 labels at a box of 32, is read
# in up to 2 LEADS_MOST ray layers: under WINDOW_SITES lookups a draw.
LEADS_MOST = 16
NETWORK_BOX_MOST = 32
# At most WINDOW_SITES / 64 cutoff steps ceil(1/eps); the capped stack's
# window on the bundled crossover paths then holds 140 216 labels.
EPSILON_LEAST = 64 / WINDOW_SITES

# Most basis vectors N of a dense window compression, refused before its sites
# are listed: it bounds the N x N matrix's memory, 256 MiB.  The oracle solves
# only the matrix's exact blocks; ``spectrum_window`` solves it whole.  The
# bundled ``spectrum_window`` spans 50, the oracle at its default pad at most 484.
DENSE_BASIS = 4096
