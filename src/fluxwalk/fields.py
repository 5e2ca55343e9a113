"""Total site-indexed fields: explicit window plus structured tails.

A field assigns a value to every site of the lattice.  Outside a finite
window the value comes from structured layers -- rays, planes, half-spaces,
a constant background -- so evaluation is total and the behaviour at infinity
is described by finitely many translation classes.  That is what lets flux
operators be certified at infinity by inspecting a finite shell of
representative cells.

``SiteMap`` is the one field type; the models differ only in its values.
Coins of a walk on Z^d are ``(2d, 2d)`` complex unitary matrices, checked by
``walks.build_walk``.  Scattering data of a Chalker--Coddington network are
``cc.ScatteringParams`` on cells of Z x 2Z, checked by ``cc.CCUnitary``.
Adapted projections store sets of open internal slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .lattice import LatticeState, Site, all_direction_vectors, sub


@dataclass(frozen=True)
class Ray:
    """The half-line ``base + t*step`` for integer ``t >= 0``."""

    base: Site
    step: Site

    def __post_init__(self):
        if all(c == 0 for c in self.step):
            raise ValidationError("ray step must be nonzero")

    def locate(self, site: Site) -> int | None:
        t = None
        for b, s, x in zip(self.base, self.step, site):
            if s == 0:
                if x != b:
                    return None
            else:
                q, r = divmod(x - b, s)
                if r != 0 or (t is not None and q != t):
                    return None
                t = q
        return t if t is not None and t >= 0 else None

    def site_at(self, t: int) -> Site:
        return tuple(b + t * s for b, s in zip(self.base, self.step))

    def meet(self, other: "Ray"):
        """Where two unit-step rays meet: ``None``, the finite list of shared
        sites in order along this ray, or the shared tail as a ``Ray`` (same
        step on one line)."""
        if sum(map(abs, self.step)) != 1 or sum(map(abs, other.step)) != 1:
            raise ValidationError("rays must take unit lattice steps to meet")
        offset = sub(other.base, self.base)
        k = sum(o * s for o, s in zip(offset, self.step))
        if other.step in (self.step, tuple(-c for c in self.step)):
            if offset != tuple(k * s for s in self.step):
                return None  # parallel lines
            if other.step == self.step:
                return Ray(other.base if k >= 0 else self.base, self.step)
            return [self.site_at(t) for t in range(k + 1)] if k >= 0 else None
        # rays along different axes share at most one site
        k_other = -sum(o * s for o, s in zip(offset, other.step))
        if k >= 0 and k_other >= 0 and self.site_at(k) == other.site_at(k_other):
            return [self.site_at(k)]
        return None


@dataclass(frozen=True)
class Plane:
    """All sites with ``x[axis] == value`` (axis 0-based)."""

    axis: int
    value: int

    def contains(self, site: Site) -> bool:
        return site[self.axis] == self.value


@dataclass(frozen=True)
class HalfSpace:
    """All sites with ``sign * x[axis] >= threshold``."""

    axis: int
    sign: int
    threshold: int

    def contains(self, site: Site) -> bool:
        return self.sign * site[self.axis] >= self.threshold


class SiteMap:
    """Layered total lookup, first match wins.

    Precedence: window, rays (in order), planes, half-spaces, background.
    Values are stored as given and checked where a model's operator is
    built: coins are ``(2d, 2d)`` complex unitaries (``walks.build_walk``),
    scattering data are ``cc.ScatteringParams`` on cells of Z x 2Z
    (``cc.CCUnitary``).  ``AdaptedProjection`` stores frozensets of open
    slots and unites the matching layers instead of taking the first.
    """

    def __init__(
        self,
        d: int,
        window: dict | None = None,
        rays: Sequence[tuple[Ray, Sequence[Any]]] = (),
        planes: Sequence[tuple[Plane, Any]] = (),
        halfspaces: Sequence[tuple[HalfSpace, Any]] = (),
        background: Any = None,
    ):
        self.d = int(d)
        self.window = {tuple(k): v for k, v in (window or {}).items()}
        self.rays = [(ray, tuple(pattern)) for ray, pattern in rays]
        self.planes = list(planes)
        self.halfspaces = list(halfspaces)
        self.background = background
        for ray, pattern in self.rays:
            if len(ray.base) != self.d or len(ray.step) != self.d:
                raise ValidationError("ray dimension mismatch")
            if not pattern:
                raise ValidationError("ray pattern must be nonempty")

    def value(self, site: Site):
        site = tuple(site)
        if site in self.window:
            return self.window[site]
        for ray, pattern in self.rays:
            t = ray.locate(site)
            if t is not None:
                return pattern[t % len(pattern)]
        for plane, v in self.planes:
            if plane.contains(site):
                return v
        for hs, v in self.halfspaces:
            if hs.contains(site):
                return v
        return self.background

    def overridden(self, window: dict | None = None, rays=()) -> "SiteMap":
        """New map whose extra window entries and rays take precedence.

        The new window entries come first in iteration order, then the old
        ones they leave untouched, so callers that draw random numbers per
        window entry stay reproducible; the new rays come before the old ones.
        """
        new = {tuple(k): v for k, v in (window or {}).items()}
        merged = {**new, **{k: v for k, v in self.window.items() if k not in new}}
        return SiteMap(
            self.d,
            window=merged,
            rays=list(rays) + self.rays,
            planes=self.planes,
            halfspaces=self.halfspaces,
            background=self.background,
        )

    # -- structure queries used by the certification machinery ------------

    def bounds(self) -> tuple[list[int], list[int]]:
        """Per-axis feature bounds [lo, hi] covering window, ray bases,
        plane values and half-space thresholds."""
        lo = [0] * self.d
        hi = [0] * self.d
        points = list(self.window)
        points.extend(ray.base for ray, _ in self.rays)
        for p in points:
            for j, x in enumerate(p):
                lo[j] = min(lo[j], x)
                hi[j] = max(hi[j], x)
        for plane, _ in self.planes:
            lo[plane.axis] = min(lo[plane.axis], plane.value)
            hi[plane.axis] = max(hi[plane.axis], plane.value)
        for hs, _ in self.halfspaces:
            v = hs.sign * hs.threshold
            lo[hs.axis] = min(lo[hs.axis], v)
            hi[hs.axis] = max(hi[hs.axis], v)
        return lo, hi

    def periods(self) -> list[int]:
        """Per-axis translation period of the tail structure.

        Along axis j the field repeats with this period once past the feature
        bounds; rays not parallel to the axis leave the far region after a
        bounded stretch and contribute nothing.
        """
        per = [1] * self.d
        for ray, pattern in self.rays:
            nz = [(j, s) for j, s in enumerate(ray.step) if s != 0]
            if len(nz) == 1:
                j, s = nz[0]
                per[j] = math.lcm(per[j], len(pattern) * abs(s))
        return per

    def template_values(self) -> Iterator[tuple[str, Any]]:
        """Every structural value, the background included, with a short
        description."""
        for site, v in sorted(self.window.items()):
            yield f"window{site}", v
        for i, (ray, pattern) in enumerate(self.rays):
            for k, v in enumerate(pattern):
                yield f"ray{i}[{k}]", v
        for i, (plane, v) in enumerate(self.planes):
            yield f"plane{i}", v
        for i, (hs, v) in enumerate(self.halfspaces):
            yield f"halfspace{i}", v
        yield "background", self.background


class AdaptedProjection:
    """Projection diagonal in the internal-direction basis at every site.

    The value at a site is the set of open internal slots; by construction it
    commutes with every direction projection, which is the adaptedness
    condition.
    """

    def __init__(self, d: int, sitemap: SiteMap):
        self.d = d
        self.n = 2 * d
        self.map = sitemap

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_layers(
        cls,
        d: int,
        window: dict | None = None,
        rays: Sequence[tuple[Ray, Sequence[Iterable[int]]]] = (),
        planes: Sequence[tuple[Plane, Iterable[int]]] = (),
        halfspaces: Sequence[tuple[HalfSpace, Iterable[int]]] = (),
        background: Iterable[int] = frozenset(),
    ) -> "AdaptedProjection":
        win = {tuple(k): frozenset(v) for k, v in (window or {}).items()}
        rys = [(ray, tuple(frozenset(p) for p in pat)) for ray, pat in rays]
        pls = [(plane, frozenset(v)) for plane, v in planes]
        hss = [(hs, frozenset(v)) for hs, v in halfspaces]
        sm = SiteMap(d, window=win, rays=rys, planes=pls, halfspaces=hss, background=frozenset(background))
        return cls(d, sm)

    # -- evaluation --------------------------------------------------------

    def open_slots(self, site: Site) -> frozenset[int]:
        """Union over every matching layer: distinct layers carry orthogonal
        slot sets, e.g. two leads crossing a site in different directions."""
        m = self.map
        site = tuple(site)
        acc = set(m.window.get(site, ()))
        for ray, pattern in m.rays:
            t = ray.locate(site)
            if t is not None:
                acc |= pattern[t % len(pattern)]
        for plane, v in m.planes:
            if plane.contains(site):
                acc |= v
        for hs, v in m.halfspaces:
            if hs.contains(site):
                acc |= v
        acc |= m.background
        return frozenset(acc)

    def diagonal_entries(self, sites: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """0/1 diagonal entries at slot ``slots[i]`` of site ``sites[i]``,
        for an (M, d) integer site array; ``open_slots`` runs once per
        distinct site."""
        sites = np.asarray(sites, dtype=np.int64)
        corner = sites.min(axis=0)
        shape = tuple((sites.max(axis=0) - corner + 1).tolist())
        flat = np.ravel_multi_index(tuple((sites - corner).T), shape)
        distinct, inverse = np.unique(flat, return_inverse=True)
        points = np.stack(np.unravel_index(distinct, shape), axis=1) + corner
        table = np.zeros((len(distinct), self.n))
        for row, site in zip(table, map(tuple, points.tolist())):
            row[list(self.open_slots(site))] = 1.0
        return table[inverse.reshape(-1), slots]

    def apply(self, psi: LatticeState) -> LatticeState:
        """Multiply every row of ``psi`` by the 0/1 diagonal at its site, in
        one array product; ``open_slots`` runs once per row."""
        masks = np.zeros((psi.support_size(), self.n))
        for row, site in zip(masks, psi.site_list()):
            row[list(self.open_slots(site))] = 1.0
        return psi.with_values(masks * psi.value_array)

    # -- derived projections -------------------------------------------------

    def shift_conjugate(self) -> "AdaptedProjection":
        """Conjugation by the conditional shift: slot k is open at x iff it is
        open at x + dir_k in this projection.  The result is again adapted."""
        return _ShiftConjugate(self)

    def complement(self) -> "AdaptedProjection":
        return _Complement(self)

    def bounds(self):
        return self.map.bounds()

    def periods(self):
        return self.map.periods()


class _ShiftConjugate(AdaptedProjection):
    def __init__(self, parent: AdaptedProjection):
        self.d = parent.d
        self.n = parent.n
        self.parent = parent
        self._dirs = all_direction_vectors(parent.d)

    def open_slots(self, site: Site) -> frozenset[int]:
        site = tuple(site)
        out = set()
        for k, step in enumerate(self._dirs):
            shifted = tuple(x + s for x, s in zip(site, step))
            if k in self.parent.open_slots(shifted):
                out.add(k)
        return frozenset(out)

    def bounds(self):
        lo, hi = self.parent.bounds()
        return [x - 1 for x in lo], [x + 1 for x in hi]

    def periods(self):
        return self.parent.periods()


class _Complement(AdaptedProjection):
    def __init__(self, parent: AdaptedProjection):
        self.d = parent.d
        self.n = parent.n
        self.parent = parent
        self._full = frozenset(range(parent.n))

    def open_slots(self, site: Site) -> frozenset[int]:
        return self._full - self.parent.open_slots(site)

    def bounds(self):
        return self.parent.bounds()

    def periods(self):
        return self.parent.periods()

    def complement(self):
        return self.parent


def interpolate_unitaries(u0: np.ndarray, u1: np.ndarray, s: float) -> np.ndarray:
    """Geodesic on the unitary group: ``u0 (u0^* u1)^s``."""
    w = u0.conj().T @ u1
    evals, evecs = np.linalg.eig(w)
    evals = evals / np.abs(evals)
    powered = evecs @ np.diag(evals**s) @ np.linalg.inv(evecs)
    return u0 @ powered


def interpolate_matrix_fields(f0: SiteMap, f1: SiteMap, s: float) -> SiteMap:
    """Interpolate two unitary fields with identical layer structure."""
    if f0.d != f1.d or set(f0.window) != set(f1.window):
        raise ValidationError("fields must share their window and dimension")
    for kind in ("rays", "planes", "halfspaces"):
        l0, l1 = getattr(f0, kind), getattr(f1, kind)
        if len(l0) != len(l1) or any(a != b for (a, _), (b, _) in zip(l0, l1)):
            raise ValidationError(f"{kind} layers must match")
    if any(len(p0) != len(p1) for (_, p0), (_, p1) in zip(f0.rays, f1.rays)):
        raise ValidationError("ray patterns must have equal lengths")
    if (f0.background is None) != (f1.background is None):
        raise ValidationError("background layers must match")

    def geo(a, b):
        return interpolate_unitaries(np.asarray(a), np.asarray(b), s)

    return SiteMap(
        f0.d,
        window={k: geo(v, f1.window[k]) for k, v in f0.window.items()},
        rays=[(r, tuple(map(geo, p0, p1))) for (r, p0), (_, p1) in zip(f0.rays, f1.rays)],
        planes=[(pl, geo(v0, v1)) for (pl, v0), (_, v1) in zip(f0.planes, f1.planes)],
        halfspaces=[(h, geo(v0, v1)) for (h, v0), (_, v1) in zip(f0.halfspaces, f1.halfspaces)],
        background=None if f0.background is None else geo(f0.background, f1.background),
    )
