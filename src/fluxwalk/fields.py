"""Total site-indexed fields: explicit window plus structured tails.

A field assigns a value (matrix, parameter tuple, open-direction set) to every
site of the lattice.  Outside a finite window the value comes from structured
layers -- rays, planes, half-spaces, a constant or periodic background -- so
evaluation is total and the behaviour at infinity is described by finitely
many translation classes.  That is what lets flux operators be certified at
infinity by inspecting a finite shell of representative cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .lattice import LatticeState, Site, all_direction_vectors, is_unitary, sub


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


@dataclass(frozen=True)
class PeriodicBackground:
    """Background value depending on coordinate residues."""

    period: Site
    table: dict  # residue tuple -> value

    def value(self, site: Site):
        key = tuple(x % p for x, p in zip(site, self.period))
        return self.table[key]


class SiteMap:
    """Layered total lookup.

    Precedence for ``combine='first'``: window, rays (in order), planes,
    half-spaces, background.  For ``combine='union'`` all matching layers are
    united (used for direction-set projections, where distinct layers carry
    orthogonal contributions).
    """

    def __init__(
        self,
        d: int,
        window: dict | None = None,
        rays: Sequence[tuple[Ray, Sequence[Any]]] = (),
        planes: Sequence[tuple[Plane, Any]] = (),
        halfspaces: Sequence[tuple[HalfSpace, Any]] = (),
        background: Any = None,
        combine: str = "first",
    ):
        if combine not in ("first", "union"):
            raise ValidationError(f"unknown combine mode {combine!r}")
        self.d = int(d)
        self.window = {tuple(k): v for k, v in (window or {}).items()}
        self.rays = [(ray, tuple(pattern)) for ray, pattern in rays]
        self.planes = list(planes)
        self.halfspaces = list(halfspaces)
        self.background = background
        self.combine = combine
        for ray, pattern in self.rays:
            if len(ray.base) != self.d or len(ray.step) != self.d:
                raise ValidationError("ray dimension mismatch")
            if not pattern:
                raise ValidationError("ray pattern must be nonempty")

    def value(self, site: Site):
        site = tuple(site)
        if self.combine == "first":
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
            return self._background_value(site)
        # union semantics: matching layers contribute orthogonal slot sets
        acc: set = set()
        if site in self.window:
            acc |= set(self.window[site])
        for ray, pattern in self.rays:
            t = ray.locate(site)
            if t is not None:
                acc |= set(pattern[t % len(pattern)])
        for plane, v in self.planes:
            if plane.contains(site):
                acc |= set(v)
        for hs, v in self.halfspaces:
            if hs.contains(site):
                acc |= set(v)
        bg = self._background_value(site)
        if bg:
            acc |= set(bg)
        return frozenset(acc)

    def _background_value(self, site: Site):
        if isinstance(self.background, PeriodicBackground):
            return self.background.value(site)
        return self.background

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
        if isinstance(self.background, PeriodicBackground):
            for j, p in enumerate(self.background.period):
                per[j] = math.lcm(per[j], p)
        return per

    def template_values(self) -> Iterator[tuple[str, Any]]:
        """Every distinct structural value with a short description."""
        for site, v in sorted(self.window.items()):
            yield f"window{site}", v
        for i, (ray, pattern) in enumerate(self.rays):
            for k, v in enumerate(pattern):
                yield f"ray{i}[{k}]", v
        for i, (plane, v) in enumerate(self.planes):
            yield f"plane{i}", v
        for i, (hs, v) in enumerate(self.halfspaces):
            yield f"halfspace{i}", v
        if isinstance(self.background, PeriodicBackground):
            for key, v in sorted(self.background.table.items()):
                yield f"background{key}", v
        elif self.background is not None:
            yield "background", self.background


class MatrixField:
    """Site-indexed field of small dense complex matrices."""

    def __init__(self, d: int, n: int, sitemap: SiteMap, tag: str | None = None, tol: float = 1e-12):
        self.d = d
        self.n = n
        self.map = sitemap
        self.tag = tag
        if tag == "unitary":
            for desc, m in sitemap.template_values():
                if not is_unitary(np.asarray(m), tol):
                    raise ValidationError(f"matrix at {desc} is not unitary to {tol:g}")

    @classmethod
    def constant(cls, d: int, matrix: np.ndarray, tag: str | None = None) -> "MatrixField":
        m = np.asarray(matrix, dtype=complex)
        return cls(d, m.shape[0], SiteMap(d, background=m), tag=tag)

    def value(self, site: Site) -> np.ndarray:
        return np.asarray(self.map.value(site), dtype=complex)

    def bounds(self):
        return self.map.bounds()

    def periods(self):
        return self.map.periods()


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
        sm = SiteMap(
            d,
            window=win,
            rays=rys,
            planes=pls,
            halfspaces=hss,
            background=frozenset(background),
            combine="union",
        )
        return cls(d, sm)

    # -- evaluation --------------------------------------------------------

    def open_slots(self, site: Site) -> frozenset[int]:
        return self.map.value(site)

    def rank(self, site: Site) -> int:
        return len(self.open_slots(site))

    def diagonal(self, site: Site) -> np.ndarray:
        diag = np.zeros(self.n)
        for k in self.open_slots(site):
            diag[k] = 1.0
        return diag

    def apply(self, psi: LatticeState) -> LatticeState:
        data = {}
        for site, vec in psi.items():
            mask = self.diagonal(site)
            data[site] = mask * vec
        return LatticeState(psi.n_internal, data, _take=True)

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


def interpolate_matrix_fields(f0: MatrixField, f1: MatrixField, s: float) -> MatrixField:
    """Interpolate two unitary fields with identical layer structure."""
    m0, m1 = f0.map, f1.map
    if set(m0.window) != set(m1.window) or len(m0.rays) != len(m1.rays):
        raise ValidationError("fields must share their layer structure")
    window = {k: interpolate_unitaries(np.asarray(m0.window[k]), np.asarray(m1.window[k]), s) for k in m0.window}
    rays = []
    for (r0, p0), (r1, p1) in zip(m0.rays, m1.rays):
        if r0 != r1 or len(p0) != len(p1):
            raise ValidationError("ray layers must match")
        rays.append((r0, tuple(interpolate_unitaries(np.asarray(a), np.asarray(b), s) for a, b in zip(p0, p1))))
    planes = []
    for (pl0, v0), (pl1, v1) in zip(m0.planes, m1.planes):
        if pl0 != pl1:
            raise ValidationError("plane layers must match")
        planes.append((pl0, interpolate_unitaries(np.asarray(v0), np.asarray(v1), s)))
    halfspaces = []
    for (h0, v0), (h1, v1) in zip(m0.halfspaces, m1.halfspaces):
        if h0 != h1:
            raise ValidationError("half-space layers must match")
        halfspaces.append((h0, interpolate_unitaries(np.asarray(v0), np.asarray(v1), s)))
    if (m0.background is None) != (m1.background is None):
        raise ValidationError("background layers must match")
    bg = None
    if m0.background is not None:
        bg = interpolate_unitaries(np.asarray(m0.background), np.asarray(m1.background), s)
    sm = SiteMap(m0.d, window=window, rays=rays, planes=planes, halfspaces=halfspaces, background=bg)
    return MatrixField(f0.d, f0.n, sm, tag=f0.tag)
