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
(q, r, t) values on cells of Z x 2Z, checked by ``cc.CCUnitary``: templates
are ``cc.ScatteringParams``, and a random window one (N, 3) block of rows.
Adapted projections store sets of open internal slots.  A map's window is
one pair of a site array and its values; a dict handed in is read into it.

Every field lookup comes in two forms.  The array forms,
``SiteMap.value_index`` and ``AdaptedProjection.slot_bits``, resolve a whole
(M, d) site array with one NumPy pass per layer; the window layer is one
``lattice.SiteIndex`` over the window's sites, the same index that matches
the sites of states and the labels of flux blocks.  Block assembly uses the
array forms, and ``CCUnitary`` reads its cells and actions off one
``value_index`` call into a stack of S^T.  The scalar forms,
``SiteMap.value``, ``Ray.locate`` and ``AdaptedProjection.open_slots``,
serve callers holding one site or a few: lead synthesis and its checks, and
the walk and projection actions on states of at most
``lattice.DICT_GROUPING`` sites.  On one site the scalar forms cost a few
microseconds and the array forms 50 to 70; from a few dozen sites on the
array forms cost less, so the actions read longer states, such as the
iterates of a shift check, through the array forms.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .lattice import DICT_GROUPING, LatticeState, Site, SiteIndex, all_direction_vectors, group_sites, sub


def _site_array(sites, d: int) -> np.ndarray:
    """``sites`` as an (M, d) int64 array; an empty input has no rows."""
    sites = np.asarray(sites, dtype=np.int64)
    return sites.reshape(len(sites), d)


def _window_pair(window: dict | tuple | None, d: int) -> tuple[SiteIndex, Sequence]:
    """A window argument as ``(index, values)``: a ``lattice.SiteIndex`` over
    its sites (an (N, d) array, site tuples such as a dict's keys, which the
    index keeps, or an index) and its N values (a tuple for a dict)."""
    sites, values = (window.keys(), tuple(window.values())) if isinstance(window, dict) else window or ((), ())
    if isinstance(sites, np.ndarray):
        sites = SiteIndex(_site_array(sites, d))
    elif not isinstance(sites, SiteIndex):
        tuples = [*map(tuple, sites)]
        sites = SiteIndex(np.fromiter(itertools.chain.from_iterable(tuples), np.int64, len(tuples) * d).reshape(-1, d), tuples)
    if len(values) != len(sites.table):
        raise ValidationError(f"{len(sites.table)} window sites, {len(values)} values")
    return sites, values


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

    def locate_all(self, sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``locate`` for an (M, d) integer site array: a mask of the sites
        on the ray and their ``t``, the floor quotient on the first moving
        axis, which hits where the offset is ``t * step`` and ``t >= 0``.  It
        works on one row per coordinate, faster to reduce than (M, d) rows."""
        step = np.array(self.step, dtype=np.int64)[:, None]
        offsets = np.ascontiguousarray(sites.T) - np.array(self.base, dtype=np.int64)[:, None]
        axis = int(np.flatnonzero(step[:, 0])[0])
        t = offsets[axis] // step[axis]
        return (offsets == t * step).all(axis=0) & (t >= 0), t

    def site_at(self, t: int) -> Site:
        return tuple(b + t * s for b, s in zip(self.base, self.step))

    def meet(self, other: "Ray"):
        """Where two unit-step rays meet: ``None``, the finite list of shared
        sites in order along this ray, or the shared tail as a ``Ray`` (same
        step on one line)."""
        if sum(map(abs, self.step)) != 1 or sum(map(abs, other.step)) != 1:
            raise ValidationError("rays must take unit lattice steps to meet")
        offset = sub(other.base, self.base)
        k = sum(map(operator.mul, offset, self.step))
        if other.step in (self.step, tuple(map(operator.neg, self.step))):
            if offset != tuple(k * s for s in self.step):
                return None  # parallel lines
            if other.step == self.step:
                return Ray(other.base if k >= 0 else self.base, self.step)
            return [self.site_at(t) for t in range(k + 1)] if k >= 0 else None
        # rays along different axes share at most one site
        k_other = -sum(map(operator.mul, offset, other.step))
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
    scattering data are (q, r, t) values on cells of Z x 2Z
    (``cc.CCUnitary``).  ``AdaptedProjection`` stores frozensets of open
    slots and unites the matching layers instead of taking the first.

    The window has one form: ``window_coords``, a (d, W) int64 array of
    distinct sites, and ``window_values``, their W values in order, such as
    a random scattering window's (W, 3) block of (q, r, t) rows.  A pair
    ``(sites, values)`` handed in is kept as given, a dict is read once into
    a pair with a tuple of values, and every window read goes through the
    window's one ``lattice.SiteIndex``, which keeps the site tuples where
    the argument lists them and which ``overridden`` hands its new map.

    The layers are read-only (tuples, and a pair's arrays are not changed
    once handed in), so the lookup table, the window's ``SiteIndex`` and
    the ``bounds`` and ``periods``, each computed on first use, stay valid;
    ``bounds`` and ``periods`` return fresh lists.
    """

    def __init__(
        self,
        d: int,
        window: dict | tuple | None = None,
        rays: Sequence[tuple[Ray, Sequence[Any]]] = (),
        planes: Sequence[tuple[Plane, Any]] = (),
        halfspaces: Sequence[tuple[HalfSpace, Any]] = (),
        background: Any = None,
    ):
        self.d = int(d)
        self._window_index, self.window_values = _window_pair(window, self.d)
        self.window_coords = np.ascontiguousarray(self._window_index.table.T)
        self.rays = tuple((ray, tuple(pattern)) for ray, pattern in rays)
        self.planes = tuple(planes)
        self.halfspaces = tuple(halfspaces)
        self.background = background
        for ray, pattern in self.rays:
            if len(ray.base) != self.d or len(ray.step) != self.d:
                raise ValidationError("ray dimension mismatch")
            if not pattern:
                raise ValidationError("ray pattern must be nonempty")

    def value(self, site: Site):
        site = tuple(site)
        row = self._window_index.row(site)
        if row is not None:
            return self.window_values[row]
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

    # -- array lookups ---------------------------------------------------------

    @cached_property
    def templates(self) -> tuple:
        """Each ray's pattern, the planes, the half-spaces, the background."""
        return (
            *(v for _, pattern in self.rays for v in pattern),
            *(v for _, v in self.planes),
            *(v for _, v in self.halfspaces),
            self.background,
        )

    @cached_property
    def table(self) -> tuple:
        """The rows ``value_index`` points at: the window's, then templates."""
        return (*self.window_values, *self.templates)

    def _layer_rows(self, sites: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per layer except the background, in precedence order: a mask of
        the (M, d) sites it covers and their table rows, valid everywhere
        and meaningful where the mask is set."""
        first = len(self.window_values)
        if first:
            rows = self._window_index.rows(sites)
            yield rows >= 0, rows
        for ray, pattern in self.rays:
            hit, t = ray.locate_all(sites)
            yield hit, first + t % len(pattern)
            first += len(pattern)
        for plane, _ in self.planes:
            yield sites[:, plane.axis] == plane.value, first
            first += 1
        for hs, _ in self.halfspaces:
            yield hs.sign * sites[:, hs.axis] >= hs.threshold, first
            first += 1

    def value_index(self, sites) -> np.ndarray:
        """Rows of ``table`` holding ``value`` at each site of an (M, d)
        integer array: one array pass per layer, first match wins."""
        sites = _site_array(sites, self.d)
        out = np.full(len(sites), len(self.window_values) + len(self.templates) - 1, dtype=np.intp)
        for hit, rows in reversed(list(self._layer_rows(sites))):
            out = np.where(hit, rows, out)
        return out

    def distinct_values(self, sites) -> tuple[list, np.ndarray]:
        """The distinct values met on an (M, d) site array, in table order,
        and each site's position among them."""
        rows = self.value_index(sites)
        met = np.zeros(len(self.table), dtype=bool)
        met[rows] = True
        position = np.cumsum(met) - 1
        return [self.table[r] for r in np.flatnonzero(met).tolist()], position[rows]

    def overridden(self, window: dict | tuple | None = None, rays=()) -> "SiteMap":
        """New map whose extra window entries and rays take precedence.

        The new window entries come first, each at its first position with
        its last value, then the old ones they leave untouched, so callers
        that draw random numbers per window entry stay reproducible; the new
        rays come before the old ones.  The values are one array when the
        new values are one and the map's are one or the map has no window,
        and a tuple otherwise; the new map's index keeps the merged tuples.
        """
        new, values = _window_pair(window, self.d)
        last, old = dict(zip(new.sites, itertools.count())), self._window_index
        kept = [i for i, site in enumerate(old.sites) if site not in last]
        order = np.fromiter(itertools.chain(last.values(), map(len(new.table).__add__, kept)), np.intp)
        old_values = self.window_values if len(self.window_values) else values[:0]
        if isinstance(values, np.ndarray) and isinstance(old_values, np.ndarray):
            values = np.concatenate([values, old_values]).take(order, axis=0)
        else:
            values = tuple(map((*values, *old_values).__getitem__, order.tolist()))
        merged = np.concatenate([new.table, old.table]).take(order, axis=0)
        return SiteMap(
            self.d,
            window=(SiteIndex(merged, [*last, *map(old.sites.__getitem__, kept)]), values),
            rays=(*rays, *self.rays),
            planes=self.planes,
            halfspaces=self.halfspaces,
            background=self.background,
        )

    # -- structure queries used by the certification machinery ------------

    def bounds(self) -> tuple[list[int], list[int]]:
        """Per-axis feature bounds [lo, hi] covering the origin, window, ray
        bases, plane values and half-space thresholds: one min and one max
        over all of them, each plane and half-space as a point on its axis."""
        return [*self._bounds[0]], [*self._bounds[1]]

    @cached_property
    def _bounds(self) -> tuple[list[int], list[int]]:
        window = self.window_coords
        corners = [window.min(axis=1).tolist(), window.max(axis=1).tolist()] if window.size else []
        points = [[0] * self.d, *corners, *(ray.base for ray, _ in self.rays)]
        lo, hi = [int(min(c)) for c in zip(*points)], [int(max(c)) for c in zip(*points)]
        marks = [(p.axis, p.value) for p, _ in self.planes] + [(h.axis, h.sign * h.threshold) for h, _ in self.halfspaces]
        for axis, value in marks:
            lo[axis], hi[axis] = min(lo[axis], int(value)), max(hi[axis], int(value))
        return lo, hi

    def periods(self) -> list[int]:
        """Per-axis translation period of the tail structure.

        Along axis j the field repeats with this period once past the feature
        bounds; rays not parallel to the axis leave the far region after a
        bounded stretch and contribute nothing.
        """
        return [*self._periods]

    @cached_property
    def _periods(self) -> list[int]:
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
        for site, v in sorted(zip(self._window_index.sites, self.table)):  # distinct sites: values never compared
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
    condition.  ``slot_bits`` gives them as bit masks for a site array,
    ``open_slots`` for one site: block assembly reads ``diagonal_entries``,
    built on ``slot_bits``; ``apply`` reads ``open_slots`` on states of at
    most ``DICT_GROUPING`` sites and ``slot_bits`` on longer ones.
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
        row = m._window_index.row(site)
        acc = set(() if row is None else m.window_values[row])
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

    @cached_property
    def _slot_table(self) -> np.ndarray:
        """Open slots of every row of the map's table as bit masks."""
        return np.array([sum(1 << k for k in frozenset(v)) for v in self.map.table], dtype=np.uint64)

    def slot_bits(self, sites) -> np.ndarray:
        """Open slots of an (M, d) integer site array as (M,) bit masks, slot
        k in bit k (2d <= 64): the union over every matching layer, as in
        ``open_slots``, with one array pass per layer."""
        sites = _site_array(sites, self.d)
        table = self._slot_table
        out = np.full(len(sites), table[-1])
        for hit, rows in self.map._layer_rows(sites):
            out |= np.where(hit, table[rows], 0)
        return out

    def diagonal_entries(self, sites: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """0/1 diagonal entries at slot ``slots[i]`` of site ``sites[i]``,
        for an (M, d) integer site array, from one ``slot_bits`` call that
        resolves each distinct site once."""
        first, where = group_sites(sites)
        bits = self.slot_bits(sites.take(first, axis=0))[where] >> np.asarray(slots, dtype=np.uint64)
        return (bits & 1).astype(float)

    def apply(self, psi: LatticeState) -> LatticeState:
        """Multiply every row of ``psi``, in every column, by the 0/1
        diagonal at its site, in one array product; the diagonals come from
        ``open_slots`` once per row up to ``DICT_GROUPING`` rows, from one
        ``slot_bits`` call above."""
        if psi.support_size() > DICT_GROUPING:
            bits = self.slot_bits(psi.site_array)[:, None] >> np.arange(self.n, dtype=np.uint64)
            masks = (bits & 1).astype(float)
        else:
            masks = np.zeros((psi.support_size(), self.n))
            for row, site in zip(masks, psi.site_list()):
                row[list(self.open_slots(site))] = 1.0
        return psi.with_values(masks[:, :, None] * psi.value_array)

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

    def slot_bits(self, sites) -> np.ndarray:
        """Bit k from the parent's bits at x + dir_k."""
        sites = _site_array(sites, self.d)
        shifted = (sites[:, None, :] + np.array(self._dirs, dtype=np.int64)).reshape(-1, self.d)
        bits = self.parent.slot_bits(shifted).reshape(len(sites), self.n)
        return np.bitwise_or.reduce(bits & (1 << np.arange(self.n, dtype=np.uint64)), axis=1)

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

    def slot_bits(self, sites) -> np.ndarray:
        return ~self.parent.slot_bits(sites) & np.uint64((1 << self.n) - 1)

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
    rows = f1._window_index.rows(f0.window_coords.T) if f0.d == f1.d else None
    if rows is None or len(rows) != len(f1.window_values) or (rows < 0).any():
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
        window=(f0.window_coords.T, [geo(v, f1.window_values[r]) for v, r in zip(f0.window_values, rows.tolist())]),
        rays=[(r, tuple(map(geo, p0, p1))) for (r, p0), (_, p1) in zip(f0.rays, f1.rays)],
        planes=[(pl, geo(v0, v1)) for (pl, v0), (_, v1) in zip(f0.planes, f1.planes)],
        halfspaces=[(h, geo(v0, v1)) for (h, v0), (_, v1) in zip(f0.halfspaces, f1.halfspaces)],
        background=None if f0.background is None else geo(f0.background, f1.background),
    )
