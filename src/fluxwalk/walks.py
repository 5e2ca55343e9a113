"""Coined walks with engineered transport: half-lines, leads, bulk boundaries.

A lead is an unbounded self-avoiding lattice path together with its tangent
sequence; its quantum projection opens exactly the tangent direction at each
path site.  Coins that carry each tangent to the next with a unimodular
amplitude conduct perfectly along the lead, and the resulting flux index
counts outgoing minus incoming leads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import ValidationError
from .fields import AdaptedProjection, HalfSpace, Plane, Ray, SiteMap
from .flux import (
    CellGeometry,
    FluxField,
    FluxWindow,
    analyze,
    assemble_field,
    selfcheck_against_operator,
)
from .lattice import (
    LatticeState,
    Site,
    add,
    all_direction_vectors,
    direction_index,
    haar_unitaries,
    haar_unitary,
    index_of_vector,
    random_state,
    sub,
    unitary_deviations,
)
from .operators import CoinedWalk

NORM_FLOOR = 1e-12  # least norm that a random generator is divided by


def build_walk(coin: SiteMap, tol: Tolerances = DEFAULT) -> CoinedWalk:
    """Walk from a coin field; every template must be a (2d, 2d) unitary,
    checked for all templates in one stacked product.  Only a failing check
    walks ``coin.template_values()``, to name its first failing entry."""
    n = 2 * coin.d
    shaped = all(np.shape(m) == (n, n) for m in coin.table)
    if not (shaped and (unitary_deviations(np.array(coin.table, dtype=complex)) <= tol.unitary).all()):
        templates = list(coin.template_values())
        for desc, m in templates:
            shape = np.shape(m)
            if shape != (n, n):
                raise ValidationError(f"coin matrix at {desc} has shape {shape}, expected {(n, n)}")
        deviations = unitary_deviations(np.array([m for _, m in templates], dtype=complex))
        bad = np.flatnonzero(~(deviations <= tol.unitary))
        raise ValidationError(f"coin matrix at {templates[bad[0]][0]} is not unitary")
    return CoinedWalk(coin)


def build_walk_flux(
    walk: CoinedWalk,
    proj: AdaptedProjection,
    tol: Tolerances = DEFAULT,
    selfcheck: bool = True,
) -> FluxField:
    """Assemble the blockwise flux of an adapted projection under a walk
    that ``build_walk`` returned.

    ``flux.CellGeometry`` takes the walk's sites as its cells, so the block
    at x is coin(x)^* phat(x) coin(x) - p(x), with phat the projection
    conjugated by the conditional shift.  Exact for every site; the window
    covers all features plus a margin of 3, and the shell certifies the tail.
    """
    if proj.d != walk.d:
        raise ValidationError("projection and walk dimensions differ")

    geometry = CellGeometry(walk, proj, walk_flux_window(walk.coin, proj), probes=6)
    flux = assemble_field([geometry], geometry.block, tol)[0]
    if selfcheck:
        selfcheck_against_operator([flux])
    return flux


def walk_flux_window(coin: SiteMap, proj: AdaptedProjection) -> FluxWindow:
    """The ``FluxWindow`` of the walk flux: a window over the coin and
    projection features with a margin of 3, and tail bands of their common
    period."""
    lo_c, hi_c = coin.bounds()
    lo_p, hi_p = proj.bounds()
    lo = [min(a, b - 1) - 3 for a, b in zip(lo_c, lo_p)]
    hi = [max(a, b + 1) + 3 for a, b in zip(hi_c, hi_p)]
    bands = [math.lcm(a, b) for a, b in zip(coin.periods(), proj.periods())]
    return FluxWindow(lo, hi, bands, [1] * coin.d)


def walk_index(coin: SiteMap, proj: AdaptedProjection, tol: Tolerances = DEFAULT):
    """``(report, flux)``: the self-checked walk flux and its ``analyze``
    report, whose kernel count the rank formula has matched exactly."""
    flux = build_walk_flux(build_walk(coin, tol), proj, tol)
    return analyze(flux), flux


# ---------------------------------------------------------------------------
# standard projections


def halfline_projection(d: int, sign: int = 1) -> AdaptedProjection:
    """Characteristic function of {1, 2, ...} x {0}^(d-1) times the rank-one
    projection on the direction +e_1 (sign=+1) or -e_1 (sign=-1)."""
    slot = direction_index(1, sign)
    base = tuple([1] + [0] * (d - 1))
    step = tuple([1] + [0] * (d - 1))
    return AdaptedProjection.from_layers(d, rays=[(Ray(base, step), [{slot}])])


def basic_halfspace_projection(n_cut: int, interior: dict | None = None) -> AdaptedProjection:
    """d=1 projection: empty for x <= -n_cut, +e_1 open for x >= n_cut.

    The strip (-n_cut, n_cut) defaults to closed; pass ``interior`` to choose
    open slots there.
    """
    slot = direction_index(1, 1)
    window = {}
    if interior:
        for site, slots in interior.items():
            site = tuple(site)
            if not -n_cut < site[0] < n_cut:
                raise ValidationError("interior choice must stay inside the strip")
            window[site] = frozenset(slots)
    return AdaptedProjection.from_layers(
        1,
        window=window,
        halfspaces=[(HalfSpace(0, 1, n_cut), {slot})],
    )


# ---------------------------------------------------------------------------
# leads and networks


@dataclass(frozen=True)
class LeadSpec:
    """An unbounded regular injective path with an eventually straight ray.

    ``prefix`` lists the explicit sites in chronological order: gamma(1..m)
    for outgoing leads, gamma(-m..-1) for incoming ones.  The ray continues
    from the far end of the prefix in direction ``ray_dir`` (pointing toward
    infinity).

    A lead never changes, so the geometry its callers read is computed once,
    in one chronological pass over the prefix, and kept as read-only tuples:
    ``window_pairs`` (site, tangent) at every prefix site;
    ``constraint_items`` (site, in_slot, out_slot) for the explicit part of
    the conduction condition; ``ray_family`` (ray, constant tangent, its
    slot) of the infinite tail, on which the coin must fix that slot.
    ``site(t)`` and ``tangent(t)`` recompute one parameter's site.
    """

    kind: str
    prefix: tuple
    ray_dir: Site

    def __post_init__(self):
        if self.kind not in ("outgoing", "incoming"):
            raise ValidationError(f"unknown lead kind {self.kind!r}")
        if not self.prefix:
            raise ValidationError("lead prefix must be nonempty")
        object.__setattr__(self, "prefix", tuple(map(tuple, self.prefix)))
        object.__setattr__(self, "ray_dir", tuple(self.ray_dir))
        if set(map(len, self.prefix)) != {len(self.ray_dir)}:
            raise ValidationError("lead sites and ray direction must have the same number of coordinates")
        try:
            index_of_vector(self.ray_dir)
        except ValueError:
            raise ValidationError("ray direction must be a unit lattice step") from None
        # the prefix with the ray's first site at its far end, in
        # chronological order, and each site's tangent: the step into it,
        # and for the first site the step out of it
        if self.kind == "outgoing":
            sites, end = (*self.prefix, add(self.prefix[-1], self.ray_dir)), -1
        else:
            sites, end = (add(self.prefix[0], self.ray_dir), *self.prefix), 0
        steps = [sub(b, a) for a, b in zip(sites, sites[1:])]
        try:
            slots = [index_of_vector(s) for s in steps]
        except ValueError:
            raise ValidationError("lead prefix must take unit steps") from None
        if len(set(self.prefix)) != len(self.prefix):
            raise ValidationError("lead prefix revisits a site")
        ray = Ray(sites[end], self.ray_dir)
        for p in self.prefix:
            if ray.locate(p) is not None:
                raise ValidationError("lead ray re-enters its own prefix")
        m = len(self.prefix)
        tangents = steps[:1] + steps
        window = slice(0, m) if self.kind == "outgoing" else slice(1, m + 1)
        object.__setattr__(self, "window_pairs", tuple(zip(sites[window], tangents[window])))
        object.__setattr__(self, "constraint_items", tuple(zip(sites[:m], slots[:1] + slots, slots)))
        object.__setattr__(self, "ray_family", (ray, steps[end], slots[end]))

    # -- parametrization ---------------------------------------------------

    def site(self, t: int) -> Site:
        m = len(self.prefix)
        if self.kind == "outgoing":
            if t < 1:
                raise ValidationError(f"outgoing lead has no site at t={t}")
            if t <= m:
                return self.prefix[t - 1]
            return add(self.prefix[-1], tuple(c * (t - m) for c in self.ray_dir))
        if t > -1:
            raise ValidationError(f"incoming lead has no site at t={t}")
        if t >= -m:
            return self.prefix[m + t]
        return add(self.prefix[0], tuple(c * (-t - m) for c in self.ray_dir))

    def tangent(self, t: int) -> Site:
        if self.kind == "outgoing" and t == 1:
            t = 2  # the head takes the tangent of the first step
        return sub(self.site(t), self.site(t - 1))


@dataclass(frozen=True)
class BoundarySpec:
    """The hyperplane x_last = 0 with normal direction +-e_last."""

    d_total: int

    @property
    def axis(self) -> int:
        return self.d_total - 1

    def normal_slots(self) -> tuple[int, int]:
        up = direction_index(self.d_total, 1)
        down = direction_index(self.d_total, -1)
        return up, down

    def tangent_slots(self) -> tuple[int, ...]:
        up, down = self.normal_slots()
        return tuple(k for k in range(2 * self.d_total) if k not in (up, down))

    def contains(self, site: Site) -> bool:
        return site[self.axis] == 0


@dataclass(frozen=True)
class NetworkSpec:
    incoming: tuple = ()
    outgoing: tuple = ()
    boundary: BoundarySpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "incoming", tuple(self.incoming))
        object.__setattr__(self, "outgoing", tuple(self.outgoing))

    def leads(self):
        return list(self.incoming) + list(self.outgoing)


class ValidNetwork(NetworkSpec):
    """A network that ``validate_network`` accepted; frozen, so it stays
    valid, and the functions needing a valid network take it unchecked."""


def validate_network(network: NetworkSpec) -> ValidNetwork:
    """Reject tangential crossings and off-boundary leads; the network,
    once accepted, as a ``ValidNetwork``."""
    leads = network.leads()
    if network.boundary is not None:
        b = network.boundary
        for lead in leads:
            for site, tangent in lead.window_pairs:
                if not b.contains(site):
                    raise ValidationError(f"lead site {site} is off the boundary plane")
                if tangent[b.axis] != 0:
                    raise ValidationError(f"lead tangent {tangent} leaves the boundary plane")
            ray = lead.ray_family[0]
            if ray.step[b.axis] != 0 or not b.contains(ray.base):
                raise ValidationError("lead ray leaves the boundary plane")
    seen: dict[tuple[Site, Site], int] = {}
    for i, lead in enumerate(leads):
        for site, tangent in lead.window_pairs:
            key = (site, tangent)
            if key in seen and seen[key] != i:
                raise ValidationError(
                    f"tangential crossing at site {site} with tangent {tangent}"
                )
            seen[key] = i
    # explicit pairs against other leads' rays
    rays = [lead.ray_family for lead in leads]
    for i, lead in enumerate(leads):
        for j, (ray, ray_tangent, _) in enumerate(rays):
            if i == j:
                continue
            for site, tangent in lead.window_pairs:
                if tangent == ray_tangent and ray.locate(site) is not None:
                    raise ValidationError(
                        f"tangential crossing at site {site} with tangent {tangent}"
                    )
    # ray against ray: same constant tangent on shared sites
    for i, lead in enumerate(leads):
        ray_i, tan_i, _ = lead.ray_family
        for j in range(i + 1, len(leads)):
            ray_j, tan_j, _ = leads[j].ray_family
            if tan_i == tan_j and ray_i.meet(ray_j) is not None:
                raise ValidationError(
                    f"lead rays overlap tangentially along tangent {tan_i}"
                )
    return ValidNetwork(network.incoming, network.outgoing, network.boundary)


def network_projection(network: NetworkSpec) -> AdaptedProjection:
    """Total quantum projection of the network: one open tangent slot per
    lead site, plus the half-space bulk symbol when a boundary is present."""
    network = network if isinstance(network, ValidNetwork) else validate_network(network)
    leads = network.leads()
    if not leads and network.boundary is None:
        raise ValidationError("empty network")
    d = len(leads[0].prefix[0]) if leads else network.boundary.d_total
    window: dict[Site, set] = {}
    rays = []
    for lead in leads:
        for site, tangent in lead.window_pairs:
            window.setdefault(site, set()).add(index_of_vector(tangent))
        ray, _, slot = lead.ray_family
        rays.append((ray, [{slot}]))
    planes = []
    halfspaces = []
    if network.boundary is not None:
        b = network.boundary
        up, down = b.normal_slots()
        planes.append((Plane(b.axis, 0), {down}))
        halfspaces.append((HalfSpace(b.axis, 1, 1), set(range(2 * d))))
    return AdaptedProjection.from_layers(
        d,
        window={k: frozenset(v) for k, v in window.items()},
        rays=rays,
        planes=planes,
        halfspaces=halfspaces,
    )


# ---------------------------------------------------------------------------
# coin synthesis


@lru_cache(maxsize=4096)
def _complete_unitary(n: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Partial slot permutation, (in, out) pairs, completed deterministically.

    Prescribed transitions get amplitude +1; remaining input slots map to the
    remaining output slots in increasing order (Gram-Schmidt over the slot
    basis collapses to exactly this permutation).  Leads prescribe the same
    few transitions over and over, so each completion is built once and
    shared read-only.
    """
    outs = [o for _, o in pairs]
    if len(set(outs)) != len(outs):
        raise ValidationError(f"conflicting coin constraints: outputs {outs}")
    ins = {i for i, _ in pairs}
    free_in = [k for k in range(n) if k not in ins]
    free_out = [k for k in range(n) if k not in set(outs)]
    m = np.zeros((n, n), dtype=complex)
    for i, o in (*pairs, *zip(free_in, free_out)):
        m[o, i] = 1.0
    m.setflags(write=False)
    return m


def _run_length(ray: Ray, lo: Site, hi: Site) -> int:
    """How many sites of ``ray`` lie in the box from ``lo`` to ``hi``: a
    box is convex, so they are the first ones."""
    if not all(l <= b <= h for b, l, h in zip(ray.base, lo, hi)):
        return 0
    return 1 + min((h - b) // s if s > 0 else (b - l) // -s for b, s, l, h in zip(ray.base, ray.step, lo, hi) if s)


def synthesize_lead_coin(
    network: NetworkSpec,
    background: SiteMap,
    tol: Tolerances = DEFAULT,
) -> SiteMap:
    """Coin equal to the background off the leads, conducting along each lead
    and reflecting the normal on the boundary plane."""
    network = network if isinstance(network, ValidNetwork) else validate_network(network)
    leads = network.leads()
    d = background.d
    n = 2 * d
    boundary = network.boundary

    constraints: dict[Site, dict[int, int]] = {}

    def add_constraint(site, slot_in, slot_out):
        entry = constraints.setdefault(tuple(site), {})
        if slot_in in entry and entry[slot_in] != slot_out:
            raise ValidationError(
                f"conflicting coin constraints at {site}: slot {slot_in} must map to "
                f"both {entry[slot_in]} and {slot_out}"
            )
        entry[slot_in] = slot_out

    for lead in leads:
        for site, slot_in, slot_out in lead.constraint_items:
            add_constraint(site, slot_in, slot_out)

    # wherever two lead rays share sites, or a ray meets an explicit
    # constraint site, the joint constraint must live in the window or in a
    # merged ray layer so that layer precedence cannot shadow it
    ray_rules = [(ray, slot) for ray, _, slot in (lead.ray_family for lead in leads)]
    merged_tails: list[tuple[Ray, dict[int, int]]] = []
    for i, (ray_i, slot_i) in enumerate(ray_rules):
        for ray_j, slot_j in ray_rules[i + 1 :]:
            where = ray_i.meet(ray_j)
            if isinstance(where, Ray):
                merged_tails.append((where, {slot_i: slot_i, slot_j: slot_j}))
            elif where:
                for site in where:
                    add_constraint(site, slot_i, slot_i)
                    add_constraint(site, slot_j, slot_j)
    for ray, slot in ray_rules:
        for site in list(constraints):
            if ray.locate(site) is not None:
                add_constraint(site, slot, slot)

    ray_layers = []
    lo, hi = background.bounds()
    box_lo, box_hi = [x - 2 for x in lo], [x + 2 for x in hi]

    def reflect_pairs(pairs: dict[int, int]) -> tuple[tuple[int, int], ...]:
        if boundary is not None:
            up, down = boundary.normal_slots()
            pairs = {**pairs, up: down, down: up}
        return tuple(pairs.items())

    for ray, pairs in merged_tails:
        ray_layers.append((ray, [_complete_unitary(n, reflect_pairs(pairs))]))
    for ray, slot in ray_rules:
        ray_layers.append((ray, [_complete_unitary(n, reflect_pairs({slot: slot}))]))
        # explicit entries where the ray passes through the background window,
        # so window precedence cannot shadow the conduction constraint
        for k in range(_run_length(ray, box_lo, box_hi)):
            add_constraint(ray.site_at(k), slot, slot)

    if boundary is not None:
        up, down = boundary.normal_slots()
        for site in list(constraints):
            if boundary.contains(site):
                add_constraint(site, up, down)
                add_constraint(site, down, up)

    completed = [_complete_unitary(n, tuple(pairs.items())) for pairs in constraints.values()]
    coins = np.array(completed, dtype=complex).reshape(-1, n, n)
    coin = background.overridden(window=([*constraints], coins), rays=ray_layers)
    verify_lead_condition(coin, network, tol)
    return coin


def verify_lead_condition(coin: SiteMap, network: NetworkSpec, tol: Tolerances = DEFAULT) -> None:
    """Re-check perfect conduction on every lead and reflection on the
    boundary, including one period of every ray template."""
    for lead in network.leads():
        ray, _, slot = lead.ray_family
        checks = (*lead.constraint_items, *((ray.site_at(k), slot, slot) for k in range(3)))
        for site, slot_in, slot_out in checks:
            amp = coin.value(site)[slot_out, slot_in]
            if abs(abs(amp) - 1.0) > tol.unitary:
                raise ValidationError(
                    f"conduction violated at site {site}: |amplitude| = {abs(amp):.3e} "
                    f"for slots {slot_in}->{slot_out}"
                )
    if network.boundary is not None:
        up, down = network.boundary.normal_slots()
        probes = set()
        for lead in network.leads():
            probes.update(site for site, _ in lead.window_pairs)
        probes.add((0,) * network.boundary.d_total)
        for site in probes:
            c = coin.value(site)
            if abs(abs(c[down, up]) - 1.0) > tol.unitary or abs(abs(c[up, down]) - 1.0) > tol.unitary:
                raise ValidationError(f"boundary reflection violated at {site}")


def check_lead_count(report, network: NetworkSpec) -> None:
    """The index of a lead network must be n_out - n_in."""
    expected = len(network.outgoing) - len(network.incoming)
    if report.index != expected:
        raise ValidationError(
            f"lead network index {report.index} differs from "
            f"n_out - n_in = {expected}"
        )


# ---------------------------------------------------------------------------
# wandering verification


@dataclass
class WanderingReport:
    ok: bool
    max_overlap: float
    worst_step: int | None
    transport_ok: bool
    transport_defect: float
    overlaps: list


def verify_wandering(
    unitary,
    lead: LeadSpec,
    k_max: int,
    tol: Tolerances = DEFAULT,
) -> WanderingReport:
    """Check that the lead's head state psi wanders, <psi, U^k psi> = 0 for
    k = 1..k_max, stepped under U along an outgoing lead and under U* along
    an incoming one, and that the same iterates carry it along the lead up
    to a phase."""
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    head, tangent = lead.window_pairs[0 if lead.kind == "outgoing" else -1]
    seed = LatticeState.basis(head, index_of_vector(tangent), unitary.n_internal)
    sign = -1 if lead.kind == "incoming" else 1
    step = unitary.apply_adjoint if sign < 0 else unitary.apply
    current = seed
    worst = defect = 0.0
    worst_k = None
    overlaps = []
    for k in range(1, k_max + 1):
        current = step(current)
        ov = abs(seed.inner(current))
        overlaps.append(ov)
        if ov > worst:
            worst, worst_k = ov, k
        t = sign * (1 + k)
        amp = current.vector_at(lead.site(t))[index_of_vector(lead.tangent(t))]
        defect = max(defect, abs(abs(amp) - 1.0))
    transport_ok = defect <= tol.wandering
    return WanderingReport(worst <= tol.wandering and transport_ok, worst, worst_k, transport_ok, defect, overlaps)


# ---------------------------------------------------------------------------
# bulk boundaries


def boundary_projection_full(d_total: int) -> AdaptedProjection:
    """Half-space symbol that is homogeneous across the reflecting plane:
    everything open above, nothing below, all but the outward normal on it."""
    b = BoundarySpec(d_total)
    up, _ = b.normal_slots()
    on_plane = frozenset(k for k in range(2 * d_total) if k != up)
    return AdaptedProjection.from_layers(
        d_total,
        planes=[(Plane(b.axis, 0), on_plane)],
        halfspaces=[(HalfSpace(b.axis, 1, 1), frozenset(range(2 * d_total)))],
    )


def reflecting_coin(d_total: int, rng: np.random.Generator, box: int = 4) -> SiteMap:
    """Coin that reflects the normal on the plane x_last = 0 and is otherwise
    arbitrary: random tangent blocks on the plane, random bulk coins inside a
    finite box, identity far away."""
    b = BoundarySpec(d_total)
    n = 2 * d_total
    up, down = b.normal_slots()
    tangents = b.tangent_slots()

    def reflecting(tangent_block: np.ndarray) -> np.ndarray:
        m = np.zeros((n, n), dtype=complex)
        m[down, up] = 1.0
        m[up, down] = 1.0
        for a, sa in enumerate(tangents):
            for c, sc in enumerate(tangents):
                m[sc, sa] = tangent_block[c, a]
        return m

    sites = list(itertools.product(*([range(-box, box + 1)] * d_total)))
    coins = [reflecting(haar_unitary(rng, len(tangents))) if s[b.axis] == 0 else haar_unitary(rng, n) for s in sites]
    plane_matrix = reflecting(haar_unitary(rng, len(tangents)))
    return SiteMap(
        d_total,
        window=(sites, coins),
        planes=[(Plane(b.axis, 0), plane_matrix)],
        background=np.eye(n, dtype=complex),
    )


def verify_confinement(
    walk: CoinedWalk,
    rng: np.random.Generator,
    steps: int = 30,
    box: int = 3,
) -> float:
    """Evolve a random state supported strictly above the plane and measure
    the worst leakage below it."""
    d_total = walk.d
    axis = d_total - 1
    sites = list(itertools.product(*([range(-box, box + 1)] * (d_total - 1) + [range(1, box + 2)])))
    psi = random_state(rng, sites, walk.n_internal)
    worst = 0.0
    for _ in range(steps):
        psi = walk.apply(psi)
        leak = 0.0
        for vec in psi.value_array[psi.site_array[:, axis] < 0, :, 0]:
            leak += float(np.vdot(vec, vec).real)
        worst = max(worst, np.sqrt(leak))
    return worst


# ---------------------------------------------------------------------------
# randomized networks


def random_network(
    rng: np.random.Generator,
    n_incoming: int,
    n_outgoing: int,
    box: int = 10,
) -> NetworkSpec:
    """Sample admissible leads with no tangential crossings inside a box:
    prefixes of 2 to 6 sites, up to 200 attempts."""
    d = 2
    dirs = all_direction_vectors(d)

    def sample_lead(kind: str) -> LeadSpec:
        length = int(rng.integers(2, 7))
        start = tuple(int(rng.integers(-box, box + 1)) for _ in range(d))
        sites = [start]
        for _ in range(length - 1):
            options = [add(sites[-1], v) for v in dirs]
            options = [s for s in options if s not in sites]
            if not options:
                break
            sites.append(options[int(rng.integers(len(options)))])
        chrono = sites if kind == "outgoing" else sites[::-1]
        # ray continues away from the finite end without re-entering the prefix
        far_end = chrono[-1] if kind == "outgoing" else chrono[0]
        ray_options = []
        for v in dirs:
            probe_ok = all(
                add(far_end, tuple(c * k for c in v)) not in chrono for k in range(1, length + 2)
            )
            if probe_ok:
                ray_options.append(v)
        if not ray_options:
            raise ValidationError("no ray direction available")
        ray = ray_options[int(rng.integers(len(ray_options)))]
        return LeadSpec(kind, tuple(chrono), ray)

    for _ in range(200):
        try:
            incoming = tuple(sample_lead("incoming") for _ in range(n_incoming))
            outgoing = tuple(sample_lead("outgoing") for _ in range(n_outgoing))
            return validate_network(NetworkSpec(incoming=incoming, outgoing=outgoing))
        except ValidationError:
            continue
    raise ValidationError("could not sample an admissible network")


def perturb_coin_window(
    coin: SiteMap, rng: np.random.Generator, strength: float
) -> SiteMap:
    """Multiply every window coin by a small random unitary, leaving all tail
    layers untouched.  The result differs from the input by a summable
    (finite-window) perturbation of size ``strength``."""
    values = []
    n = 2 * coin.d
    for m in coin.window_values:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (a - a.conj().T) / 2.0
        a *= strength / max(np.linalg.norm(a, 2), NORM_FLOOR)
        evals, evecs = np.linalg.eigh(1j * a)
        rot = (evecs * np.exp(-1j * evals)) @ evecs.conj().T
        values.append(np.asarray(m, dtype=complex) @ rot)
    return coin.overridden(window=(coin.window_coords.T, values))


def random_background(rng: np.random.Generator, d: int, box: int = 6) -> SiteMap:
    """Random unitary coins inside a box, identity outside."""
    n = 2 * d
    sites = list(itertools.product(*([range(-box, box + 1)] * d)))
    return SiteMap(d, window=(sites, haar_unitaries(rng, n, len(sites))), background=np.eye(n, dtype=complex))
