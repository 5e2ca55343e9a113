"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines and timings.
"""

import time

import numpy as np
import pytest

import reference_state as ref
from reference_state import bulk_boundary_flux, lead_flux_index
from fluxwalk.cc import (
    CRITICAL,
    RegionSplit,
    ScatteringParams,
    anomalous_transport,
    cc_index,
    crossover_path,
    path_surgery,
    random_phase_window,
    region_difference_rank,
    straight_r_path,
)
from fluxwalk.errors import ValidationError
from fluxwalk.fields import HalfSpace, SiteMap, interpolate_matrix_fields
from fluxwalk.flux import (
    analyze,
    dense_window_index,
    index_by_kernels,
    index_by_odd_trace,
    index_by_supertrace,
    index_stability_probe,
)
from fluxwalk.lattice import direction_index, haar_unitary
from fluxwalk.shift import build_perturbed, extract_kernels, verify_shift_structure
from fluxwalk.walks import (
    BoundarySpec,
    LeadSpec,
    NetworkSpec,
    basic_halfspace_projection,
    build_walk,
    build_walk_flux,
    halfline_projection,
    network_projection,
    perturb_coin_window,
    random_background,
    random_network,
    reflecting_coin,
    synthesize_lead_coin,
    verify_confinement,
    verify_wandering,
    walk_index,
)


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: pass  ({detail})")


def make_basic_example(seed=101, n_cut=2):
    rng = np.random.default_rng(seed)
    window = {}
    for x in range(-n_cut - 4, n_cut):
        window[(x,)] = haar_unitary(rng, 2)
    for x in range(n_cut, n_cut + 5):
        window[(x,)] = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
    tail = np.diag(np.exp(1j * np.array([0.5, -0.2])))
    coin = SiteMap(
        1,
        window=window,
        halfspaces=[(HalfSpace(0, 1, n_cut), tail)],
        background=np.eye(2, dtype=complex),
    )
    return coin, basic_halfspace_projection(n_cut)


def commuting_coin(rng, n, slot):
    rest = [k for k in range(n) if k != slot]
    m = np.zeros((n, n), dtype=complex)
    m[slot, slot] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    u = haar_unitary(rng, len(rest))
    for a, sa in enumerate(rest):
        for c, sc in enumerate(rest):
            m[sc, sa] = u[c, a]
    return m


def make_halfline(seed, sign):
    import itertools as it

    from fluxwalk.fields import Ray

    rng = np.random.default_rng(seed)
    n = 4
    slot = direction_index(1, sign)
    window = {}
    for site in it.product(range(-3, 4), range(-3, 4)):
        window[site] = haar_unitary(rng, n)
    for x in range(1, 4):
        window[(x, 0)] = commuting_coin(rng, n, slot)
    coin = SiteMap(
        2,
        window=window,
        rays=[(Ray((1, 0), (1, 0)), [commuting_coin(rng, n, slot)])],
        background=np.eye(n, dtype=complex),
    )
    return coin, halfline_projection(2, sign)


def test_criterion_01_basic_example_all_formulas():
    start = time.perf_counter()
    coin, proj = make_basic_example()
    flux = build_walk_flux(build_walk(coin), proj)
    report = index_by_kernels(flux)
    assert report.index == 1
    for j in (0, 1):
        assert abs(index_by_odd_trace(flux, j) - 1.0) <= 1e-9
    for j in (1, 2):
        assert abs(index_by_supertrace(flux, j) - 1.0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"index 1 from kernels, odd traces, supertraces in {elapsed:.3f}s")


def test_criterion_02_halfline_in_z2():
    for sign, expected in ((1, 1), (-1, -1)):
        coin, proj = make_halfline(200 + sign, sign)
        report, _ = walk_index(coin, proj)
        assert report.index == expected
    _report(2, "half-line indices +1 and -1, exact integers")


def test_criterion_03_randomized_networks():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    # the two named examples first
    bg = random_background(rng, 2, box=4)
    rho1 = LeadSpec("outgoing", [(0, 0)], (0, 1))
    rho2 = LeadSpec("outgoing", [(0, 0)], (-1, 0))
    named = NetworkSpec(outgoing=(rho1, rho2))
    rep, _ = lead_flux_index(named, synthesize_lead_coin(named, bg))
    assert rep.index == 2
    gamma = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    named2 = NetworkSpec(incoming=(gamma,), outgoing=(rho2,))
    rep2, _ = lead_flux_index(named2, synthesize_lead_coin(named2, bg))
    assert rep2.index == 0
    # one hundred randomized admissible networks in a 20x20 window
    for k in range(100):
        n_in = int(rng.integers(0, 4))
        n_out = int(rng.integers(0, 4))
        if n_in + n_out == 0:
            n_out = 1
        net = random_network(rng, n_in, n_out, box=10)
        coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
        report, _ = lead_flux_index(net, coin)
        assert report.index == n_out - n_in
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"100 random networks plus the two named examples in {elapsed:.1f}s")


def test_criterion_04_bulk_boundary():
    rng = np.random.default_rng(404)
    coin = reflecting_coin(2, rng, box=3)
    flux = bulk_boundary_flux(coin)
    worst = flux.box.norms.max()  # every window and shell block
    assert worst <= 1e-12
    walk = build_walk(coin)
    assert verify_confinement(walk, rng, steps=30, box=3) <= 1e-12
    # adding surface leads: one outgoing, one incoming on the plane
    lead_out = LeadSpec("outgoing", [(1, 0)], (1, 0))
    lead_in = LeadSpec("incoming", [(-6, 0), (-7, 0)], (1, 0))
    net = NetworkSpec(outgoing=(lead_out,), incoming=(lead_in,), boundary=BoundarySpec(2))
    coin2 = synthesize_lead_coin(net, reflecting_coin(2, rng, box=3))
    report, _ = lead_flux_index(net, coin2)
    assert report.index == 0
    net_single = NetworkSpec(outgoing=(lead_out,), boundary=BoundarySpec(2))
    coin3 = synthesize_lead_coin(net_single, reflecting_coin(2, rng, box=3))
    report3, _ = lead_flux_index(net_single, coin3)
    assert report3.index == 1
    walk3 = build_walk(coin3)
    assert verify_confinement(walk3, rng, steps=30, box=3) <= 1e-12
    _report(4, f"flux zero to {worst:.1e}, lead indices 0 and 1, confinement exact")


def test_criterion_05_wandering_and_transport():
    rng = np.random.default_rng(505)
    out_lead = LeadSpec("outgoing", [(0, 0), (1, 0), (1, 1)], (0, 1))
    in_lead = LeadSpec("incoming", [(-5, 3), (-5, 2), (-5, 1)], (0, 1))
    net = NetworkSpec(outgoing=(out_lead,), incoming=(in_lead,))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=4))
    walk = build_walk(coin)
    worst_overlap = 0.0
    worst_transport = 0.0
    for lead in net.leads():
        rep = verify_wandering(walk, lead, 50)
        assert rep.ok
        worst_overlap = max(worst_overlap, rep.max_overlap)
        worst_transport = max(worst_transport, rep.transport_defect)
    assert worst_overlap <= 1e-12 and worst_transport <= 1e-12
    _report(
        5,
        f"50-step transport amplitude defect {worst_transport:.1e}, "
        f"self-overlap {worst_overlap:.1e}",
    )


def test_criterion_06_shift_decomposition():
    # basic example
    coin, proj = make_basic_example(seed=606)
    flux = build_walk_flux(build_walk(coin), proj)
    kd = extract_kernels(flux)
    perturbed = build_perturbed(flux, kd)
    rep = verify_shift_structure(perturbed, k_max=30)
    assert rep.ok and rep.multiplicity == 1
    assert rep.unitary_defect <= 1e-10 and rep.gram_defect <= 1e-10
    assert rep.remainder_norm <= 3 * rep.small_flux_norm + 1e-12
    assert rep.finite_rank == rep.expected_rank
    # two-lead scenario, multiplicity two
    rng = np.random.default_rng(607)
    g1 = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    g2 = LeadSpec("incoming", [(4, -2), (3, -2)], (1, 0))
    net = NetworkSpec(incoming=(g1, g2))
    coin2 = synthesize_lead_coin(net, random_background(rng, 2, box=4))
    flux2 = build_walk_flux(build_walk(coin2), network_projection(net))
    kd2 = extract_kernels(flux2)
    perturbed2 = build_perturbed(flux2, kd2)
    rep2 = verify_shift_structure(perturbed2, k_max=30)
    assert rep2.ok and rep2.multiplicity == 2
    assert rep2.gram_defect <= 1e-10
    assert rep2.finite_rank == rep2.expected_rank
    _report(
        6,
        f"gram defects {rep.gram_defect:.1e} and {rep2.gram_defect:.1e} over |k|<=30, "
        f"remainder {rep.remainder_norm:.1e} <= 3*{rep.small_flux_norm:.1e}",
    )


def test_criterion_07_cc_rpath_ensemble():
    rng = np.random.default_rng(707)
    path = straight_r_path()
    worst_norm = 0.0
    worst_eig = 0.0
    for _ in range(100):
        window = random_phase_window(rng, 0.3, range(-7, 8), range(-7, 8))
        field = SiteMap(
            2, window=window, background=ScatteringParams(1.0, 0.3, np.sqrt(1 - 0.09))
        )
        report, flux = cc_index(field, path)
        assert report.index == 0
        for phi, eigenvalues in zip(flux.box.flux[flux.kept], flux.box.eigenvalues[flux.kept]):
            evals = np.sort(np.linalg.eigvalsh(phi))
            worst_eig = max(worst_eig, float(np.max(np.abs(evals - np.array([-0.3, 0.3])))))
            worst_norm = max(worst_norm, abs(np.abs(eigenvalues).max() - 0.3))
    assert worst_norm <= 1e-10 and worst_eig <= 1e-10
    _report(7, f"100 draws, index 0, spectrum +-0.3 within {worst_eig:.1e}")


def test_criterion_08_cc_crossover_ensembles():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    for r_abs, template in ((1 / np.sqrt(2), "critical"), (0.2, "r02")):
        t_abs = np.sqrt(1 - r_abs**2)
        signs = set()
        for _ in range(100):
            window = random_phase_window(rng, r_abs, range(-7, 8), range(-7, 8))
            field = SiteMap(
                2, window=window, background=ScatteringParams(1.0, r_abs, t_abs)
            )
            report, _ = cc_index(field, crossover_path())
            assert abs(report.index) == 1
            signs.add(report.index)
        assert len(signs) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(8, f"200 crossover draws, |index| = 1 with constant sign, {elapsed:.1f}s")


def _random_r_bump(path, rng):
    # straight horizontal run starting at an odd column on an even row
    candidates = []
    for t in range(1, path.m_last - 2):
        a, b, c = (ref.dual_vertex(path, s) for s in (t, t + 1, t + 2))
        if b[1] != a[1] or c[1] != a[1] or abs(c[0] - a[0]) != 2:
            continue
        if a[0] % 2 != 0 and ref.step(path, t).tag == "r":
            candidates.append((t, a, b, c))
        if a[0] % 2 == 0 and ref.step(path, t).tag == "t":
            candidates.append((t, a, b, c))
    if not candidates:
        return None
    t, a, b, c = candidates[int(rng.integers(len(candidates)))]
    up = 1 if rng.integers(2) else -1
    y = a[1]
    tag = "r" if a[0] % 2 != 0 else "t"
    replacement = [
        a,
        (a[0], y + up),
        (a[0], y + 2 * up),
        (b[0], y + 2 * up),
        (c[0], y + 2 * up),
        (c[0], y + up),
        c,
    ]
    try:
        return path_surgery(path, t, t + 2, replacement, require_tag=tag), t
    except ValidationError:
        return None


def test_criterion_09_path_surgery():
    rng = np.random.default_rng(909)
    field_r = SiteMap(2, background=ScatteringParams(1.0, 0.3, np.sqrt(0.91)))
    base_r = straight_r_path().extended(10, 10)
    report_r, _ = cc_index(field_r, base_r)
    field_x = SiteMap(2, background=CRITICAL)
    base_x = crossover_path().extended(10, 10)
    report_x, _ = cc_index(field_x, base_x)
    done = 0
    for base, field, base_report in ((base_r, field_r, report_r), (base_x, field_x, report_x)):
        for _ in range(10):
            out = _random_r_bump(base, rng)
            if out is None:
                continue
            new_path, _ = out
            report, _ = cc_index(field, new_path)
            assert report.index == base_report.index
            diff = region_difference_rank(RegionSplit(base, (-36, -36), (36, 36)), new_path)
            assert diff == 4
            done += 1
    assert done == 20
    _report(9, "20 reroutes, index invariant, projection difference rank 4 each")


def test_criterion_10_anomalous_transport():
    rng = np.random.default_rng(1010)
    path = crossover_path()
    worst = 0.0
    sign = None
    for _ in range(50):
        window = random_phase_window(rng, 0.2, range(-7, 8), range(-7, 8))
        field = SiteMap(
            2, window=window, background=ScatteringParams(1.0, 0.2, np.sqrt(0.96))
        )
        result = anomalous_transport(field, path, [0.25, 0.125, 0.0625])
        assert abs(result["index"]) == 1
        if sign is None:
            sign = result["index"]
        assert result["index"] == sign
        for eps, trace in result["traces"]:
            worst = max(worst, abs(trace - result["index"]))
    assert worst <= 1e-9
    _report(10, f"50 draws x 3 cap sizes, trace defect {worst:.1e}")


def test_criterion_11_homotopy_stability():
    rng = np.random.default_rng(1111)
    net = NetworkSpec(outgoing=(LeadSpec("outgoing", [(0, 0)], (0, 1)),))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
    target = perturb_coin_window(coin, rng, 0.1)
    proj = network_projection(net)

    def family(t):
        return build_walk_flux(build_walk(interpolate_matrix_fields(coin, target, t)), proj, selfcheck=False)

    probes = index_stability_probe(family, 20)
    assert all(p.certified for p in probes)
    assert {p.index for p in probes} == {1}
    _report(11, "21 homotopy steps, all certified, index constant at 1")


def test_criterion_12_oracle_equivalence():
    import itertools as it

    cases = []
    coin, proj = make_basic_example(seed=1212)
    cases.append(("basic", coin, proj))
    coin2, proj2 = make_halfline(1213, 1)
    cases.append(("halfline", coin2, proj2))
    rng = np.random.default_rng(1214)
    rho1 = LeadSpec("outgoing", [(0, 0)], (0, 1))
    rho2 = LeadSpec("outgoing", [(0, 0)], (-1, 0))
    net = NetworkSpec(outgoing=(rho1, rho2))
    coin3 = synthesize_lead_coin(net, random_background(rng, 2, box=4))
    cases.append(("two-leads", coin3, network_projection(net)))
    gamma = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    net2 = NetworkSpec(incoming=(gamma,), outgoing=(rho2,))
    coin4 = synthesize_lead_coin(net2, random_background(rng, 2, box=4))
    cases.append(("in-out", coin4, network_projection(net2)))

    for name, c, p in cases:
        flux = build_walk_flux(build_walk(c), p)
        sites = ref.kept_labels(flux)
        lo = [min(s[j] for s in sites) for j in range(len(sites[0]))]
        hi = [max(s[j] for s in sites) for j in range(len(sites[0]))]
        assert all(h - l + 1 <= 7 for l, h in zip(lo, hi))
        box = list(it.product(*[range(l - 2, h + 3) for l, h in zip(lo, hi)]))
        walk = build_walk(c)
        dense = dense_window_index(walk, p.apply, box, walk.n_internal)
        blockwise = analyze(flux).index
        assert dense == blockwise
    _report(12, f"{len(cases)} scenarios, dense compression equals blockwise index")
