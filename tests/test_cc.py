import itertools

import numpy as np
import pytest

from fluxwalk.cc import (
    CRITICAL,
    FULL_REFLECTION,
    FULL_TRANSMISSION,
    CCUnitary,
    DualPath,
    RegionSplit,
    ScatteringParams,
    _deep_cell_ray,
    anomalous_transport,
    cc_flux,
    cc_index,
    cell_in_basis,
    cell_out_basis,
    classify_step,
    crossed_points,
    crossover_path,
    in_cell,
    out_cell,
    path_surgery,
    random_phase_window,
    region_difference_rank,
    straight_r_path,
    wiggled_r_path,
)
from fluxwalk.errors import ValidationError
from fluxwalk.fields import Ray, SiteMap
from fluxwalk.flux import (
    analyze,
    dense_window_index,
    index_by_odd_trace,
    index_by_supertrace,
    kitaev_sum,
)
from fluxwalk.lattice import LatticeState, random_state


def params_r(r_abs, q=1.0):
    return ScatteringParams(q, r_abs, np.sqrt(1.0 - r_abs**2))


# ---------------------------------------------------------------------------
# cell geometry


def test_cells_partition_the_lattice():
    for m in range(-4, 5):
        for n in range(-4, 5):
            z, j = in_cell((m, n))
            assert z[1] % 2 == 0
            assert cell_in_basis(z)[j] == (m, n)
            zo, b = out_cell((m, n))
            assert zo[1] % 2 == 0
            assert cell_out_basis(zo)[b] == (m, n)


def test_in_out_cells_are_neighbors():
    # the network is band width 1: each cell's states stay within one step
    for z in [(0, 0), (1, 0), (-2, 2), (3, -4)]:
        ins = cell_in_basis(z)
        outs = cell_out_basis(z)
        for p in ins:
            for q in outs:
                assert max(abs(a - b) for a, b in zip(p, q)) <= 1


def test_defining_relations_even_cell():
    # expansion of the even coupling: in1 scatters to (r out1, -t out2)
    u = CCUnitary(SiteMap(2, background=CRITICAL))
    s = 1 / np.sqrt(2)
    out = u.apply(LatticeState.basis((0, 0), 0, 1))
    assert abs(out.vector_at((0, -1))[0] - s) < 1e-15
    assert abs(out.vector_at((1, 0))[0] + s) < 1e-15
    out = u.apply(LatticeState.basis((1, -1), 0, 1))
    assert abs(out.vector_at((0, -1))[0] - s) < 1e-15
    assert abs(out.vector_at((1, 0))[0] - s) < 1e-15


def test_defining_relations_odd_cell():
    u = CCUnitary(SiteMap(2, background=CRITICAL))
    s = 1 / np.sqrt(2)
    out = u.apply(LatticeState.basis((1, 0), 0, 1))
    assert abs(out.vector_at((2, 0))[0] - s) < 1e-15
    assert abs(out.vector_at((1, 1))[0] + s) < 1e-15


def test_pure_channels():
    # r = 0: even in1 goes to the horizontal neighbour
    u = CCUnitary(SiteMap(2, background=FULL_TRANSMISSION))
    out = u.apply(LatticeState.basis((0, 0), 0, 1))
    assert out.sites() == [(1, 0)]
    # t = 0: even in1 drops straight down
    u = CCUnitary(SiteMap(2, background=FULL_REFLECTION))
    out = u.apply(LatticeState.basis((0, 0), 0, 1))
    assert out.sites() == [(0, -1)]


def test_scattering_params_reject_bad_values():
    with pytest.raises(ValidationError, match="unimodular"):
        ScatteringParams(1.1, 1.0, 0.0)
    with pytest.raises(ValidationError, match=r"\|r\|\^2"):
        ScatteringParams(1.0, 0.6, 0.6)


def test_cc_unitary_rejects_bad_scattering_fields():
    with pytest.raises(ValidationError, match="odd second coordinate"):
        CCUnitary(SiteMap(2, window={(0, 1): CRITICAL}, background=CRITICAL))
    with pytest.raises(ValidationError, match="is not a ScatteringParams"):
        CCUnitary(SiteMap(2, window={(0, 2): np.eye(2)}, background=CRITICAL))
    with pytest.raises(ValidationError, match="is not a ScatteringParams"):
        cc_flux(SiteMap(2), straight_r_path())
    with pytest.raises(ValidationError, match="Z\\^2"):
        CCUnitary(SiteMap(1, background=CRITICAL))


def test_unitarity_and_adjoint():
    rng = np.random.default_rng(3)
    window = random_phase_window(rng, 0.6, range(-4, 5), range(-4, 5))
    field = SiteMap(2, window=window, background=params_r(0.6))
    u = CCUnitary(field)
    sites = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    psi = random_state(rng, sites, 1)
    phi = random_state(rng, sites, 1)
    assert abs(u.apply(psi).norm() - 1.0) < 1e-12
    assert abs(phi.inner(u.apply(psi)) - u.apply_adjoint(phi).inner(psi)) < 1e-12
    assert (u.apply_adjoint(u.apply(psi)) - psi).norm() < 1e-12


def test_out_cells_do_not_depend_on_scattering():
    # the outgoing pair of each cell is a geometric fact: the unitary maps
    # the incoming span onto it for any choice of matrices
    rng = np.random.default_rng(4)
    for params in (CRITICAL, params_r(0.3, np.exp(0.7j)), FULL_REFLECTION):
        u = CCUnitary(SiteMap(2, background=params))
        for z in [(0, 0), (1, 2), (-3, -2)]:
            outs = set(cell_out_basis(z))
            for p in cell_in_basis(z):
                image = u.apply(LatticeState.basis(p, 0, 1))
                assert set(image.sites()) <= outs


# ---------------------------------------------------------------------------
# dual paths and edge classification


def test_crossed_points_orientation():
    # eastward step at dual height 0 bisects a vertical edge; north is left
    left, right = crossed_points((0, 0), (1, 0))
    assert left == (1, 0) and right == (1, -1)
    # westward step flips the sides
    left, right = crossed_points((1, 0), (0, 0))
    assert left == (1, -1) and right == (1, 0)


def test_step_classification_tags():
    path = straight_r_path()
    for t in range(-6, 6):
        assert path.step(t).tag == "r"
    cross = crossover_path()
    assert cross.step(-1).tag == "r"
    assert cross.step(0).tag == "t"
    assert cross.step(1).tag == "t"
    tags = [cross.step(t).tag for t in range(-10, 10)]
    # tags switch exactly once along the crossover
    assert tags == sorted(tags, key=lambda x: x != "r") or tags.count("t") + tags.count("r") == len(tags)
    switches = sum(1 for a, b in zip(tags, tags[1:]) if a != b)
    assert switches == 1


def test_single_step_single_edge():
    edge = classify_step(0, (0, 0), (1, 0))
    assert {edge.source, edge.target} == {(1, 0), (1, -1)}
    assert edge.cell == (1, 0) or edge.cell == (0, 0)


def test_wiggled_path_is_pure_r():
    path = wiggled_r_path()
    assert path.is_pure(-15, 15, "r")


def test_path_validation():
    with pytest.raises(ValidationError):
        DualPath([(0, 0), (2, 0)], (-1, 0), (1, 0))  # non-unit step
    with pytest.raises(ValidationError):
        DualPath([(0, 0), (1, 0), (0, 0)], (-1, 0), (1, 0))  # revisits
    with pytest.raises(ValidationError):
        DualPath([(0, 0)], (-1, 0), (-1, 0))  # rays coincide
    with pytest.raises(ValidationError):
        # perpendicular rays meeting at a point
        DualPath([(0, 0), (0, 1), (1, 1), (1, 0)], (0, 1), (0, 1))
    with pytest.raises(ValidationError):
        # rays facing each other on one line share a segment
        DualPath([(0, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 0)], (1, 0), (-1, 0))


def test_region_split_sides():
    split = RegionSplit(straight_r_path(), (-6, -6), (6, 6))
    # west-to-east line at dual height -1/2: left is the upper half plane
    for x in range(-5, 6):
        assert split.side((x, 0)) == 1
        assert split.side((x, 3)) == 1
        assert split.side((x, -1)) == 0
    # clamping far outside the box stays exact
    assert split.side((100, 40)) == 1
    assert split.side((-100, -40)) == 0


# ---------------------------------------------------------------------------
# flux and index


def test_rpath_block_law():
    # every block of a pure-r separating line squares to |r|^2 and is
    # traceless: its eigenvalues are exactly +-|r|
    field = SiteMap(2, background=params_r(0.3))
    report, flux = cc_index(field, straight_r_path())
    assert report.index == 0
    assert flux.certificate.bound == pytest.approx(0.3, abs=1e-12)
    for blk in flux.blocks.values():
        evals = np.linalg.eigvalsh(blk.matrix)
        assert np.max(np.abs(np.sort(evals) - np.array([-0.3, 0.3]))) < 1e-10
        sq = blk.matrix @ blk.matrix
        assert np.max(np.abs(sq - 0.09 * np.eye(2))) < 1e-12


def test_rpath_zero_weight_gives_zero_flux():
    field = SiteMap(2, background=FULL_TRANSMISSION)  # |r| = 0
    report, flux = cc_index(field, straight_r_path())
    assert report.index == 0
    assert not flux.blocks


def test_block_commutes_with_cell_and_projection():
    field = SiteMap(2, background=params_r(0.45, np.exp(1.1j)))
    _, flux = cc_index(field, straight_r_path())
    for blk in flux.blocks.values():
        p = np.diag(blk.p_diag)
        sq = blk.matrix @ blk.matrix
        assert np.max(np.abs(sq @ p - p @ sq)) < 1e-12


def test_phase_independence_of_norm():
    rng = np.random.default_rng(7)
    path = straight_r_path()
    for _ in range(20):
        window = random_phase_window(rng, 0.3, range(-6, 7), range(-6, 7))
        field = SiteMap(2, window=window, background=params_r(0.3))
        _, flux = cc_index(field, path)
        worst = max(blk.norm() for blk in flux.blocks.values())
        assert abs(worst - 0.3) < 1e-10


def test_crossover_critical_index():
    report, flux = cc_index(SiteMap(2, background=CRITICAL), crossover_path())
    assert abs(report.index) == 1
    assert flux.certificate.bound == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    # the mirrored geometry also carries a unit index
    report2, _ = cc_index(SiteMap(2, background=CRITICAL), crossover_path(False))
    assert abs(report2.index) == 1


def test_crossover_sign_flips_with_complementary_region():
    # complementing the region negates the flux, hence the index
    field = SiteMap(2, background=CRITICAL)
    up = crossover_path()
    report, flux = cc_index(field, up)
    mirrored = DualPath([(0, 1), (0, 0)], (1, 0), (-1, 0))
    report_m, _ = cc_index(field, mirrored)
    assert report_m.index == -report.index


def test_crossover_certificate_fails_at_unit_modulus():
    # |r| = 1 along the reflection ray means no gap at infinity
    field = SiteMap(2, background=FULL_REFLECTION)
    from fluxwalk.errors import CertificationError

    flux = cc_flux(field, crossover_path())
    assert not flux.certificate.ok
    with pytest.raises(CertificationError):
        from fluxwalk.flux import index_by_kernels

        index_by_kernels(flux)


def test_intermediate_moduli_crossover():
    for r_abs in (0.2, 0.5, 0.9):
        report, _ = cc_index(SiteMap(2, background=params_r(r_abs)), crossover_path())
        assert abs(report.index) == 1


def test_trace_formulas_on_capped_flux():
    # cap both rays so the flux has finitely many blocks, then every trace
    # formula must reproduce the kernel count
    rng = np.random.default_rng(9)
    window = random_phase_window(rng, 0.2, range(-9, 10), range(-9, 10))
    field = SiteMap(2, window=window, background=params_r(0.2))
    result = anomalous_transport(field, crossover_path(), [0.25])
    assert abs(result["index"]) == 1
    for eps, trace in result["traces"]:
        assert abs(trace - result["index"]) < 1e-9


def capped(field, path):
    """Manually capped crossover: transmission far along the r-ray,
    reflection far along the t-ray, so only finitely many blocks are nonzero."""
    r_base, r_in = _deep_cell_ray(path, list(range(-40, -31)))
    t_base, t_in = _deep_cell_ray(path, list(range(39, 30, -1)))
    return field.overridden(
        window={e.cell: FULL_TRANSMISSION for e in path.steps(-40, -4)}
        | {e.cell: FULL_REFLECTION for e in path.steps(4, 40)},
        rays=[
            (Ray(r_base, tuple(-c for c in r_in)), [FULL_TRANSMISSION]),
            (Ray(t_base, tuple(-c for c in t_in)), [FULL_REFLECTION]),
        ],
    )


def test_kitaev_sum_on_capped_flux():
    path = crossover_path()
    report, flux = cc_index(capped(SiteMap(2, background=params_r(0.2)), path), path)
    assert flux.tail_zero
    assert abs(kitaev_sum(flux) - report.index) < 1e-9
    assert abs(index_by_odd_trace(flux, 1) - report.index) < 1e-9
    assert abs(index_by_supertrace(flux, 1) - report.index) < 1e-9


@pytest.mark.parametrize("west_first", [True, False])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_dense_window_oracle_on_capped_flux(west_first, seed):
    # one dense compression of U*PU - P around every nonzero block must
    # count the same index as the blockwise path
    path = crossover_path(west_first)
    window = random_phase_window(np.random.default_rng(seed), 0.2, range(-3, 4), range(-3, 4))
    field = capped(SiteMap(2, window=window, background=params_r(0.2)), path)
    report, flux = cc_index(field, path)
    assert flux.tail_zero and abs(report.index) == 1
    points = [p for z in flux.blocks for p in cell_in_basis(z)]
    axes = [range(min(p[j] for p in points) - 2, max(p[j] for p in points) + 3) for j in (0, 1)]
    box = itertools.product(*axes)
    assert dense_window_index(CCUnitary(field), flux.geometry.proj.apply, box, 1) == report.index


# ---------------------------------------------------------------------------
# surgery


def test_surgery_identity_replacement():
    path = straight_r_path().extended(5, 5)
    same = path_surgery(path, 2, 4, [path.vertex(2), path.vertex(3), path.vertex(4)])
    assert same.middle == path.middle


def test_surgery_wiggle_keeps_index():
    field = SiteMap(2, background=params_r(0.3))
    base = straight_r_path().extended(8, 8)
    report0, _ = cc_index(field, base)
    # bump over two columns starting at an odd column
    t_from = base.middle.index((-3, 0))
    t_to = base.middle.index((-1, 0))
    replacement = [(-3, 0), (-3, 1), (-3, 2), (-2, 2), (-1, 2), (-1, 1), (-1, 0)]
    bumped = path_surgery(base, t_from, t_to, replacement, require_tag="r")
    report1, _ = cc_index(field, bumped)
    assert report1.index == report0.index == 0
    assert region_difference_rank(base, bumped) == 4


def test_surgery_rejects_wrong_parity():
    base = straight_r_path().extended(8, 8)
    # starting the bump at an even column forces transmission-type links
    t_from = base.middle.index((-4, 0))
    t_to = base.middle.index((-2, 0))
    replacement = [(-4, 0), (-4, 1), (-4, 2), (-3, 2), (-2, 2), (-2, 1), (-2, 0)]
    with pytest.raises(ValidationError, match="tag"):
        path_surgery(base, t_from, t_to, replacement, require_tag="r")


def test_surgery_rejects_mismatched_endpoints():
    base = straight_r_path().extended(4, 4)
    with pytest.raises(ValidationError, match="endpoints"):
        path_surgery(base, 1, 3, [(-9, 9), (-9, 8)])


def test_surgery_on_crossover_keeps_unit_index():
    field = SiteMap(2, background=CRITICAL)
    base = crossover_path().extended(10, 10)
    report0, _ = cc_index(field, base)
    t_from = base.middle.index((-5, 0))
    t_to = base.middle.index((-3, 0))
    replacement = [(-5, 0), (-5, 1), (-5, 2), (-4, 2), (-3, 2), (-3, 1), (-3, 0)]
    bumped = path_surgery(base, t_from, t_to, replacement, require_tag="r")
    report1, _ = cc_index(field, bumped)
    assert report1.index == report0.index
    assert abs(report1.index) == 1


# ---------------------------------------------------------------------------
# anomalous transport


def test_anomalous_transport_family():
    rng = np.random.default_rng(23)
    window = random_phase_window(rng, 0.2, range(-9, 10), range(-9, 10))
    field = SiteMap(2, window=window, background=params_r(0.2))
    result = anomalous_transport(field, crossover_path(), [0.25, 0.125, 0.0625])
    assert abs(result["index"]) == 1
    for eps, trace in result["traces"]:
        assert abs(trace - result["index"]) < 1e-9


def test_anomalous_rejects_bad_epsilon():
    field = SiteMap(2, background=params_r(0.2))
    with pytest.raises(ValidationError):
        anomalous_transport(field, crossover_path(), [0.0])


def test_trace_norm_bound_measured_constant():
    # block trace norm is exactly 2|r| per cell, so the measured constant in
    # the summed bound is 2
    field = SiteMap(2, background=params_r(0.3))
    _, flux = cc_index(field, straight_r_path())
    from fluxwalk.lattice import trace_norm_hermitian

    for blk in flux.blocks.values():
        assert abs(trace_norm_hermitian(blk.matrix) - 2 * 0.3) < 1e-10
