import itertools
import json
import re
from functools import cached_property

import numpy as np
import pytest

import fluxwalk.cc as cc_module
import reference_state as ref
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
    classify_steps,
    crossover_path,
    in_cells,
    out_cells,
    path_surgery,
    check_rows,
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


CELLS = CCUnitary(SiteMap(2, background=CRITICAL))


def test_cells_partition_the_lattice():
    points = np.array(list(itertools.product(range(-4, 5), repeat=2)))
    at = np.arange(len(points))
    z, j = in_cells(points)
    assert (z[:, 1] % 2 == 0).all()
    assert (CELLS.in_basis(z)[0][at, j] == points).all()
    zo, b = out_cells(points)
    assert (zo[:, 1] % 2 == 0).all()
    assert (CELLS.out_basis(zo)[0][at, b] == points).all()


def test_in_out_cells_are_neighbors():
    # the network is band width 1: each cell's states stay within one step
    z = np.array([(0, 0), (1, 0), (-2, 2), (3, -4)])
    ins, _ = CELLS.in_basis(z)
    outs, _ = CELLS.out_basis(z)
    assert (np.abs(ins[:, :, None, :] - outs[:, None, :, :]).max(axis=-1) <= 1).all()


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
    assert sorted(out.site_list()) == [(1, 0)]
    # t = 0: even in1 drops straight down
    u = CCUnitary(SiteMap(2, background=FULL_REFLECTION))
    out = u.apply(LatticeState.basis((0, 0), 0, 1))
    assert sorted(out.site_list()) == [(0, -1)]


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


@pytest.mark.parametrize("nan_at", ["q", "r", "t"])
def test_scattering_params_reject_nan(nan_at):
    # NaN compares false with every bound, so a check that reads
    # "deviation > bound" lets it through
    values = {"q": 1.0, "r": 1.0, "t": 0.0, nan_at: float("nan")}
    message = "|q| = nan is not unimodular" if nan_at == "q" else "|r|^2 + |t|^2 must equal 1"
    with pytest.raises(ValidationError, match=re.escape(message)) as info:
        ScatteringParams(**values)
    assert info.type is ValidationError


# ---------------------------------------------------------------------------
# scattering fields as arrays


@pytest.mark.parametrize("r_abs", [0.0, 0.3, 1.0 / np.sqrt(2.0), 1.0])
@pytest.mark.parametrize(
    "a_range, b_range",
    [
        (range(-7, 8), range(-7, 8)),
        (range(-2, 5), range(-9, 4)),  # not square, odd b at both ends
        (range(3, 3), range(-4, 5)),  # no a
        (range(0, 4), range(1, 2)),  # no even b
    ],
)
def test_random_phase_window_matches_the_per_cell_draws(r_abs, a_range, b_range):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    cells, qrt = random_phase_window(rng, r_abs, a_range, b_range)
    want = ref.random_phase_window(ref_rng, r_abs, a_range, b_range)
    assert cells.dtype == np.int64 and cells.shape == (len(want), 2)
    assert qrt.dtype == complex and qrt.shape == (len(want), 3)
    assert list(map(tuple, cells.tolist())) == list(want)
    for row, params in zip(qrt, want.values()):
        for got, value in zip(row, (params.q, params.r, params.t)):
            assert type(got) is type(value)
            assert np.asarray(got).tobytes() == np.asarray(value).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ((1.1, 1.0, 0.0), "|q| = 1.1 is not unimodular"),
        ((1.0, 0.6, 0.6), "|r|^2 + |t|^2 must equal 1"),
        ((np.nan, 1.0, 0.0), "|q| = nan is not unimodular"),
        ((1.0, np.nan, 0.0), "|r|^2 + |t|^2 must equal 1"),
        ((1.0, 1.0, np.nan), "|r|^2 + |t|^2 must equal 1"),
    ],
)
@pytest.mark.parametrize("at", [0, 17, -1])
def test_one_bad_row_fails_a_window_like_scattering_params(bad_row, message, at):
    with pytest.raises(ValidationError, match=re.escape(message)):
        ScatteringParams(*bad_row)
    cells, qrt = random_phase_window(np.random.default_rng(5), 0.6, range(-3, 4), range(-3, 4))
    qrt[at] = bad_row
    with pytest.raises(ValidationError, match=re.escape(message)):
        check_rows(qrt)
    # a network checks a block handed to it in a (sites, values) window
    with pytest.raises(ValidationError, match=re.escape(message)):
        CCUnitary(SiteMap(2, window=(cells, qrt), background=CRITICAL))
    # and a row of it in a dict window
    with pytest.raises(ValidationError, match=re.escape(message)):
        CCUnitary(SiteMap(2, window={(0, 0): qrt[at]}, background=CRITICAL))


def test_the_window_draw_checks_its_rows(monkeypatch):
    # a phase draw that is not unit modulus fails at the draw
    monkeypatch.setattr(cc_module.np, "exp", lambda x: 1.5 * np.ones_like(x))
    with pytest.raises(ValidationError, match="not unimodular"):
        random_phase_window(np.random.default_rng(5), 0.6, range(-3, 4), range(-3, 4))


def assert_cells_are_the_stacked_matrices(field: SiteMap, labels):
    """``CCUnitary.cells`` gives S(z)^T built from ``ScatteringParams(*p)``
    bit for bit, for every window row and template p."""
    want = np.array([ref.scattering_matrix(field.value(z)).T for z in labels])
    table, rows, *_ = CCUnitary(field).cells(np.array(labels))
    got = table[rows]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "background",
    [
        CRITICAL,
        FULL_TRANSMISSION,
        FULL_REFLECTION,
        params_r(0.3, q=np.exp(0.7j)),
        # complex parameters with signed zero imaginary parts, and NumPy's
        # single-precision complex type
        ScatteringParams(complex(1.0, 0.0), complex(0.6, -0.0), complex(-0.8, 0.0)),
        ScatteringParams(np.complex64(1j), np.complex64(-1.0), 0.0),
    ],
)
def test_cells_are_the_stacked_matrices_of_every_layer(background):
    window = random_phase_window(np.random.default_rng(5), 0.6, range(-3, 4), range(-3, 4))
    ray = Ray((6, 0), (1, 0))
    field = SiteMap(
        2,
        window=window,
        rays=[(ray, [FULL_TRANSMISSION, FULL_REFLECTION, params_r(0.4)])],
        background=background,
    )
    labels = [*map(tuple, window[0].tolist()), *(ray.site_at(t) for t in range(7)), (-10, 4), (20, -6), (5, 2)]
    assert_cells_are_the_stacked_matrices(field, labels)


def test_cells_are_the_stacked_matrices_of_a_capped_field(monkeypatch):
    # the fields that anomalous_transport caps, at the three default
    # epsilons: FULL_TRANSMISSION and FULL_REFLECTION rows and rays over a
    # random-phase window, which stays one (N, 3) block
    calls, overridden = [], SiteMap.overridden

    def record(self, window=None, rays=()):
        calls.append((overridden(self, window, rays), self, window, rays))
        return calls[-1][0]

    monkeypatch.setattr(SiteMap, "overridden", record)
    window = random_phase_window(np.random.default_rng(23), 0.2, range(-5, 6), range(-5, 6))
    anomalous_transport(SiteMap(2, window=window, background=params_r(0.2)), crossover_path(), [0.25, 0.125, 0.0625])
    assert len(calls) == 3
    # one cap reach for every epsilon: each cap window runs out to the same
    # outermost cells, and a larger epsilon caps more of the path
    assert len({(tuple(sites[0]), tuple(sites[-1])) for _, _, (sites, _), _ in calls}) == 1
    capped_cells = [set(map(tuple, sites.tolist())) for _, _, (sites, _), _ in calls]
    assert capped_cells[0] > capped_cells[1] > capped_cells[2]
    caps = {tuple(p): p for p in (FULL_TRANSMISSION, FULL_REFLECTION)}
    for field, drawn, (sites, rows), rays in calls:
        assert field._window is None and field.window_values.shape == (len(field.window_coords.T), 3)
        # the capped table against the dict merge of ScatteringParams caps:
        # equal values; the bits differ only in the sign of zero entries,
        # since a block row's r and t are complex where a cap's are floats
        merged = overridden(drawn, {tuple(z): caps[tuple(q)] for z, q in zip(sites.tolist(), rows)}, rays)
        assert list(field.window) == list(merged.window)
        got, want = CCUnitary(field)._transposed_table, CCUnitary(merged)._transposed_table
        assert np.array_equal(got, want)
        signs = got.view(np.uint64) != want.view(np.uint64)
        assert (got.view(float)[signs] == 0).all()
        assert len(field.rays) == 2
        labels = [*field.window, *(ray.site_at(t) for ray, _ in field.rays for t in range(5)), (0, 60)]
        assert_cells_are_the_stacked_matrices(field, labels)


def test_scattering_table_is_stacked_once_per_unitary(monkeypatch):
    # block assembly and the selfcheck read S^T through one unitary's table
    builds, reads = [], []
    table = CCUnitary.__dict__["_transposed_table"]
    counted = cached_property(lambda self: builds.append(self) or table.func(self))
    counted.__set_name__(CCUnitary, "_transposed_table")
    monkeypatch.setattr(CCUnitary, "_transposed_table", counted)
    # block assembly reads the table through cells, the actions through _scatter
    for name in ("cells", "_scatter"):
        original = getattr(CCUnitary, name)
        monkeypatch.setattr(CCUnitary, name, lambda self, *a, _o=original, **kw: reads.append(self) or _o(self, *a, **kw))
    window = random_phase_window(np.random.default_rng(3), 0.3, range(-4, 5), range(-4, 5))
    cc_flux(SiteMap(2, window=window, background=params_r(0.3)), straight_r_path())
    assert len(builds) == 1
    # the one block call, then U and U* in the selfcheck
    assert len(reads) >= 3 and all(u is builds[0] for u in reads)


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
    labels = np.array([(0, 0), (1, 2), (-3, -2)])
    for params in (CRITICAL, params_r(0.3, np.exp(0.7j)), FULL_REFLECTION):
        u = CCUnitary(SiteMap(2, background=params))
        for ins, outs in zip(u.in_basis(labels)[0].tolist(), u.out_basis(labels)[0].tolist()):
            for p in ins:
                image = u.apply(LatticeState.basis(tuple(p), 0, 1))
                assert set(image.site_list()) <= set(map(tuple, outs))


# ---------------------------------------------------------------------------
# dual paths and edge classification


def test_crossed_points_orientation():
    # eastward step at dual height 0 bisects a vertical edge; north is left
    v, w = np.array([(0, 0), (1, 0)]), np.array([(1, 0), (0, 0)])
    points = classify_steps(v, w)[0].tolist()
    assert points[0] == [[1, 0], [1, -1]]
    # westward step flips the sides
    assert points[1] == [[1, -1], [1, 0]]
    for i in range(2):
        assert ref.crossed_points(tuple(v[i]), tuple(w[i])) == tuple(map(tuple, points[i]))


def test_step_classification_tags():
    path = straight_r_path()
    assert path.crossings(-6, 6)[1].tolist() == ["r"] * 12
    cross = crossover_path()
    assert cross.crossings(-1, 2)[1].tolist() == ["r", "t", "t"]
    tags = cross.crossings(-10, 10)[1].tolist()
    # tags switch exactly once along the crossover
    assert tags == sorted(tags, key=lambda x: x != "r") or tags.count("t") + tags.count("r") == len(tags)
    switches = sum(1 for a, b in zip(tags, tags[1:]) if a != b)
    assert switches == 1


def test_single_step_single_edge():
    points, cells, _, _ = classify_steps(np.array([(0, 0)]), np.array([(1, 0)]))
    assert set(map(tuple, points[0].tolist())) == {(1, 0), (1, -1)}
    assert tuple(cells[0].tolist()) in ((1, 0), (0, 0))


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

    def side(*points):
        return split.diagonal_entries(np.array(points), np.zeros(len(points), dtype=int)).tolist()

    # west-to-east line at dual height -1/2: left is the upper half plane
    for x in range(-5, 6):
        assert side((x, 0), (x, 3), (x, -1)) == [1, 1, 0]
    # clamping far outside the box stays exact
    assert side((100, 40), (-100, -40)) == [1, 0]


# ---------------------------------------------------------------------------
# flux and index


def test_rpath_block_law():
    # every block of a pure-r separating line squares to |r|^2 and is
    # traceless: its eigenvalues are exactly +-|r|
    field = SiteMap(2, background=params_r(0.3))
    report, flux = cc_index(field, straight_r_path())
    assert report.index == 0
    assert flux.certificate.bound == pytest.approx(0.3, abs=1e-12)
    for phi in flux.box.flux[flux.kept]:
        evals = np.linalg.eigvalsh(phi)
        assert np.max(np.abs(np.sort(evals) - np.array([-0.3, 0.3]))) < 1e-10
        sq = phi @ phi
        assert np.max(np.abs(sq - 0.09 * np.eye(2))) < 1e-12


def test_rpath_zero_weight_gives_zero_flux():
    field = SiteMap(2, background=FULL_TRANSMISSION)  # |r| = 0
    report, flux = cc_index(field, straight_r_path())
    assert report.index == 0
    assert not len(flux.kept)


def test_block_commutes_with_cell_and_projection():
    field = SiteMap(2, background=params_r(0.45, np.exp(1.1j)))
    _, flux = cc_index(field, straight_r_path())
    for phi, p_diag in zip(flux.box.flux[flux.kept], flux.box.p_in[flux.kept]):
        p = np.diag(p_diag)
        sq = phi @ phi
        assert np.max(np.abs(sq @ p - p @ sq)) < 1e-12


def test_phase_independence_of_norm():
    rng = np.random.default_rng(7)
    path = straight_r_path()
    for _ in range(20):
        window = random_phase_window(rng, 0.3, range(-6, 7), range(-6, 7))
        field = SiteMap(2, window=window, background=params_r(0.3))
        _, flux = cc_index(field, path)
        worst = max(float(np.abs(evals).max()) for evals in flux.box.eigenvalues[flux.kept])
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
        window=dict.fromkeys(map(tuple, path.crossings(-40, -4)[0].tolist()), FULL_TRANSMISSION)
        | dict.fromkeys(map(tuple, path.crossings(4, 40)[0].tolist()), FULL_REFLECTION),
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
    points = flux.geometry.unitary.in_basis(flux.box.index.table[flux.kept])[0].reshape(-1, 2)
    axes = [range(int(points[:, j].min()) - 2, int(points[:, j].max()) + 3) for j in (0, 1)]
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
    assert region_difference_rank(RegionSplit(base, (-30, -30), (30, 30)), bumped) == 4


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


def test_anomalous_transport_caps_a_map_without_a_drawn_window():
    # the caps override the empty window of a dict-form map, so the capped
    # field is one block of cap rows
    result = anomalous_transport(SiteMap(2, background=params_r(0.2)), crossover_path(), [0.25, 0.0625])
    assert abs(result["index"]) == 1
    for eps, trace in result["traces"]:
        assert abs(trace - result["index"]) < 1e-9


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
    from reference_state import trace_norm_hermitian

    for phi in flux.box.flux[flux.kept]:
        assert abs(trace_norm_hermitian(phi) - 2 * 0.3) < 1e-10


def test_selfcheck_pushes_its_probes_through_the_network_once(monkeypatch):
    # the three probes go through U and U* as one stacked state (6 network
    # actions when each probe went alone)
    from fluxwalk.cli import bundled_scenarios
    from fluxwalk.flux import selfcheck_against_operator
    from fluxwalk.scenarios import _checked_setup

    setup = _checked_setup(json.loads(bundled_scenarios()["cc_rpath"].read_text()))
    flux = setup.flux
    calls = []
    for name in ("apply", "apply_adjoint"):
        original = getattr(CCUnitary, name)
        monkeypatch.setattr(CCUnitary, name, lambda self, psi, _o=original, _n=name: calls.append(_n) or _o(self, psi))
    assert selfcheck_against_operator(flux, setup.unitary) <= 1e-12
    assert calls == ["apply", "apply_adjoint"]
