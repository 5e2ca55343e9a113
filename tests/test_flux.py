import numpy as np
import pytest

from fluxwalk.config import DEFAULT, STRICT, Tolerances
from fluxwalk.errors import (
    CertificationError,
    EigenvalueAmbiguityError,
    NonSummableError,
    ValidationError,
)
from fluxwalk.fields import HalfSpace, SiteMap
from fluxwalk.flux import (
    analyze,
    certify_isolated,
    classify_unit,
    dense_window_index,
    index_by_kernels,
    index_by_odd_trace,
    index_by_supertrace,
    kitaev_sum,
    phi_less_norm,
    verify_internal_identities,
)
from fluxwalk.lattice import LatticeState, direction_index, haar_unitary, random_state
from fluxwalk.operators import matrix_on_window
from fluxwalk.walks import (
    basic_halfspace_projection,
    build_walk,
    build_walk_flux,
    halfline_projection,
    walk_index,
)


def make_basic_example(seed=1, n_cut=2):
    rng = np.random.default_rng(seed)
    slot = direction_index(1, 1)
    window = {}
    for x in range(-n_cut - 4, n_cut):
        window[(x,)] = haar_unitary(rng, 2)
    for x in range(n_cut, n_cut + 5):
        window[(x,)] = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
    tail = np.diag(np.exp(1j * np.array([0.3, -0.8])))
    coin = SiteMap(
        1,
        window=window,
        halfspaces=[(HalfSpace(0, 1, n_cut), tail)],
        background=np.eye(2, dtype=complex),
    )
    return coin, basic_halfspace_projection(n_cut)


def test_commuting_configuration_has_zero_flux():
    # identity coin and a constant full projection commute with the walk
    from fluxwalk.fields import AdaptedProjection
    from fluxwalk.operators import identity_coin

    proj = AdaptedProjection.from_layers(1, background={0})
    flux = build_walk_flux(identity_coin(1), proj)
    assert not flux.blocks
    assert flux.certificate.bound < 1e-15
    report = analyze(flux)
    assert report.index == 0
    assert abs(report.odd_trace) < 1e-12


def test_basic_example_flux_location_and_index():
    coin, proj = make_basic_example()
    flux = build_walk_flux(coin, proj)
    # the paper's configuration concentrates the flux on the single site just
    # below the cut; everything beyond the cut vanishes identically
    assert sorted(flux.blocks) == [(1,)]
    report = analyze(flux)
    assert report.index == 1
    assert report.dim_ker_plus == 1 and report.dim_ker_minus == 0
    assert abs(report.odd_trace - 1) < 1e-9
    assert abs(report.supertrace - 1) < 1e-9
    assert abs(report.kitaev_sum - 1) < 1e-9
    assert report.rank_difference == 1


def test_blocks_match_dense_window_oracle():
    # blockwise construction agrees with a dense compression of U*PU - P
    coin, proj = make_basic_example(seed=5)
    flux = build_walk_flux(coin, proj)
    walk = build_walk(coin)

    sites = [(x,) for x in range(-9, 10)]
    n = 2
    index_of = {s: i for i, s in enumerate(sites)}
    m = np.zeros((len(sites) * n, len(sites) * n), dtype=complex)
    for js, site in enumerate(sites):
        for slot in range(n):
            e = LatticeState.basis(site, slot, n)
            image = walk.apply_adjoint(proj.apply(walk.apply(e))) - proj.apply(e)
            for target, vec in image.items():
                i = index_of.get(target)
                if i is not None:
                    m[i * n : (i + 1) * n, js * n + slot] = vec
    for site, blk in flux.blocks.items():
        i = index_of[site]
        assert np.max(np.abs(m[i * n : (i + 1) * n, i * n : (i + 1) * n] - blk.matrix)) < 1e-12


def test_flux_apply_equals_operator_route():
    coin, proj = make_basic_example(seed=8)
    flux = build_walk_flux(coin, proj)
    walk = build_walk(coin)
    rng = np.random.default_rng(2)
    psi = random_state(rng, [(x,) for x in range(-3, 4)], 2)
    via_op = walk.apply_adjoint(proj.apply(walk.apply(psi))) - proj.apply(psi)
    assert (flux.apply(psi) - via_op).norm() < 1e-12


def test_formula_cross_agreement():
    coin, proj = make_basic_example(seed=9)
    flux = build_walk_flux(coin, proj)
    base = index_by_kernels(flux).index
    for j in (0, 1, 2):
        assert abs(index_by_odd_trace(flux, j) - base) < 1e-9
    for j in (1, 2):
        assert abs(index_by_supertrace(flux, j) - base) < 1e-9
    assert abs(kitaev_sum(flux) - base) < 1e-9


def test_sign_flip_under_complementation():
    coin, proj = make_basic_example(seed=12)
    report, _ = walk_index(coin, proj)
    report_c, _ = walk_index(coin, proj.complement())
    assert report_c.index == -report.index


def test_blockwise_spectrum_bound_and_identities():
    coin, proj = make_basic_example(seed=14)
    flux = build_walk_flux(coin, proj)
    for blk in flux.blocks.values():
        evals = np.linalg.eigvalsh(blk.matrix)
        assert np.all(np.abs(evals) <= 1 + 1e-12)
        # the squared flux commutes with the projection, blockwise
        p = np.diag(blk.p_diag)
        sq = blk.matrix @ blk.matrix
        assert np.max(np.abs(sq @ p - p @ sq)) < 1e-12
    defects = verify_internal_identities(flux)
    assert defects["sum_defect"] < 1e-12
    assert defects["anticommutator_defect"] < 1e-12


def test_certificate_failure_reports_witness():
    # a coin that swaps the two directions makes the tail flux have norm 1
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    coin = SiteMap(1, background=swap)
    proj = halfline_projection(1, 1)
    flux = build_walk_flux(coin, proj)
    ok, radius, bound = certify_isolated(flux)
    assert not ok
    assert bound > 1 - 1e-9
    assert flux.certificate.witness is not None
    with pytest.raises(CertificationError):
        index_by_kernels(flux)


def test_guard_band_aborts():
    # hand-plant a block eigenvalue inside the guard band around +1
    coin, proj = make_basic_example(seed=1)
    flux = build_walk_flux(coin, proj)
    label = next(iter(flux.blocks))
    blk = flux.blocks[label]
    bad = np.diag([1.0 - 3e-8, 0.0]).astype(complex)
    object.__setattr__(blk, "matrix", bad)
    flux._eig_cache.clear()
    with pytest.raises(EigenvalueAmbiguityError):
        index_by_kernels(flux)


def test_trace_formulas_require_summable_tail():
    # constant half-space flux with nonvanishing tail norm: kernels fine,
    # trace formulas refused
    theta = 0.4
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    )
    coin = SiteMap(1, background=rot)
    proj = halfline_projection(1, 1)
    flux = build_walk_flux(coin, proj)
    assert not flux.tail_zero
    with pytest.raises(NonSummableError):
        index_by_odd_trace(flux, 0)
    report = index_by_kernels(flux)
    assert isinstance(report.index, int)


def test_gap_reports_distance_to_one():
    coin, proj = make_basic_example(seed=21)
    flux = build_walk_flux(coin, proj)
    report = analyze(flux)
    small = phi_less_norm(flux)
    assert abs(report.gap - (1.0 - small**2)) < 1e-12


def test_dense_window_index_oracle():
    coin, proj = make_basic_example(seed=17)
    flux = build_walk_flux(coin, proj)
    walk = build_walk(coin)
    report = analyze(flux)
    box = [(x,) for x in range(-2, 5)]
    dense = dense_window_index(walk, proj.apply, box, 2)
    assert dense == report.index


def test_strict_profile_still_counts_exactly():
    from fluxwalk.config import STRICT

    coin, proj = make_basic_example(seed=23)
    flux = build_walk_flux(coin, proj, tol=STRICT)
    assert index_by_kernels(flux).index == 1


@pytest.mark.parametrize("tol", [DEFAULT, STRICT], ids=["default", "strict"])
def test_classify_unit(tol):
    label = (0,)
    assert classify_unit(np.array([1 - 1e-11]), tol, label) == ([0], [], 0.0)
    assert classify_unit(np.array([-1 + 1e-11]), tol, label) == ([], [0], 0.0)
    assert classify_unit(np.array([0.5]), tol, label) == ([], [], 0.5)
    with pytest.raises(EigenvalueAmbiguityError):
        classify_unit(np.array([1 - 3 * tol.eigenvalue_unit]), tol, label)
    with pytest.raises(ValidationError, match="exceeds 1 in modulus"):
        classify_unit(np.array([1 + 2e-10]), tol, label)
