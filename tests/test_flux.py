import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_state as ref
from fluxwalk.config import DEFAULT, STRICT, WINDOW_SITES, Tolerances
from fluxwalk.errors import (
    CertificationError,
    ConsistencyError,
    EigenvalueAmbiguityError,
    NonSummableError,
    ValidationError,
)
from fluxwalk.fields import HalfSpace, SiteMap
from fluxwalk.flux import (
    FluxWindow,
    analyze,
    classify_unit,
    dense_window_index,
    index_by_kernels,
    index_by_odd_trace,
    index_by_supertrace,
    kitaev_sum,
    selfcheck_against_operator,
)
from fluxwalk.lattice import LatticeState, direction_index, haar_unitary, random_state
from fluxwalk.operators import matrix_on_window
from fluxwalk.shift import extract_kernels
from fluxwalk.walks import (
    basic_halfspace_projection,
    build_walk,
    build_walk_flux,
    halfline_projection,
    network_projection,
    random_background,
    random_network,
    synthesize_lead_coin,
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


def verify_internal_identities(flux) -> dict:
    """Blockwise sanity of the two-projection algebra.

    With R = flux + P, the complement B = (1 - R) - P must satisfy
    flux^2 + B^2 = 1 and anticommute with the flux.
    """
    worst_sum = 0.0
    worst_anti = 0.0
    for phi, p_diag in zip(flux.box.flux[flux.kept], flux.box.p_in[flux.kept]):
        n = phi.shape[0]
        p = np.diag(p_diag).astype(complex)
        r = phi + p
        b = (np.eye(n) - r) - p
        worst_sum = max(worst_sum, float(np.max(np.abs(phi @ phi + b @ b - np.eye(n)))))
        worst_anti = max(worst_anti, float(np.max(np.abs(phi @ b + b @ phi))))
    return {"sum_defect": worst_sum, "anticommutator_defect": worst_anti}


def test_commuting_configuration_has_zero_flux():
    # identity coin and a constant full projection commute with the walk
    from fluxwalk.fields import AdaptedProjection
    from reference_state import identity_coin

    proj = AdaptedProjection.from_layers(1, background={0})
    flux = build_walk_flux(identity_coin(1), proj)
    assert not len(flux.kept)
    assert flux.certificate.bound < 1e-15
    report = analyze(flux)
    assert report.index == 0
    assert abs(report.odd_trace) < 1e-12


def test_basic_example_flux_location_and_index():
    coin, proj = make_basic_example()
    flux = build_walk_flux(coin, proj)
    # the paper's configuration concentrates the flux on the single site just
    # below the cut; everything beyond the cut vanishes identically
    assert ref.kept_labels(flux) == [(1,)]
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
            for target, vec in ref.items(image):
                i = index_of.get(target)
                if i is not None:
                    m[i * n : (i + 1) * n, js * n + slot] = vec
    for site, phi in zip(ref.kept_labels(flux), flux.box.flux[flux.kept]):
        i = index_of[site]
        assert np.max(np.abs(m[i * n : (i + 1) * n, i * n : (i + 1) * n] - phi)) < 1e-12


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


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["network", "basic_example"]))
def test_complementation_flips_the_index(seed, kind):
    # ind(1 - P) = -ind(P): the flux changes sign, so the +1 and -1 kernels
    # trade places
    if kind == "network":
        rng = np.random.default_rng(seed)
        n_in, n_out = (int(n) for n in rng.integers(0, 3, size=2))
        network = random_network(rng, n_in, max(n_out, 1 - n_in), box=6)
        coin = synthesize_lead_coin(network, random_background(rng, 2, box=3))
        proj = network_projection(network)
    else:
        coin, proj = make_basic_example(seed=seed)
    report, _ = walk_index(coin, proj)
    report_c, _ = walk_index(coin, proj.complement())
    assert report_c.index == -report.index
    assert (report_c.dim_ker_plus, report_c.dim_ker_minus) == (
        report.dim_ker_minus,
        report.dim_ker_plus,
    )


def test_blockwise_spectrum_bound_and_identities():
    coin, proj = make_basic_example(seed=14)
    flux = build_walk_flux(coin, proj)
    for phi, p_diag in zip(flux.box.flux[flux.kept], flux.box.p_in[flux.kept]):
        evals = np.linalg.eigvalsh(phi)
        assert np.all(np.abs(evals) <= 1 + 1e-12)
        # the squared flux commutes with the projection, blockwise
        p = np.diag(p_diag)
        sq = phi @ phi
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
    cert = flux.certificate
    assert not cert.ok
    assert cert.bound > 1 - 1e-9
    assert cert.witness is not None
    with pytest.raises(CertificationError):
        index_by_kernels(flux)


def test_rank_formula_mismatch_fails_the_analysis():
    # the kernel count is 1; a rank formula off by one must not pass
    coin, proj = make_basic_example(seed=1)
    flux = build_walk_flux(coin, proj)
    flux.rank_difference += 1
    with pytest.raises(ConsistencyError, match=re.escape("kernel count 1 disagrees with the rank formula 2")):
        analyze(flux)


@pytest.mark.parametrize(
    "complement, message",
    [(False, "+1 eigenvector at {} meets Ran P by 1"), (True, "-1 eigenvector at {} leaves Ran P by 1")],
    ids=["plus", "minus"],
)
def test_kernel_vectors_must_respect_the_projection(complement, message):
    # flipping the stored P diagonal of the kernel block moves each unit
    # eigenvector entirely to the wrong side of P
    coin, proj = make_basic_example(seed=1)
    flux = build_walk_flux(coin, proj.complement() if complement else proj)
    (row,) = flux.kept.tolist()
    label = flux.box.label(row)
    p_diag = flux.box.p_in[row]
    p_diag[...] = 1.0 - p_diag
    with pytest.raises(ValidationError, match=re.escape(message.format(label))):
        extract_kernels(flux)


def _basic_flux_and_a_probed_kept_block():
    """The basic example's flux and walk, and a kept block that the
    selfcheck's probes meet, as a view of its box row."""
    coin, proj = make_basic_example(seed=1)
    walk = build_walk(coin)
    flux = build_walk_flux(walk, proj)
    probed = set(flux.geometry.probe_states(np.random.default_rng(7)).site_list())
    row = next(row for row in flux.kept.tolist() if flux.box.label(row) in probed)
    return flux, walk, flux.box.flux[row]


def test_selfcheck_catches_a_corrupted_kept_block():
    # the probes travel as the columns of one state; a kept block that the
    # probes meet, off by 1e-6 in one entry, must fail the check
    flux, walk, block = _basic_flux_and_a_probed_kept_block()
    block[0, 0] += 1e-6
    with pytest.raises(ConsistencyError, match=re.escape("blockwise flux deviates from U*PU - P by")):
        selfcheck_against_operator(flux, walk)


def test_selfcheck_catches_a_small_offset_on_a_kept_block():
    # a 1e-11 Hermitian offset on one probed kept block exceeds the 1e-12 bound
    flux, walk, block = _basic_flux_and_a_probed_kept_block()
    block[...] += 1e-11 * np.eye(len(block))
    with pytest.raises(ConsistencyError, match=re.escape("blockwise flux deviates from U*PU - P by")):
        selfcheck_against_operator(flux, walk)


def test_selfcheck_catches_a_nan_kept_block():
    # a NaN deviation compares false with the bound and must fail as well
    flux, walk, block = _basic_flux_and_a_probed_kept_block()
    block[0, 0] = np.nan
    with pytest.raises(ConsistencyError, match=re.escape("blockwise flux deviates from U*PU - P by nan")) as info:
        selfcheck_against_operator(flux, walk)
    assert info.type is ConsistencyError


def test_guard_band_aborts():
    # hand-plant a block eigenvalue inside the guard band around +1
    coin, proj = make_basic_example(seed=1)
    flux = build_walk_flux(coin, proj)
    row = flux.kept[0]
    # written in place: the first kept box row and its entry of the eigh
    # stack that the spectrum reads
    flux.box.flux[row] = np.diag([1.0 - 3e-8, 0.0])
    flux.eigh.eigenvalues[0], flux.eigh.eigenvectors[0] = np.linalg.eigh(flux.box.flux[row])
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
    small = flux.spectrum.phi_less
    assert abs(report.gap - (1.0 - small**2)) < 1e-12


def test_dense_window_index_oracle():
    coin, proj = make_basic_example(seed=17)
    flux = build_walk_flux(coin, proj)
    walk = build_walk(coin)
    report = analyze(flux)
    box = [(x,) for x in range(-2, 5)]
    dense = dense_window_index(walk, proj.apply, box, 2)
    assert dense == report.index


def test_dense_window_index_rejects_a_flux_that_is_not_hermitian():
    coin, proj = make_basic_example(seed=17)
    walk = build_walk(coin)
    box = [(x,) for x in range(-2, 5)]
    # iP is not self-adjoint: U*(iP)U - iP = i(U*PU - P) is skew-Hermitian
    with pytest.raises(ValidationError, match="not Hermitian"):
        dense_window_index(walk, lambda psi: proj.apply(psi).scaled(1j), box, 2)


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


@pytest.mark.parametrize(
    "window, message",
    [
        (((0,), (3,), (2,), (2,)), "window bounds must be grid aligned"),
        (((0, 0), (4, 4), (2, 3), (1, 2)), "band widths must be multiples of the label grid"),
        # per axis the band is checked before the bounds, and both before the count
        (((0, 0), (4, 1001), (1, 3), (1, 2)), "band widths must be multiples of the label grid"),
        (((0, 0), (1001, 1000), (2, 2), (2, 2)), "window bounds must be grid aligned"),
        (((0, 0), (511, 511), (1, 1), (1, 1)), f"the flux window holds {516**2} labels, more than {WINDOW_SITES}"),
        # a count far beyond memory is refused before anything is allocated
        (((0,) * 3, (10**6,) * 3, (1,) * 3, (1,) * 3), f"holds {(10**6 + 5) ** 3} labels"),
    ],
)
def test_a_window_off_its_grid_or_too_large_is_refused(window, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        FluxWindow(*window)


def _probed_geometry(model):
    if model == "basic_example":
        return build_walk_flux(*make_basic_example(seed=1)).geometry
    if model == "lead_network":
        rng = np.random.default_rng(5)
        network = random_network(rng, 2, 1, box=5)
        coin = synthesize_lead_coin(network, random_background(rng, 2, box=3))
        return build_walk_flux(coin, network_projection(network)).geometry
    from fluxwalk.cc import CRITICAL, cc_flux, crossover_path

    return cc_flux(SiteMap(2, background=CRITICAL), crossover_path()).geometry


@pytest.mark.parametrize("seed", [7, 11, 3])
@pytest.mark.parametrize("model", ["basic_example", "lead_network", "crossover"])
def test_probe_states_match_the_per_coordinate_draws(model, seed):
    # per state one integers call and one standard_normal call give the
    # sites, their order, the values and the generator state of one call per
    # coordinate and two per site, and of the three random_state calls and
    # the stack that built the probes before; twice in a row, as the shift
    # check draws them
    geometry = _probed_geometry(model)
    rng, per_site_rng, stacked_rng = (np.random.default_rng(seed) for _ in range(3))
    for _ in range(2):
        got = geometry.probe_states(rng)
        per_site = LatticeState.stack(
            [ref.random_state(per_site_rng, ref.probe_sites(geometry, per_site_rng), geometry.state_dim) for _ in range(3)]
        )
        for want in (per_site, ref.probe_states(geometry, stacked_rng)):
            assert got.site_array.tobytes() == want.site_array.tobytes()
            assert got.value_array.tobytes() == want.value_array.tobytes()
        assert got.value_array.flags.c_contiguous
        assert rng.bit_generator.state == per_site_rng.bit_generator.state == stacked_rng.bit_generator.state
