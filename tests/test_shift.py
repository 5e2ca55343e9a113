import dataclasses
import re

import numpy as np
import pytest

from fluxwalk.cc import (
    FULL_REFLECTION,
    FULL_TRANSMISSION,
    ScatteringParams,
    cc_index,
    crossover_path,
    _deep_cell_ray,
)
from fluxwalk.fields import HalfSpace, Ray, SiteMap
from fluxwalk.flux import analyze
from fluxwalk.errors import ConsistencyError, ValidationError
from fluxwalk.lattice import LatticeState, direction_index, haar_unitary
import reference_state as ref
from reference_state import trace_norm_hermitian
from fluxwalk.shift import (
    build_perturbed,
    extract_kernels,
    verify_shift_structure,
)
from fluxwalk.walks import (
    LeadSpec,
    NetworkSpec,
    build_walk,
    build_walk_flux,
    network_projection,
    perturb_coin_window,
    random_background,
    synthesize_lead_coin,
    walk_index,
)


def basic_example(seed=1, n_cut=2):
    rng = np.random.default_rng(seed)
    window = {}
    for x in range(-n_cut - 4, n_cut):
        window[(x,)] = haar_unitary(rng, 2)
    for x in range(n_cut, n_cut + 5):
        window[(x,)] = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
    tail = np.diag(np.exp(1j * np.array([0.2, 1.4])))
    coin = SiteMap(
        1,
        window=window,
        halfspaces=[(HalfSpace(0, 1, n_cut), tail)],
        background=np.eye(2, dtype=complex),
    )
    from fluxwalk.walks import basic_halfspace_projection

    return coin, basic_halfspace_projection(n_cut)


def test_kernel_extraction_basic_example():
    coin, proj = basic_example()
    flux = build_walk_flux(build_walk(coin), proj)
    kd = extract_kernels(flux)
    assert len(kd.ker_plus) == 1 and len(kd.ker_minus) == 0
    assert kd.index == 1 and kd.multiplicity == 1 and kd.flipped
    # the kernel vector is localized at the single flux site
    assert sorted(kd.ker_plus[0].site_list()) == [(1,)]


def test_kernel_extraction_zero_flux():
    from fluxwalk.fields import AdaptedProjection
    from reference_state import identity_coin

    proj = AdaptedProjection.from_layers(1, background={0})
    flux = build_walk_flux(build_walk(identity_coin(1)), proj)
    kd = extract_kernels(flux)
    assert not kd.ker_plus and not kd.ker_minus and kd.multiplicity == 0


def test_zero_flux_perturbation_is_trivial():
    from fluxwalk.fields import AdaptedProjection
    from reference_state import identity_coin

    coin = identity_coin(1)
    proj = AdaptedProjection.from_layers(1, background={0})
    flux = build_walk_flux(build_walk(coin), proj)
    walk = build_walk(coin)
    kd = extract_kernels(flux)
    perturbed = build_perturbed(flux, kd)
    assert perturbed.finite_rank_rank() == 0
    assert perturbed.correction_minus_finite_rank_norm() == 0.0
    from fluxwalk.lattice import LatticeState
    from fluxwalk.shift import SiteFrame

    psi = LatticeState.basis((0,), 0, 2)
    frame = SiteFrame(perturbed, [psi], 2)
    assert (frame.apply(frame.state(psi)) - frame.state(walk.apply(psi))).norms().max() < 1e-15


def test_basic_example_shift_structure():
    coin, proj = basic_example(seed=2)
    flux = build_walk_flux(build_walk(coin), proj)
    kd = extract_kernels(flux)
    perturbed = build_perturbed(flux, kd)
    report = verify_shift_structure(perturbed, k_max=30)
    assert report.ok
    assert report.multiplicity == 1
    assert report.gram_defect <= 1e-10
    assert report.unitary_defect <= 1e-10
    assert report.remainder_norm <= 3 * report.small_flux_norm + 1e-12


def test_the_shift_check_takes_one_step_and_refuses_none():
    # k_max = 1, the shortest orbit the check accepts, runs one step each way
    coin, proj = basic_example(seed=2)
    flux = build_walk_flux(build_walk(coin), proj)
    perturbed = build_perturbed(flux, extract_kernels(flux))
    report = verify_shift_structure(perturbed, k_max=1)
    assert report.ok and report.steps == 1
    with pytest.raises(ValidationError, match=re.escape("k_max must be >= 1")):
        verify_shift_structure(perturbed, k_max=0)


def test_two_incoming_leads_multiplicity_two():
    rng = np.random.default_rng(12)
    g1 = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    g2 = LeadSpec("incoming", [(4, -2), (3, -2)], (1, 0))
    net = NetworkSpec(incoming=(g1, g2))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=4))
    proj = network_projection(net)
    report, flux = walk_index(coin, proj)
    assert report.index == -2
    kd = extract_kernels(flux)
    assert kd.multiplicity == 2 and not kd.flipped
    perturbed = build_perturbed(flux, kd)
    sreport = verify_shift_structure(perturbed, k_max=30)
    assert sreport.ok and sreport.multiplicity == 2


def test_shift_check_takes_no_single_inner_products(monkeypatch):
    # the orbit Gram, the no-return rows and the commutation projections are
    # products of stacked states (1 891 inner calls per orbit Gram before)
    rng = np.random.default_rng(12)
    g1 = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    g2 = LeadSpec("incoming", [(4, -2), (3, -2)], (1, 0))
    net = NetworkSpec(incoming=(g1, g2))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=4))
    flux = build_walk_flux(build_walk(coin), network_projection(net))
    kd = extract_kernels(flux)
    perturbed = build_perturbed(flux, kd)
    calls = []
    original = LatticeState.inner
    monkeypatch.setattr(LatticeState, "inner", lambda self, other: calls.append(1) or original(self, other))
    report = verify_shift_structure(perturbed, k_max=30)
    assert report.ok and report.multiplicity == 2
    assert not calls


def _first_polar_block(flux):
    """The position in ``flux.kept``, in the order the perturbed unitary
    builds its block maps, of the first block with eigenvalues strictly
    inside (-1, 1), and its label."""
    for i, (plus, minus) in enumerate(zip(flux.spectrum.plus, flux.spectrum.minus)):
        if plus.sum() + minus.sum() < len(flux.eigh.eigenvalues[i]):
            return i, flux.box.label(flux.kept[i])
    raise AssertionError("no block with eigenvalues inside (-1, 1)")


def test_polar_identity_failure_is_caught():
    # a kept flux block off by 1e-6 in one entry breaks W*W = 1 - flux^2
    coin, proj = basic_example(seed=2)
    flux = build_walk_flux(build_walk(coin), proj)
    kd = extract_kernels(flux)
    i, label = _first_polar_block(flux)
    flux.box.flux[flux.kept[i], 0, 0] += 1e-6
    message = f"block {label}: polar identity W*W = 1 - flux^2 failed"
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        build_perturbed(flux, kd)
    # the check reads tol.shift_check: a looser one lets the same defect pass
    flux.tol = dataclasses.replace(flux.tol, shift_check=1e-3)
    build_perturbed(flux, kd)


def test_polar_unitarity_failure_is_caught():
    # eigenvalues moved by 1e-3 inside (-1, 1) leave the identity intact but
    # normalize the polar factor wrongly, so it is no longer unitary
    coin, proj = basic_example(seed=2)
    flux = build_walk_flux(build_walk(coin), proj)
    kd = extract_kernels(flux)
    i, label = _first_polar_block(flux)
    evals = flux.eigh.eigenvalues[i]
    inside = ~(flux.spectrum.plus[i] | flux.spectrum.minus[i])
    evals[inside] += 1e-3
    with pytest.raises(ConsistencyError, match=re.escape(f"block {label}: polar factor is not unitary")):
        build_perturbed(flux, kd)


def test_paired_kernels_give_finite_rank_part():
    rng = np.random.default_rng(13)
    g = LeadSpec("incoming", [(0, 1), (0, 0)], (0, 1))
    r = LeadSpec("outgoing", [(3, 0)], (1, 0))
    net = NetworkSpec(incoming=(g,), outgoing=(r,))
    coin = synthesize_lead_coin(net, random_background(rng, 2, box=3))
    flux = build_walk_flux(build_walk(coin), network_projection(net))
    kd = extract_kernels(flux)
    assert kd.index == 0 and kd.multiplicity == 0
    assert len(kd.paired) == len(kd.small) == 1
    perturbed = build_perturbed(flux, kd)
    report = verify_shift_structure(perturbed, k_max=15)
    assert report.finite_rank == report.expected_rank == 1
    assert report.unitary_defect <= 1e-10


def test_remainder_bound_with_nonzero_small_flux():
    rng = np.random.default_rng(14)
    net = NetworkSpec(outgoing=(LeadSpec("outgoing", [(0, 0)], (0, 1)),))
    coin = perturb_coin_window(
        synthesize_lead_coin(net, random_background(rng, 2, box=3)), rng, 0.3
    )
    flux = build_walk_flux(build_walk(coin), network_projection(net))
    small = flux.spectrum.phi_less
    assert small > 0.05
    kd = extract_kernels(flux)
    perturbed = build_perturbed(flux, kd)
    report = verify_shift_structure(perturbed, k_max=15)
    assert report.ok
    assert 0 < report.remainder_norm <= 3 * small


def trace_class_cc_flux():
    """The index report and flux of a crossover network whose moduli decay
    along both rays and vanish far out, so that the correction to the
    unitary is trace class."""
    path = crossover_path()
    decay_window = {}
    for e in (ref.step(path, t) for t in range(-44, 0)):
        k = max(0, -e.t - 4)
        r_abs = min(0.4, 0.4 * 0.5**k)
        if e.t <= -40:
            r_abs = 0.0
        decay_window[e.cell] = ScatteringParams(1.0, r_abs, np.sqrt(1 - r_abs**2))
    for e in (ref.step(path, t) for t in range(0, 44)):
        k = max(0, e.t - 4)
        t_abs = min(0.9, 0.9 * 0.5**k)
        if e.t >= 40:
            t_abs = 0.0
        decay_window[e.cell] = ScatteringParams(1.0, np.sqrt(1 - t_abs**2), t_abs)
    r_base, r_in = _deep_cell_ray(path, list(range(-44, -35)))
    t_base, t_in = _deep_cell_ray(path, list(range(43, 34, -1)))
    field = SiteMap(
        2,
        window=decay_window,
        rays=[
            (Ray(r_base, tuple(-c for c in r_in)), [FULL_TRANSMISSION]),
            (Ray(t_base, tuple(-c for c in t_in)), [FULL_REFLECTION]),
        ],
        background=ScatteringParams(1.0, 0.4, np.sqrt(1 - 0.16)),
    )
    return cc_index(field, path)


def test_cc_shift_decomposition_with_trace_class_flux():
    # decaying moduli along both rays, exactly zero far out: the correction
    # to the unitary is trace class and the shift family is exact
    report, flux = trace_class_cc_flux()
    assert abs(report.index) == 1
    assert flux.tail_zero
    kd = extract_kernels(flux)
    perturbed = build_perturbed(flux, kd)
    sreport = verify_shift_structure(perturbed, k_max=25)
    assert sreport.ok
    assert sreport.multiplicity == 1
    # summed trace norms of the correction stay finite and small
    total = sum(trace_norm_hermitian(m) for m in perturbed._map_stack)
    assert np.isfinite(total)
    assert sreport.remainder_norm <= 3 * sreport.small_flux_norm + 1e-12
