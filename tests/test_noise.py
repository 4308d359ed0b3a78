import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim.cluster import IDEAL_PREP, PreparationParams, evaluate_witness, prepare_cluster
from onewaysim.noise import (
    DEFAULT_CALIBRATION_TARGETS,
    CalibrationError,
    NoiseModel,
    _bound_knots,
    _dephase,
    _solve_retention,
    StorageNoiseParams,
    apply_storage,
    calibrate,
    coherence_retention,
    lifetime_curve,
    noisy_cluster,
)
from onewaysim.qcore import DensityMatrix, apply_channel, density, maximally_mixed, partial_trace

from conftest import (
    bisect_retention,
    dephasing_channel,
    pair_dephasing_channel,
    storage_channel,
)


def test_params_validation():
    with pytest.raises(ValueError):
        StorageNoiseParams(tau=0.0)
    with pytest.raises(ValueError):
        StorageNoiseParams(tau=1.0, osc_amp=1.0)
    with pytest.raises(ValueError):
        StorageNoiseParams(tau=1.0, envelope="linear")


def test_zero_time_is_identity_channel():
    params = StorageNoiseParams(tau=10.0, osc_amp=0.3, osc_freq=1.0)
    rho = prepare_cluster(PreparationParams(imbalance=0.7))
    out = apply_storage(rho, 0.0, params)
    assert np.abs(out.entries - rho.entries).max() < 1e-12


def test_noisy_cluster_prepares_then_stores():
    prep, params = PreparationParams(imbalance=0.7), StorageNoiseParams(tau=10.0)
    rho = prepare_cluster(prep)
    assert np.array_equal(noisy_cluster(NoiseModel()).entries, prepare_cluster(IDEAL_PREP).entries)
    assert np.array_equal(noisy_cluster(NoiseModel(prep, storage_time=5.0)).entries, rho.entries)
    stored = noisy_cluster(NoiseModel(prep, params, 5.0))
    assert np.array_equal(stored.entries, apply_storage(rho, 5.0, params).entries)
    # At t = 0 the storage mask is exactly ones.
    assert np.array_equal(noisy_cluster(NoiseModel(prep, params)).entries, rho.entries)
    with pytest.raises(ValueError):
        NoiseModel(prep, params, storage_time=-1.0)


def test_long_time_limit_fully_dephases():
    params = StorageNoiseParams(tau=1.0)
    assert coherence_retention(200.0, params) == pytest.approx(0.0, abs=1e-12)
    out = apply_storage(density(plus_ket_4()), 200.0, params)
    # every coherence between differing memory-qubit bits must vanish
    t = out.entries.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    for b3 in (0, 1):
        for b4 in (0, 1):
            for c3 in (0, 1):
                for c4 in (0, 1):
                    if (b3, b4) != (c3, c4):
                        assert np.abs(t[:, :, b3, b4, :, :, c3, c4]).max() < 1e-12


def plus_ket_4():
    from onewaysim.qcore import StateVector

    return StateVector(4, np.full(16, 0.25, dtype=complex))


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        coherence_retention(-0.1, StorageNoiseParams(tau=1.0))


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_non_finite_time_rejected(t):
    with pytest.raises(ValueError, match="finite"):
        coherence_retention(t, StorageNoiseParams(tau=1.0))


def test_overflowing_modulation_phase_rejected():
    with pytest.raises(ValueError, match="finite"):
        coherence_retention(10.0, StorageNoiseParams(tau=5.0, osc_amp=0.5, osc_freq=1e308))


def test_overflowing_time_ratio_dephases_fully():
    assert coherence_retention(1e100, StorageNoiseParams(tau=1e-100)) == 0.0


def test_midpoint_retention_matches_kraus_oracle():
    # apply to |+><+| on each memory qubit and read the off-diagonal
    params = StorageNoiseParams(tau=3.0, osc_amp=0.2, osc_freq=0.7)
    t = 1.7
    g = coherence_retention(t, params)
    expected = math.exp(-((t / 3.0) ** 2)) * (1 - 0.2 * (1 - math.cos(0.7 * t)) / 2)
    assert g == pytest.approx(expected, abs=1e-12)
    ch = storage_channel(t, params)
    plus4 = density(plus_ket_4())
    out = apply_channel(plus4, ch, (3, 4))
    marg3 = partial_trace(out, (3,))
    assert marg3.entries[0, 1] == pytest.approx(g / 2, abs=1e-12)


def test_storage_channel_unital():
    out = apply_storage(maximally_mixed(4), 5.0, StorageNoiseParams(tau=4.0))
    assert np.abs(out.entries - maximally_mixed(4).entries).max() < 1e-10


def test_storage_leaves_photon_qubits_untouched():
    rho = prepare_cluster(PreparationParams(imbalance=0.6, spatial_white_noise=0.1))
    noisy = apply_storage(rho, 3.0, StorageNoiseParams(tau=2.0))
    assert np.abs(
        partial_trace(noisy, (1,)).entries - partial_trace(rho, (1,)).entries
    ).max() < 1e-12
    assert np.abs(
        partial_trace(noisy, (1, 2)).entries - partial_trace(rho, (1, 2)).entries
    ).max() < 1e-12


def test_polarization_marginal_only_sees_qubit3_dephasing():
    rho = prepare_cluster(PreparationParams(imbalance=0.6))
    t, params = 2.5, StorageNoiseParams(tau=2.0)
    noisy = apply_storage(rho, t, params)
    marg = partial_trace(rho, (1, 3))
    expected = apply_channel(marg, dephasing_channel(coherence_retention(t, params)), (2,))
    assert np.abs(partial_trace(noisy, (1, 3)).entries - expected.entries).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 16), retention=st.floats(0.0, 1.0))
def test_storage_mask_matches_kraus_oracle(seed, rank, retention):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(16, rank)) + 1j * rng.normal(size=(16, rank))
    rho = a @ a.conj().T
    rho = DensityMatrix(4, rho / np.trace(rho).real)
    expected = apply_channel(rho, pair_dephasing_channel(retention), (3, 4))
    assert np.abs(_dephase(rho.entries, retention) - expected.entries).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(0.0, 500.0),
    tau=st.floats(0.01, 100.0),
    c=st.floats(0.0, 0.999),
    w=st.floats(0.0, 50.0),
    envelope=st.sampled_from(["gaussian", "exponential"]),
)
def test_retention_always_in_unit_interval(t, tau, c, w, envelope):
    params = StorageNoiseParams(tau=tau, osc_amp=c, osc_freq=w, envelope=envelope)
    assert 0.0 <= coherence_retention(t, params) <= 1.0


# -------------------------------------------------------------- lifetime

def test_lifetime_ideal_at_zero():
    pts = lifetime_curve([0.0], IDEAL_PREP, StorageNoiseParams(tau=5.0))
    assert pts[0].fidelity_bound == pytest.approx(1.0, abs=1e-10)


def test_lifetime_unsorted_rejected():
    with pytest.raises(ValueError):
        lifetime_curve([1.0, 0.5], IDEAL_PREP, StorageNoiseParams(tau=5.0))


def test_lifetime_strictly_decreasing_without_oscillation():
    times = [0.5 * i for i in range(30)]
    pts = lifetime_curve(times, PreparationParams(imbalance=0.8), StorageNoiseParams(tau=6.0))
    bounds = [p.fidelity_bound for p in pts]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_lifetime_matches_manual_pipeline():
    prep = PreparationParams(imbalance=0.8, spatial_white_noise=0.04)
    params = StorageNoiseParams(tau=9.0)
    pts = lifetime_curve([0.0, 3.0, 7.5], prep, params)
    for p in pts:
        rho = apply_storage(prepare_cluster(prep), p.t, params)
        assert p.fidelity_bound == pytest.approx(
            evaluate_witness(rho).fidelity_lower_bound, abs=1e-12
        )


# -------------------------------------------------------------- calibration

def test_calibrate_hits_default_targets():
    result = calibrate()
    assert result.residual < 0.01
    pts = lifetime_curve(sorted(DEFAULT_CALIBRATION_TARGETS), result.prep, result.noise)
    assert pts[0].fidelity_bound == pytest.approx(0.80, abs=0.01)
    assert pts[1].fidelity_bound == pytest.approx(0.50, abs=0.01)


def test_calibrate_is_deterministic():
    a, b = calibrate(), calibrate()
    assert a.prep == b.prep
    assert a.noise == b.noise
    assert a.residual == b.residual


def test_calibrate_trivial_target_at_zero():
    result = calibrate({0.0: 1.0})
    assert result.residual < 1e-9
    assert result.prep == IDEAL_PREP
    assert result.noise.tau > 0


def test_calibrate_infeasible_rising_targets():
    with pytest.raises(CalibrationError) as err:
        calibrate({2.0: 0.6, 10.0: 0.9})
    assert err.value.residual == pytest.approx((0.9 - 0.6) / 2, abs=1e-12)


def test_calibrate_rejects_bound_above_one():
    with pytest.raises(CalibrationError):
        calibrate({2.0: 1.2, 10.0: 0.5})


def test_calibrated_reduced_pair_quality_ordering():
    result = calibrate()
    # spatial pair must end up cleaner than the polarization pair
    from onewaysim.tomo import reduced_fidelities
    from onewaysim.cluster import prepare_hyper

    pol, spa = reduced_fidelities(prepare_hyper(result.prep))
    assert spa > pol


# ------------------------------------------- closed-form retention and calibration

@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(0.3, 1.0),
    p_w=st.floats(0.0, 0.3),
    where=st.floats(0.0, 1.0),
)
def test_quadratic_retention_matches_bisection_oracle(r, p_w, where):
    rho0 = prepare_cluster(PreparationParams(imbalance=r, spatial_white_noise=p_w))
    knots = _bound_knots(rho0)
    target = knots[0] + where * (knots[2] - knots[0])
    assert _solve_retention(knots, target) == pytest.approx(
        bisect_retention(rho0, target), abs=1e-9)


# Parameters of the default targets and of the four corners (t1, f1, t2, f2)
# of the characterize benchmark's target ranges, as a 42-step bisection over
# Kraus-path witness evaluations found them.
CALIBRATION_REFERENCE = [
    (None, 0.44633252643552435, 0.06668454738292103, 20.821225716490936),
    ({2.0: 0.76, 12.0: 0.46}, 0.4008292169467717, 0.08068970603058585, 16.983519337568097),
    ({3.0: 0.84, 16.0: 0.54}, 0.5044843944145375, 0.051058242598051105, 23.868669607036253),
    ({2.0: 0.84, 16.0: 0.46}, 0.49659335422040973, 0.053031321958886934, 20.676989630263503),
    ({3.0: 0.76, 12.0: 0.54}, 0.4081585407554823, 0.07832757315995693, 20.1781187582707),
]


@pytest.mark.parametrize("targets,imbalance,white_noise,tau", CALIBRATION_REFERENCE)
def test_calibrate_matches_reference_parameters(targets, imbalance, white_noise, tau):
    result = calibrate(targets)
    assert result.prep.imbalance == pytest.approx(imbalance, rel=1e-9)
    assert result.prep.spatial_white_noise == pytest.approx(white_noise, rel=1e-9)
    assert result.noise.tau == pytest.approx(tau, rel=1e-9)
    assert result.residual < 1e-11


@pytest.mark.parametrize("edge", [0, 1])
def test_retention_target_on_range_edge(edge):
    rho0 = prepare_cluster(PreparationParams(imbalance=0.6, spatial_white_noise=0.1))
    knots = _bound_knots(rho0)
    target = knots[2 * edge]  # bound(0) or bound(1)
    g = _solve_retention(knots, target)
    # Strictly inside (0, 1), where the bisection oracle stops.
    assert g == bisect_retention(rho0, target)
    assert g == (1.0 - 2.0**-43 if edge else 2.0**-43)


def test_retention_out_of_range_is_none():
    rho0 = prepare_cluster(PreparationParams(imbalance=0.6, spatial_white_noise=0.1))
    knots = _bound_knots(rho0)
    b0, b1 = knots[0], knots[2]
    for target in (b0 - 1e-9, b1 + 1e-9, -0.6, 1.0):
        assert _solve_retention(knots, target) is None
        assert bisect_retention(rho0, target) is None
    # Within the 1e-12 slack the target resolves to the edge.
    assert _solve_retention(knots, b1 + 5e-13) == bisect_retention(rho0, b1 + 5e-13)


# CalibrationError residuals of unreachable targets, as the bisection found them.
@pytest.mark.parametrize("targets,residual", [
    ({2.0: 0.6, 10.0: 0.9}, 0.15000000000000002),
    ({2.0: 0.99, 10.0: 0.1}, 0.6778213593970924),
    ({2.0: 0.8, 10.0: -0.6}, 0.6037778931863038),
    ({2.0: 0.9, 4.0: 0.3}, 0.3560999999999335),
    ({5.0: -0.7}, 0.7),
    ({0.0: 0.95}, 0.04999999999999982),
    # Both bounds below the ideal cluster's at retention 0: the edge retention.
    ({2.0: -0.6, 10.0: -0.7}, 0.7),
])
def test_unreachable_target_residuals(targets, residual):
    with pytest.raises(CalibrationError) as err:
        calibrate(targets)
    assert err.value.residual == pytest.approx(residual, rel=1e-9)


def test_ideal_prep_fit_within_residual_limit_is_accepted():
    # Ideal preparation already decays too slowly between the targets, and
    # the tau meeting the first misses the second by 0.004, inside the 0.01 limit.
    result = calibrate({1.8: 0.42, 19.0: -0.004})
    assert result.prep == IDEAL_PREP
    assert result.residual == pytest.approx(0.004, rel=1e-9)


@pytest.mark.parametrize("f,tau", [
    (0.7, 8.37208643657058),
    # bound(0) and bound(1) of the ideal cluster: retention 2^-43 and 1 - 2^-43.
    (0.0, 0.9158472506719397),
    (1.0, 14829104.003788883),
])
def test_single_target_calibration(f, tau):
    result = calibrate({5.0: f})
    assert result.prep == IDEAL_PREP
    assert result.noise.tau == pytest.approx(tau, rel=1e-9)
    assert result.residual < 1e-12
