"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from onewaysim.cli import main as cli_main
from onewaysim.cluster import (
    WitnessReport,
    cluster_statevector,
    prepare_hyper,
    witness_operator,
    witness_stabilizer_terms,
)
from onewaysim.measure import RandomSource, pauli_settings, sample_counts
from onewaysim.mbqc import (
    RotationRequest,
    branch_verify,
    rotation_target,
    run_rotation,
)
from onewaysim.noise import NoiseModel, calibrate, lifetime_curve
from onewaysim.qcore import (
    PAULI_X,
    PAULI_Z,
    apply_unitary,
    density,
    expectation,
    fidelity,
)
from onewaysim.timing import FAST_EOM_BUDGET, REFERENCE_BUDGET, cycle_time, max_steps
from onewaysim.tomo import reconstruct, reduced_fidelities


GRID_17 = [i * math.pi / 8 for i in range(17)]


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def calibrated():
    return calibrate()


def test_criterion_1_ideal_witness():
    with criterion(1, "ideal witness expectation -1 and six +1 stabilizer terms"):
        started = time.perf_counter()
        psi = cluster_statevector()
        assert abs(expectation(density(psi), witness_operator()) + 1.0) < 1e-10
        for term in witness_stabilizer_terms():
            assert abs(expectation(psi, term) - 1.0) < 1e-10
        assert time.perf_counter() - started < 1.0


def test_criterion_2_bound_arithmetic():
    with criterion(2, "witness expectation -0.60 maps to bound 0.800 exactly"):
        report = WitnessReport.from_expectation(-0.60)
        assert report.fidelity_lower_bound == 0.800


def test_criterion_3_branch_identity_grid():
    with criterion(3, "rotation identity holds per branch on the 17x17 angle grid"):
        started = time.perf_counter()
        worst = 0.0
        for alpha in GRID_17:
            for beta in GRID_17:
                ok, residuals = branch_verify(alpha, beta, tol=1e-9)
                assert ok, f"branch residuals {residuals} at ({alpha}, {beta})"
                worst = max(worst, max(residuals.values()))
        assert worst < 1e-9
        assert time.perf_counter() - started < 10.0


def test_criterion_4_feedforward_determinism():
    with criterion(4, "feedforward collapses branches; disabling it breaks (pi/2, pi/2)"):
        for alpha in GRID_17:
            for beta in GRID_17:
                result = run_rotation(RotationRequest(alpha=alpha, beta=beta))
                corrected = []
                for (s2, s3), branch in sorted(result.branch_outputs.items()):
                    state = branch.state
                    if s2:
                        state = apply_unitary(state, PAULI_Z, (1,))
                    if s3:
                        state = apply_unitary(state, PAULI_X, (1,))
                    corrected.append(state.entries)
                for other in corrected[1:]:
                    assert np.abs(corrected[0] - other).max() < 1e-9

        off = run_rotation(
            RotationRequest(alpha=math.pi / 2, beta=math.pi / 2, feedforward_enabled=False)
        )
        # branch-enumeration oracle puts the uncorrected mixture at exactly 1/2
        assert off.fidelity == pytest.approx(0.5, abs=1e-9)
        assert off.fidelity < 0.99


def test_criterion_5_quarter_rotation(calibrated):
    with criterion(5, "alpha=beta=pi/4 rotation: exact noiseless, in-band calibrated"):
        exact = run_rotation(RotationRequest(alpha=math.pi / 4, beta=math.pi / 4))
        target = rotation_target(math.pi / 4, math.pi / 4)
        assert exact.fidelity == pytest.approx(1.0, abs=1e-9)
        assert fidelity(exact.corrected_output, target) == pytest.approx(1.0, abs=1e-9)

        noisy = run_rotation(
            RotationRequest(
                alpha=math.pi / 4,
                beta=math.pi / 4,
                noise=NoiseModel(calibrated.prep, calibrated.noise, 2.27),
            )
        )
        assert 0.80 <= noisy.fidelity <= 1.0
        print(f"  calibrated pi/4 rotation fidelity {noisy.fidelity:.3f} "
              f"(reference measurement 0.93 +/- 0.02)")


def test_criterion_6_lifetime_calibration(calibrated):
    with criterion(6, "calibrated bound 0.80@2.27us and 0.50@14.27us, monotone decay"):
        started = time.perf_counter()
        pts = lifetime_curve([2.27, 14.27], calibrated.prep, calibrated.noise)
        assert pts[0].fidelity_bound == pytest.approx(0.80, abs=0.01)
        assert pts[1].fidelity_bound == pytest.approx(0.50, abs=0.01)
        assert calibrated.noise.osc_amp == 0.0
        grid = list(np.linspace(0.0, 25.0, 50))
        curve = lifetime_curve(grid, calibrated.prep, calibrated.noise)
        bounds = [p.fidelity_bound for p in curve]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
        assert time.perf_counter() - started < 30.0


def test_criterion_7_tomography_round_trip():
    with criterion(7, "tomography round trip at 1e5 shots x 81 settings"):
        started = time.perf_counter()
        rho = density(cluster_statevector())
        tables = sample_counts(rho, pauli_settings(4), 100_000, RandomSource(2027))
        report = reconstruct(tables)
        assert report.fidelity_vs_C4 >= 0.98
        eigs = np.linalg.eigvalsh(report.rho_hat.entries)
        assert eigs.min() >= -1e-9
        assert np.trace(report.rho_hat.entries).real == pytest.approx(1.0, abs=1e-10)
        ll = report.ll_history
        assert all(b >= a - 1e-9 for a, b in zip(ll, ll[1:]))
        assert time.perf_counter() - started < 300.0
        print(f"  reconstructed fidelity {report.fidelity_vs_C4:.4f} "
              f"in {report.iterations_used} iterations")


def test_criterion_8_reduced_state_ordering(calibrated):
    with criterion(8, "calibrated reduced fidelities: spatial above polarization"):
        pol, spa = reduced_fidelities(prepare_hyper(calibrated.prep))
        assert spa > pol
        # soft value check against the reference 95.5% / 88.5%
        assert spa == pytest.approx(0.955, abs=0.05)
        assert pol == pytest.approx(0.885, abs=0.05)
        print(f"  polarization {pol:.3f} (ref 0.885), spatial {spa:.3f} (ref 0.955)")


def test_criterion_9_timing():
    with criterion(9, "cycle 1.69us, 7 reference steps, fast-EOM projection >= 5e5"):
        assert cycle_time(REFERENCE_BUDGET) == pytest.approx(1.69, abs=1e-12)
        assert max_steps(REFERENCE_BUDGET) == 7
        assert max_steps(FAST_EOM_BUDGET) >= 5e5


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CLI outputs for every scenario at fixed seed"):
        scenarios = [
            ["witness", "--ideal"],
            ["lifetime", "--tau", "9.0", "--imbalance", "0.8", "--t-max", "10", "--t-step", "1"],
            ["tomography", "--shots", "150", "--seed", "12"],
            ["rotate", "--alpha", "pi/4", "--beta", "pi/4", "--shots", "300", "--seed", "8"],
            ["sweep", "--mode", "rx"],
            ["budget"],
        ]
        for i, args in enumerate(scenarios):
            first = tmp_path / f"a{i}"
            second = tmp_path / f"b{i}"
            assert cli_main(args + ["--out", str(first)]) == 0
            assert cli_main(args + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), f"scenario {args[0]}"
