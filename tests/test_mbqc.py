import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim.cluster import (
    IDEAL_PREP,
    PreparationParams,
    cluster_statevector,
    prepare_cluster,
)
from onewaysim.measure import RandomSource
from onewaysim.mbqc import (
    LIN3_ORDER,
    RotationRequest,
    _branches,
    _rotate_lin3,
    branch_verify,
    result_to_json_dict,
    rotation_target,
    run_rotation,
    single_shot_trace,
    sweep,
    sweep_to_csv_rows,
    to_lin3,
)
from onewaysim.noise import NoiseModel, StorageNoiseParams, apply_storage, calibrate, noisy_cluster
from onewaysim.qcore import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    StateVector,
    apply_unitary,
    density,
    fidelity,
    maximally_mixed,
    plus_ket,
    rotation_gate,
)
from conftest import (
    aligned_distance,
    composed_lin3,
    project,
    random_density_matrix,
    random_state_vector,
    sequential_shot_trace,
    states_equal,
)


@pytest.fixture(scope="module")
def calibrated_noise():
    result = calibrate()
    return NoiseModel(prep=result.prep, storage=result.noise, storage_time=2.27)


def lin3_reference_vector():
    """Hand-built linear-cluster amplitudes: CZ12 CZ23 |+++>."""
    v = np.ones(8, dtype=complex) / np.sqrt(8)
    for idx in range(8):
        b1, b2, b3 = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        if b1 and b2:
            v[idx] *= -1
        if b2 and b3:
            v[idx] *= -1
    return v


def equatorial_bra(angle, outcome):
    return np.array([1, ((-1) ** outcome) * np.exp(1j * angle)], dtype=complex).conj() / np.sqrt(2)


# ------------------------------------------------------------------- to_lin3

def test_to_lin3_postselect_probability_half():
    _, prob = to_lin3(prepare_cluster(IDEAL_PREP))
    assert prob == pytest.approx(0.5, abs=1e-12)


def test_to_lin3_pure_matches_linear_cluster():
    state, _ = to_lin3(cluster_statevector())
    assert isinstance(state, StateVector)
    assert aligned_distance(lin3_reference_vector(), state.amplitudes) < 1e-12


def test_to_lin3_maximally_mixed_input():
    state, prob = to_lin3(maximally_mixed(4))
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.abs(state.entries - np.eye(8) / 8).max() < 1e-12


def test_to_lin3_outcome_one_differs_by_local_z():
    # documented convention: the alternative postselection outcome equals the
    # standard lin3 state after a Z on its first qubit
    alt, alt_prob = to_lin3(cluster_statevector(), postselect_outcome=1)
    std, _ = to_lin3(cluster_statevector(), postselect_outcome=0)
    corrected = apply_unitary(std, PAULI_Z, (1,))
    assert states_equal(alt, corrected, tol=1e-12)
    assert alt_prob == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), outcome=st.sampled_from([0, 1]))
def test_to_lin3_matches_composed_oracle_on_random_states(seed, outcome):
    psi = StateVector(4, random_state_vector(4, seed))
    rho = DensityMatrix(4, random_density_matrix(4, seed))
    for state, values in ((psi, "amplitudes"), (rho, "entries")):
        reduced, prob = to_lin3(state, outcome)
        oracle, oracle_prob = composed_lin3(state, outcome)
        assert np.abs(getattr(reduced, values) - oracle).max() <= 1e-12
        assert abs(prob - oracle_prob) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-2 * np.pi, 2 * np.pi), imbalance=st.floats(0.01, 10.0),
       spatial_white_noise=st.floats(0.0, 1.0), outcome=st.sampled_from([0, 1]))
def test_to_lin3_matches_composed_oracle_on_clusters(theta, imbalance, spatial_white_noise,
                                                     outcome):
    rho = prepare_cluster(PreparationParams(theta, imbalance, spatial_white_noise))
    reduced, prob = to_lin3(rho, outcome)
    oracle, oracle_prob = composed_lin3(rho, outcome)
    assert np.abs(reduced.entries - oracle).max() <= 1e-12
    assert abs(prob - oracle_prob) <= 1e-12


def test_to_lin3_rejects_bad_outcome():
    with pytest.raises(ValueError):
        to_lin3(cluster_statevector(), postselect_outcome=2)


def test_to_lin3_zero_probability_rejected():
    # engineer a state whose reduced first qubit is |1> after the reduction:
    # permute/H make this the |+> component, so build it backwards
    from conftest import tensor
    from onewaysim.qcore import HADAMARD, permute_qubits

    target = StateVector(4, np.kron(np.array([1, 0]), np.ones(8) / np.sqrt(8)))
    undone = apply_unitary(target, tensor([HADAMARD, HADAMARD]), (1, 4))
    inverse = [LIN3_ORDER.index(q) + 1 for q in range(1, 5)]
    cluster_like = permute_qubits(undone, inverse)
    with pytest.raises(ValueError):
        to_lin3(cluster_like, postselect_outcome=1)


# ------------------------------------------------------------------ rotation

def test_zero_angles_all_branches_give_plus():
    result = run_rotation(RotationRequest(alpha=0.0, beta=0.0))
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)
    for (s2, s3), branch in result.branch_outputs.items():
        assert branch.probability == pytest.approx(0.25, abs=1e-12)
        corrected = branch.state
        if s2:
            corrected = apply_unitary(corrected, PAULI_Z, (1,))
        if s3:
            corrected = apply_unitary(corrected, PAULI_X, (1,))
        assert float(np.real(plus.conj() @ corrected.entries @ plus)) == pytest.approx(1.0, abs=1e-12)


def test_quarter_rotation_hits_target():
    result = run_rotation(RotationRequest(alpha=math.pi / 4, beta=math.pi / 4))
    target = rotation_target(math.pi / 4, math.pi / 4)
    assert result.fidelity == pytest.approx(1.0, abs=1e-9)
    assert np.abs(
        result.corrected_output.entries - density(target).entries
    ).max() < 1e-9


def test_branch_probabilities_quarter_each():
    for alpha, beta in ((0.3, 1.2), (2.0, 5.1), (math.pi, math.pi / 3)):
        result = run_rotation(RotationRequest(alpha=alpha, beta=beta))
        probs = [b.probability for b in result.branch_outputs.values()]
        assert len(probs) == 4
        assert all(p == pytest.approx(0.25, abs=1e-9) for p in probs)


def test_no_feedforward_half_pi_fidelity_matches_enumeration_oracle():
    # independent oracle: raw projector algebra on the hand-built lin3 state
    alpha = beta = math.pi / 2
    lin3 = lin3_reference_vector()
    target = rotation_target(alpha, beta).amplitudes
    mixture_fidelity = 0.0
    for s2 in (0, 1):
        v2 = equatorial_bra(alpha, s2) @ lin3.reshape(2, 4)
        for s3 in (0, 1):
            v3 = equatorial_bra(beta, s3) @ v2.reshape(2, 2)
            p = float(np.real(np.vdot(v3, v3)))
            out = v3 / math.sqrt(p)
            mixture_fidelity += p * abs(np.vdot(target, out)) ** 2
    assert mixture_fidelity == pytest.approx(0.5, abs=1e-12)

    result = run_rotation(
        RotationRequest(alpha=alpha, beta=beta, feedforward_enabled=False)
    )
    assert result.fidelity == pytest.approx(mixture_fidelity, abs=1e-9)
    assert result.fidelity < 0.99


def test_feedforward_determinism_across_branches():
    for alpha, beta in ((0.7, 2.9), (math.pi / 2, math.pi / 8), (4.4, 5.9)):
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


def test_sampled_mode_converges_to_exact():
    req_exact = RotationRequest(alpha=1.1, beta=0.4)
    req_sampled = RotationRequest(alpha=1.1, beta=0.4, shots=100_000)
    exact = run_rotation(req_exact)
    sampled = run_rotation(req_sampled, RandomSource(31))
    assert sampled.fidelity == pytest.approx(exact.fidelity, abs=0.01)
    total = sum(b.probability for b in sampled.branch_outputs.values())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sampled_mode_reproducible():
    req = RotationRequest(alpha=0.9, beta=2.2, shots=500)
    a = run_rotation(req, RandomSource(77))
    b = run_rotation(req, RandomSource(77))
    assert a.fidelity == b.fidelity
    assert [x.probability for x in a.branch_outputs.values()] == [
        x.probability for x in b.branch_outputs.values()
    ]


def test_periodicity_beta_two_pi():
    a = run_rotation(RotationRequest(alpha=math.pi / 2, beta=0.0))
    b = run_rotation(RotationRequest(alpha=math.pi / 2, beta=2 * math.pi))
    assert np.abs(a.corrected_output.entries - b.corrected_output.entries).max() < 1e-9


def test_noise_never_helps(calibrated_noise):
    grid = [(0.0, 0.0), (math.pi / 4, math.pi / 4), (math.pi / 2, 1.0), (3.0, 5.0)]
    for alpha, beta in grid:
        noiseless = run_rotation(RotationRequest(alpha=alpha, beta=beta))
        noisy = run_rotation(
            RotationRequest(alpha=alpha, beta=beta, noise=calibrated_noise)
        )
        assert noisy.fidelity <= noiseless.fidelity + 1e-9


def test_calibrated_quarter_rotation_in_band(calibrated_noise):
    result = run_rotation(
        RotationRequest(alpha=math.pi / 4, beta=math.pi / 4, noise=calibrated_noise)
    )
    assert 0.80 <= result.fidelity <= 1.0


@pytest.mark.parametrize("shots", [0, 1000])
def test_noisy_rotation_validates_only_returned_states(shots, monkeypatch):
    noise = NoiseModel(prep=PreparationParams(imbalance=0.446333, spatial_white_noise=0.066685),
                       storage=StorageNoiseParams(tau=20.8212), storage_time=7.5)
    request = RotationRequest(alpha=0.3, beta=1.1, shots=shots, noise=noise)
    calls, check = [], DensityMatrix.__post_init__  # each construction runs the full check
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        lambda self: (calls.append(self.n_qubits), check(self)))
    run_rotation(request, RandomSource(5))  # prepares the cluster, once per process
    calls.clear()
    result = run_rotation(request, RandomSource(5))
    # the branch states and the corrected output, nothing in between
    assert calls == [1] * (len(result.branch_outputs) + 1), calls
    assert all(isinstance(b.state, DensityMatrix) for b in result.branch_outputs.values())


_ROTATION_MODELS = {
    "ideal": NoiseModel(),
    "explicit": NoiseModel(PreparationParams(theta=0.2, imbalance=0.6, spatial_white_noise=0.1)),
    "stored": NoiseModel(PreparationParams(imbalance=0.446333, spatial_white_noise=0.066685),
                         StorageNoiseParams(tau=20.8212), storage_time=7.5),
}


@pytest.mark.parametrize("model", _ROTATION_MODELS.values(), ids=_ROTATION_MODELS.keys())
@pytest.mark.parametrize("feedforward", [True, False])
@pytest.mark.parametrize("shots", [0, 1, 1000])
def test_rotation_equals_the_validated_lin3_path(model, feedforward, shots):
    req = RotationRequest(alpha=0.7, beta=-1.3, feedforward_enabled=feedforward, shots=shots,
                          noise=model)
    stored = prepare_cluster(model.prep)
    if model.storage is not None:
        stored = apply_storage(stored, model.storage_time, model.storage)
    assert np.array_equal(stored.entries, noisy_cluster(model).entries)
    expected = _rotate_lin3(to_lin3(stored)[0].entries, req, RandomSource(4))
    result = run_rotation(req, RandomSource(4))
    assert result.branch_outputs.keys() == expected.branch_outputs.keys()
    for key, branch in result.branch_outputs.items():
        assert branch.probability == expected.branch_outputs[key].probability
        assert np.array_equal(branch.state.entries, expected.branch_outputs[key].state.entries)
    assert np.array_equal(result.corrected_output.entries, expected.corrected_output.entries)
    assert np.array_equal(result.target.amplitudes,
                          rotation_gate("x", 1.3).entries
                          @ (rotation_gate("z", -0.7).entries @ plus_ket().amplitudes))
    assert result.fidelity == expected.fidelity


def test_rotation_request_validation():
    with pytest.raises(ValueError):
        RotationRequest(alpha=float("nan"), beta=0.0)
    with pytest.raises(ValueError):
        RotationRequest(alpha=0.0, beta=0.0, shots=-1)
    with pytest.raises(ValueError):
        NoiseModel(prep=IDEAL_PREP, storage=StorageNoiseParams(tau=1.0), storage_time=-1.0)


# -------------------------------------------------------------- branch oracle

def test_branch_verify_zero_angles():
    ok, residuals = branch_verify(0.0, 0.0)
    assert ok
    assert set(residuals) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_branch_verify_half_pi_alpha():
    ok, residuals = branch_verify(math.pi / 2, 0.0)
    assert ok
    assert max(residuals.values()) < 1e-9


def test_branch_verify_dense_grid():
    worst = 0.0
    for alpha in np.linspace(0.0, 2 * math.pi, 9):
        for beta in np.linspace(0.0, 2 * math.pi, 9):
            ok, residuals = branch_verify(float(alpha), float(beta))
            assert ok
            worst = max(worst, max(residuals.values()))
    assert worst < 1e-9


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), matrix=st.booleans(), feedforward=st.booleans(),
       alpha=st.floats(0.0, 2 * math.pi), beta=st.floats(0.0, 2 * math.pi))
def test_branches_match_sequential_projections(seed, matrix, feedforward, alpha, beta):
    # Oracle: one any-qubit projection per outcome, qubit 1 then qubit 2 of
    # the normalised result; the batched stages must round the same way.
    values = random_density_matrix(3, seed) if matrix else random_state_vector(3, seed)
    p2, p3, out = _branches(values, alpha, beta, feedforward)
    for s2 in (0, 1):
        mid, want_p2 = project(values, 3, 1, equatorial_bra(alpha, s2))
        assert p2[s2] == want_p2
        mid = mid / (want_p2 if matrix else math.sqrt(want_p2))
        beta_s2 = ((-1) ** s2) * beta if feedforward else beta
        for s3 in (0, 1):
            want, want_p3 = project(mid, 2, 1, equatorial_bra(beta_s2, s3))
            assert np.array_equal(out[s2, s3], want)
            assert p3[s2, s3] == want_p3


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.0, 2 * math.pi), beta=st.floats(0.0, 2 * math.pi))
def test_feedforward_collapses_branches_everywhere(alpha, beta):
    result = run_rotation(RotationRequest(alpha=alpha, beta=beta))
    assert result.fidelity == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------------- tracing

def test_single_shot_trace_follows_feedforward_rule():
    req = RotationRequest(alpha=1.3, beta=0.8)
    for seed in range(12):
        trace = single_shot_trace(req, RandomSource(seed))
        expected_angle = ((-1) ** trace.s2) * req.beta
        assert trace.basis_angle_q3 == pytest.approx(expected_angle)
        assert trace.z_power == trace.s2
        assert trace.x_power == trace.s3


def test_single_shot_trace_without_feedforward():
    req = RotationRequest(alpha=1.3, beta=0.8, feedforward_enabled=False)
    trace = single_shot_trace(req, RandomSource(3))
    assert trace.basis_angle_q3 == pytest.approx(req.beta)
    assert trace.z_power == 0 and trace.x_power == 0


@pytest.mark.parametrize("req", [
    RotationRequest(alpha=1.3, beta=0.8),
    RotationRequest(alpha=1.3, beta=0.8, feedforward_enabled=False),
    RotationRequest(alpha=0.7, beta=1.9,
                    noise=NoiseModel(PreparationParams(imbalance=1e-3))),
    RotationRequest(alpha=2.1, beta=-0.6, noise=NoiseModel(
        PreparationParams(theta=0.9, imbalance=1e3, spatial_white_noise=0.1),
        StorageNoiseParams(tau=20.0), storage_time=7.5)),
    RotationRequest(alpha=0.4, beta=2.8, feedforward_enabled=False, noise=NoiseModel(
        PreparationParams(imbalance=0.3), StorageNoiseParams(tau=5.0), storage_time=3.0)),
], ids=["ideal", "ideal-no-ff", "imbalance-1e-3", "imbalance-1e3-storage",
        "storage-no-ff"])
def test_single_shot_trace_matches_sequential_collapse(req):
    # Oracle: two Born collapses of the whole register (measure_qubit), one stream.
    for seed in range(150):
        assert single_shot_trace(req, RandomSource(seed, 2)) == \
            sequential_shot_trace(req, RandomSource(seed, 2))
    ours, oracle = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(150):
        assert single_shot_trace(req, ours) == sequential_shot_trace(req, oracle)


@pytest.mark.parametrize("feedforward", [True, False])
def test_single_shot_frequencies_match_exact_branches(feedforward):
    # An imbalanced source makes the branch weights unequal (about 0.43 and 0.07).
    prep = PreparationParams(theta=0.9, imbalance=0.3, spatial_white_noise=0.1)
    req = RotationRequest(alpha=0.7, beta=1.9, feedforward_enabled=feedforward,
                          noise=NoiseModel(prep))
    shots = 2000
    counts = {}
    for seed in range(shots):
        trace = single_shot_trace(req, RandomSource(seed))
        counts[(trace.s2, trace.s3)] = counts.get((trace.s2, trace.s3), 0) + 1
    for branch, out in run_rotation(req).branch_outputs.items():
        p = out.probability
        # Multinomial marginal: within 4.5 standard deviations of shots * p.
        assert abs(counts.get(branch, 0) - shots * p) <= 4.5 * math.sqrt(shots * p * (1 - p))


# -------------------------------------------------------------------- sweeps

def test_noiseless_rx_sweep_all_ones():
    points = sweep("rx", RotationRequest(alpha=math.pi / 2, beta=0.0))
    assert len(points) == 17
    assert all(p.fidelity == pytest.approx(1.0, abs=1e-9) for p in points)
    assert all(p.mode == "rx" for p in points)
    assert points[-1].angle_rad == pytest.approx(2 * math.pi)


def test_sweep_tags_the_default_model_noiseless():
    assert sweep("rz", RotationRequest(alpha=0.0, beta=0.0))[0].noise_tag == "noiseless"
    assert sweep("rz", RotationRequest(alpha=0.0, beta=0.0, noise=NoiseModel(IDEAL_PREP))
                 )[0].noise_tag == "noiseless"
    stored = NoiseModel(storage=StorageNoiseParams(tau=20.0))
    assert sweep("rz", RotationRequest(alpha=0.0, beta=0.0, noise=stored))[0].noise_tag == "noisy"


@pytest.mark.parametrize("feedforward", [True, False])
def test_zero_probability_branch_dropped_without_warning(feedforward):
    import warnings

    # At alpha = 0 outcome s2 = 1 has probability r^2: exactly 0 once r^2
    # underflows (1e-170), subnormal but positive for 1e-160 and 1e-155.
    for imbalance in (1e-170, 1e-160, 1e-155):
        for shots in (0, 100):
            req = RotationRequest(alpha=0.0, beta=1.9, feedforward_enabled=feedforward,
                                  shots=shots,
                                  noise=NoiseModel(PreparationParams(imbalance=imbalance)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = run_rotation(req, RandomSource(1))
                traces = [single_shot_trace(req, RandomSource(seed)) for seed in range(20)]
            assert set(result.branch_outputs) == {(0, 0), (0, 1)}
            assert all(t.s2 == 0 for t in traces)
            total = sum(b.probability for b in result.branch_outputs.values())
            assert total == pytest.approx(1.0)


def test_calibrated_sweep_ordering(calibrated_noise):
    template = RotationRequest(alpha=0.0, beta=0.0, noise=calibrated_noise)
    rx = sweep("rx", template, noise_tag="calibrated")
    rz = sweep("rz", template, noise_tag="calibrated")
    mean_rx = sum(p.fidelity for p in rx) / len(rx)
    mean_rz = sum(p.fidelity for p in rz) / len(rz)
    assert mean_rz > mean_rx


def test_sampled_sweep_draws_each_point_from_its_own_stream():
    points = sweep("rx", RotationRequest(alpha=0.0, beta=0.0, shots=100), rng=RandomSource(3))
    freqs = [p.result.branch_outputs[(0, 0)].probability for p in points]
    assert len(set(freqs)) > 1


@pytest.mark.parametrize("mode", ["rx", "rz"])
def test_sweep_points_equal_single_rotations(mode):
    noise = NoiseModel(PreparationParams(imbalance=0.5, spatial_white_noise=0.07),
                       StorageNoiseParams(tau=20.0), storage_time=4.0)
    template = RotationRequest(alpha=0.0, beta=0.0, shots=50, noise=noise,
                               feedforward_enabled=mode == "rx")
    rng = RandomSource(11)
    for i, p in enumerate(sweep(mode, template, rng=rng)):
        alpha, beta = (math.pi / 2, p.angle_rad) if mode == "rx" else (p.angle_rad, 0.0)
        req = RotationRequest(alpha=alpha, beta=beta, shots=50, noise=noise,
                              feedforward_enabled=mode == "rx")
        single = run_rotation(req, rng.stream(i))
        assert p.fidelity == single.fidelity
        assert np.array_equal(p.result.corrected_output.entries,
                              single.corrected_output.entries)


def test_sweep_rejects_unknown_mode():
    with pytest.raises(ValueError):
        sweep("ry", RotationRequest(alpha=0.0, beta=0.0))


def test_sweep_csv_rows_schema():
    points = sweep("rz", RotationRequest(alpha=0.0, beta=0.0))
    header, rows = sweep_to_csv_rows(points)
    assert header == ["angle_rad", "fidelity", "mode", "noise_tag"]
    assert len(rows) == 17
    header_b, rows_b = sweep_to_csv_rows(points, per_branch=True)
    assert header_b[-2:] == ["branch_s2", "branch_s3"]
    assert len(rows_b) == 17 * 5  # summary row plus four branch rows per angle


# ------------------------------------------------------------------- exports

def test_result_json_branch_keys():
    result = run_rotation(RotationRequest(alpha=0.4, beta=1.0))
    payload = result_to_json_dict(result)
    assert set(payload["branches"]) == {"00", "01", "10", "11"}
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert len(payload["target"]) == 2
    for entry in payload["corrected_output"]:
        assert len(entry) == 4
