import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim import tomo
from onewaysim.cluster import (
    IDEAL_PREP,
    PreparationParams,
    cluster_statevector,
    evaluate_witness,
    prepare_cluster,
    prepare_hyper,
)
from onewaysim.measure import (
    CountTable,
    MeasurementBasis,
    MeasurementSetting,
    RandomSource,
    outcome_kets,
    pauli_settings,
    sample_counts,
)
from onewaysim.noise import apply_storage, calibrate
from onewaysim.qcore import (
    DensityMatrix,
    density,
    fidelity,
    partial_trace,
)
from onewaysim.tomo import (
    IncompleteSettingsError,
    reconstruct,
    reduced_fidelities,
    report_to_json_dict,
    rho_to_entry_list,
    undo_conditional_phase,
)
from conftest import (
    composed_undo_phase,
    computational_ket,
    design_matrix,
    kron_outcome_kets,
    loop_design_matrix,
    random_density_matrix,
)


@pytest.fixture(scope="module")
def calibrated():
    return calibrate()


def exact_tables_for_zero():
    """Infinite-shot (exact rounded) counts of |0> in the three Pauli bases."""
    x = MeasurementSetting.from_pauli_labels("X")
    y = MeasurementSetting.from_pauli_labels("Y")
    z = MeasurementSetting.from_pauli_labels("Z")
    return [
        CountTable(x, 1000, {"0": 500, "1": 500}),
        CountTable(y, 1000, {"0": 500, "1": 500}),
        CountTable(z, 1000, {"0": 1000}),
    ]


def test_single_qubit_noiseless_round_trip():
    report = reconstruct(exact_tables_for_zero())
    assert fidelity(report.rho_hat, computational_ket("0")) >= 1.0 - 1e-6
    assert report.fidelity_vs_C4 is None


def test_cluster_round_trip_statistical():
    rho = density(cluster_statevector())
    tables = sample_counts(rho, pauli_settings(4), 5000, RandomSource(11))
    report = reconstruct(tables)
    assert report.fidelity_vs_C4 >= 0.98
    assert report.converged


def test_rho_hat_physical_by_construction():
    rho = prepare_cluster(PreparationParams(imbalance=0.5, spatial_white_noise=0.3))
    tables = sample_counts(rho, pauli_settings(4), 300, RandomSource(5))
    report = reconstruct(tables)
    eigs = np.linalg.eigvalsh(report.rho_hat.entries)
    assert eigs.min() >= -1e-9
    assert np.trace(report.rho_hat.entries).real == pytest.approx(1.0, abs=1e-10)


def test_log_likelihood_monotone():
    rho = density(cluster_statevector())
    tables = sample_counts(rho, pauli_settings(4), 1000, RandomSource(3))
    report = reconstruct(tables)
    ll = report.ll_history
    assert all(b >= a - 1e-9 for a, b in zip(ll, ll[1:]))
    assert report.log_likelihood == ll[-1]


def test_reconstruction_reproducible():
    rho = prepare_cluster(PreparationParams(imbalance=0.8))
    tables = sample_counts(rho, pauli_settings(4), 400, RandomSource(9))
    a = reconstruct(tables)
    b = reconstruct(tables)
    assert np.abs(a.rho_hat.entries - b.rho_hat.entries).max() < 1e-8
    assert a.iterations_used == b.iterations_used


def test_incomplete_settings_rejected():
    tables = exact_tables_for_zero()[:2]  # X and Y only: rank 3 < 4
    with pytest.raises(IncompleteSettingsError):
        reconstruct(tables)
    # 80 of the 81 Pauli settings: only the string XXXX is missing, rank 255.
    tables = [CountTable(s, 1, {"0000": 1}) for s in pauli_settings(4)[1:]]
    with pytest.raises(IncompleteSettingsError, match="rank 255 < 256"):
        reconstruct(tables)


_BASES = st.sampled_from([MeasurementBasis.pauli(c) for c in "XYZ"]) | st.floats(
    -2 * np.pi, 2 * np.pi).map(MeasurementBasis.equatorial)


@st.composite
def _settings_lists(draw):
    n = draw(st.integers(1, 4))
    setting = st.lists(_BASES, min_size=n, max_size=n).map(MeasurementSetting)
    return draw(st.lists(setting, min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(setting_list=_settings_lists())
def test_design_matrix_equals_loop_oracle(setting_list):
    kets = np.concatenate([outcome_kets(s) for s in setting_list])
    assert np.array_equal(design_matrix(kets), loop_design_matrix(setting_list))


# Angles on a pi/8 grid: a degenerate list is then exactly degenerate, never a
# rounding residue away from the rank tolerance.
_GRID_BASES = st.sampled_from([MeasurementBasis.pauli(c) for c in "XYZ"]) | st.integers(
    -16, 16).map(lambda k: MeasurementBasis.equatorial(k * np.pi / 8))


@st.composite
def _rank_cases(draw):
    """(settings, n): a random subset of the 3^n Pauli settings, or a random
    list of equatorial and Pauli settings, on n = 1-4 qubits."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        paulis = draw(st.permutations(pauli_settings(n)))
        return paulis[:draw(st.integers(1, len(paulis)))], n
    setting = st.lists(_GRID_BASES, min_size=n, max_size=n).map(MeasurementSetting)
    return draw(st.lists(setting, min_size=1, max_size=3**n + 3)), n


def _block_rank(setting_list, n):
    try:
        tomo._check_informationally_complete(setting_list, n)
    except IncompleteSettingsError as exc:
        return int(re.search(r"rank (\d+) < ", str(exc)).group(1))
    return 4**n


@settings(max_examples=80, deadline=None)
@given(case=_rank_cases())
def test_block_rank_equals_design_matrix_rank(case):
    setting_list, n = case
    kets = np.concatenate([outcome_kets(s) for s in setting_list])
    assert _block_rank(setting_list, n) == np.linalg.matrix_rank(design_matrix(kets), tol=1e-10)


@settings(max_examples=60, deadline=None)
@given(setting_list=_settings_lists())
def test_outcome_kets_equal_kron_oracle(setting_list):
    for setting in setting_list:
        assert np.array_equal(outcome_kets(setting), kron_outcome_kets(setting))


@settings(max_examples=60, deadline=None)
@given(setting_list=_settings_lists(), seed=st.integers(0, 2**32 - 1))
def test_likelihood_kernel_matches_einsum(setting_list, seed):
    r = random_density_matrix(setting_list[0].n_qubits, seed)
    v = np.concatenate([outcome_kets(s) for s in setting_list])
    expected = np.real(np.einsum("ki,ij,kj->k", v.conj(), r, v))
    assert np.abs(tomo._born_probabilities(v, v.conj(), r) - expected).max() <= 1e-15


def test_outcome_kets_built_once_per_table(monkeypatch):
    rho = density(cluster_statevector())
    tables = sample_counts(rho, pauli_settings(4), 100, RandomSource(2))
    calls = []

    def counting(setting):
        calls.append(setting)
        return outcome_kets(setting)

    monkeypatch.setattr(tomo, "outcome_kets", counting)
    monkeypatch.setattr(tomo, "MAX_ITERATIONS", 2)
    reconstruct(tables)
    assert len(calls) == len(tables) == 81


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_undo_conditional_phase_matches_kron_oracle(seed):
    rho = DensityMatrix(4, random_density_matrix(4, seed))
    assert np.array_equal(undo_conditional_phase(rho).entries, composed_undo_phase(rho).entries)


def test_undo_conditional_phase_needs_four_qubits():
    with pytest.raises(ValueError):
        undo_conditional_phase(density(computational_ket("000")))


def test_noisy_state_fidelity_tracks_truth(calibrated):
    rho = apply_storage(prepare_cluster(calibrated.prep), 2.27, calibrated.noise)
    truth = fidelity(rho, cluster_statevector())
    tables = sample_counts(rho, pauli_settings(4), 4000, RandomSource(17))
    report = reconstruct(tables)
    assert report.fidelity_vs_C4 == pytest.approx(truth, abs=0.03)


def test_witness_bound_direction_on_estimate():
    rho = prepare_cluster(PreparationParams(imbalance=0.7, spatial_white_noise=0.1))
    tables = sample_counts(rho, pauli_settings(4), 800, RandomSource(29))
    report = reconstruct(tables)
    bound = evaluate_witness(report.rho_hat).fidelity_lower_bound
    assert bound <= fidelity(report.rho_hat, cluster_statevector()) + 1e-6


def test_data_processing_consistency():
    rho = prepare_cluster(PreparationParams(imbalance=0.9, spatial_white_noise=0.05))
    tables = sample_counts(rho, pauli_settings(4), 800, RandomSource(31))
    report = reconstruct(tables)
    pre = undo_conditional_phase(report.rho_hat)
    pol, spa = reduced_fidelities(pre)
    assert 0.0 <= pol <= 1.0 and 0.0 <= spa <= 1.0
    assert report.reduced_polarization_fidelity == pytest.approx(pol, abs=1e-12)
    assert report.reduced_spatial_fidelity == pytest.approx(spa, abs=1e-12)


def test_max_iterations_flagged(monkeypatch):
    rho = density(cluster_statevector())
    tables = sample_counts(rho, pauli_settings(4), 2000, RandomSource(1))
    monkeypatch.setattr(tomo, "MAX_ITERATIONS", 3)
    report = reconstruct(tables)
    assert report.iterations_used == 3
    assert not report.converged


# --------------------------------------------------------- reduced fidelity

def test_reduced_fidelities_ideal():
    pol, spa = reduced_fidelities(prepare_hyper(IDEAL_PREP))
    assert pol == pytest.approx(1.0, abs=1e-12)
    assert spa == pytest.approx(1.0, abs=1e-12)


def test_reduced_fidelities_imbalance_closed_form():
    r = 0.8
    pol, spa = reduced_fidelities(prepare_hyper(PreparationParams(imbalance=r)))
    closed_form = (1 + r) ** 2 / (2 * (1 + r * r))
    assert pol == pytest.approx(closed_form, abs=1e-12)
    assert spa == pytest.approx(1.0, abs=1e-12)
    # matrix oracle: explicit overlap of the pair marginal with the Bell ket
    marginal = partial_trace(prepare_hyper(PreparationParams(imbalance=r)), (1, 3))
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert pol == pytest.approx(float(np.real(bell.conj() @ marginal.entries @ bell)), abs=1e-12)


def test_reduced_fidelities_white_noise_closed_form():
    p_w = 0.2
    pol, spa = reduced_fidelities(prepare_hyper(PreparationParams(spatial_white_noise=p_w)))
    assert spa == pytest.approx(1.0 - 3.0 * p_w / 4.0, abs=1e-12)
    assert pol == pytest.approx(1.0, abs=1e-12)


def test_reduced_fidelities_calibrated_ordering(calibrated):
    pol, spa = reduced_fidelities(prepare_hyper(calibrated.prep))
    assert spa > pol


def test_reduced_fidelities_max_over_bell_signs():
    # theta = pi sends the spatial pair to the minus Bell state; the max keeps 1
    pol, spa = reduced_fidelities(prepare_hyper(PreparationParams(theta=np.pi)))
    assert spa == pytest.approx(1.0, abs=1e-12)


def test_cluster_wrong_size_rejected():
    with pytest.raises(ValueError):
        reduced_fidelities(density(computational_ket("00")))


# ---------------------------------------------------------------- exports

def test_report_json_payload():
    report = reconstruct(exact_tables_for_zero())
    payload = report_to_json_dict(report)
    assert payload["dimension"] == 2
    assert len(payload["rho_entries"]) == 4
    row, col, re, im = payload["rho_entries"][0]
    assert (row, col) == (0, 0)
    assert re == pytest.approx(1.0, abs=1e-5)


def test_entry_list_round_trip():
    rho = prepare_cluster(IDEAL_PREP)
    entries = rho_to_entry_list(rho)
    rebuilt = np.zeros((16, 16), dtype=complex)
    for row, col, re, im in entries:
        rebuilt[row, col] = re + 1j * im
    assert np.abs(rebuilt - rho.entries).max() < 1e-12
