import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim.cluster import cluster_statevector
from onewaysim.measure import (
    CountTable,
    MeasurementBasis,
    MeasurementSetting,
    RandomSource,
    pauli_settings,
    sample_counts,
    setting_probabilities,
)
from onewaysim.mbqc import LIN3_ORDER
from onewaysim.qcore import (
    HADAMARD,
    StateVector,
    apply_unitary,
    density,
    maximally_mixed,
    permute_qubits,
    plus_ket,
)
from conftest import computational_ket, measure_qubit, projectors, random_state_vector, tensor


# ---------------------------------------------------------------- projectors

def test_equatorial_zero_gives_plus_minus():
    p0, p1 = projectors(MeasurementBasis.equatorial(0.0))
    plus = plus_ket().amplitudes
    assert np.abs(p0.entries - np.outer(plus, plus.conj())).max() < 1e-12
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    assert np.abs(p1.entries - np.outer(minus, minus.conj())).max() < 1e-12


def test_equatorial_half_pi_gives_sigma_y_eigenprojectors():
    p0, p1 = projectors(MeasurementBasis.equatorial(np.pi / 2))
    sy = np.array([[0, -1j], [1j, 0]])
    assert np.abs(sy @ p0.entries - p0.entries).max() < 1e-12
    assert np.abs(sy @ p1.entries + p1.entries).max() < 1e-12


def test_projectors_complete_and_orthogonal():
    p0, p1 = projectors(MeasurementBasis.equatorial(0.3))
    assert np.abs(p0.entries + p1.entries - np.eye(2)).max() < 1e-12
    assert np.abs(p0.entries @ p1.entries).max() < 1e-12


def test_basis_validation():
    with pytest.raises(ValueError):
        MeasurementBasis("diagonal")
    with pytest.raises(ValueError):
        MeasurementBasis("computational", angle=0.4)
    with pytest.raises(ValueError):
        MeasurementBasis.pauli("W")


def test_basis_token_round_trip():
    for basis in (
        MeasurementBasis.pauli("X"),
        MeasurementBasis.pauli("Y"),
        MeasurementBasis.pauli("Z"),
        MeasurementBasis.equatorial(0.37),
    ):
        assert MeasurementBasis.from_token(basis.to_token()) == basis


# --------------------------------------------------------------- measurement

def test_measure_plus_in_x_basis_is_deterministic():
    out = measure_qubit(plus_ket(), 1, MeasurementBasis.equatorial(0.0), RandomSource(3))
    assert out.outcome == 0
    assert out.probability == pytest.approx(1.0)


def test_measure_zero_in_computational():
    out = measure_qubit(computational_ket("0"), 1, MeasurementBasis.computational(), RandomSource(5))
    assert out.outcome == 0
    assert np.abs(out.post_state.amplitudes - computational_ket("0").amplitudes).max() < 1e-12


def test_measure_reduced_cluster_qubit_is_unbiased():
    # After the reorder + outer Hadamards, the first qubit is a coin flip;
    # oracle: direct projector trace.
    state = permute_qubits(cluster_statevector(), LIN3_ORDER)
    state = apply_unitary(state, tensor([HADAMARD, HADAMARD]), (1, 4))
    p0 = float(np.sum(np.abs(state.amplitudes.reshape(2, 8)[0]) ** 2))
    assert p0 == pytest.approx(0.5, abs=1e-12)
    out = measure_qubit(state, 1, MeasurementBasis.computational(), RandomSource(11))
    assert out.probability == pytest.approx(0.5, abs=1e-12)


def test_measure_deterministic_given_random_source():
    psi = StateVector(3, random_state_vector(3, 21))
    basis = MeasurementBasis.equatorial(1.1)
    first = measure_qubit(psi, 2, basis, RandomSource(9, 4))
    second = measure_qubit(psi, 2, basis, RandomSource(9, 4))
    assert first.outcome == second.outcome
    assert first.probability == second.probability


def test_measure_density_matrix_collapse():
    rho = maximally_mixed(2)
    out = measure_qubit(rho, 1, MeasurementBasis.computational(), RandomSource(2))
    assert out.probability == pytest.approx(0.5)
    assert np.trace(out.post_state.entries).real == pytest.approx(1.0, abs=1e-12)


def test_measure_qubit_range_validated():
    with pytest.raises(ValueError):
        measure_qubit(plus_ket(), 2, MeasurementBasis.computational(), RandomSource(0))


# ------------------------------------------------------------ born/sampling

def test_born_probabilities_sum_to_one_per_setting():
    rho = density(StateVector(4, random_state_vector(4, 33)))
    for setting in pauli_settings(4)[:12]:
        probs = setting_probabilities(rho, setting)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert (probs >= 0).all()


def test_forbidden_outcomes_have_exactly_zero_probability():
    # A zero-probability outcome takes no multinomial draw, so a residue such as
    # 1e-34 in place of 0.0 would change every sampled count table.
    rho = density(cluster_statevector())
    probs = setting_probabilities(rho, MeasurementSetting.from_pauli_labels("XXYY"))
    assert (probs == 0.0).sum() == 8
    assert probs[probs != 0.0] == pytest.approx(np.full(8, 1 / 8), abs=1e-12)
    for setting in pauli_settings(4):
        probs = setting_probabilities(rho, setting)
        assert (probs[probs < 1e-12] == 0.0).all(), setting.to_tokens()


def test_sample_counts_deterministic_state():
    tables = sample_counts(
        density(computational_ket("0000")),
        [MeasurementSetting.from_pauli_labels("ZZZZ")],
        1000,
        RandomSource(0),
    )
    assert tables[0].counts == {"0000": 1000}


def test_sample_counts_uniform_within_multinomial_bounds():
    # 5-sigma bound per cell for the maximally mixed state
    shots = 40_000
    tables = sample_counts(
        maximally_mixed(4),
        [MeasurementSetting.from_pauli_labels("XYZX")],
        shots,
        RandomSource(123),
    )
    p = 1.0 / 16.0
    sigma = math.sqrt(shots * p * (1 - p))
    for count in tables[0].counts.values():
        assert abs(count - shots * p) < 5 * sigma


def test_sample_counts_reproducible():
    rho = density(cluster_statevector())
    settings_list = pauli_settings(4)[:5]
    a = sample_counts(rho, settings_list, 500, RandomSource(7))
    b = sample_counts(rho, settings_list, 500, RandomSource(7))
    assert [t.counts for t in a] == [t.counts for t in b]


def test_sample_counts_per_setting_streams_are_stable():
    # table i depends on (seed, i) only, not on which settings accompany it
    rho = density(cluster_statevector())
    settings_list = pauli_settings(4)
    full = sample_counts(rho, settings_list[:3], 500, RandomSource(42))
    prefix = sample_counts(rho, settings_list[:2], 500, RandomSource(42))
    assert full[0].counts == prefix[0].counts
    assert full[1].counts == prefix[1].counts


def test_sequential_computational_measurement_statistics():
    # chi^2 against |amplitude|^2 at 1e5 shots; stochastic but seed-pinned.
    import scipy.stats

    psi = StateVector(3, random_state_vector(3, 77))
    shots = 100_000
    gen = RandomSource(2024).generator()
    counts = np.zeros(8, dtype=int)
    basis = MeasurementBasis.computational()
    for _ in range(shots):
        state = psi
        bits = 0
        for q in (1, 2, 3):
            out = measure_qubit(state, q, basis, gen)
            state = out.post_state
            bits = (bits << 1) | out.outcome
        counts[bits] += 1
    expected = shots * np.abs(psi.amplitudes) ** 2
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p_value = scipy.stats.chi2.sf(chi2, df=7)
    assert p_value > 0.001


# ------------------------------------------------------------- count tables

def test_count_table_requires_matching_total():
    setting = MeasurementSetting.from_pauli_labels("ZZ")
    with pytest.raises(ValueError):
        CountTable(setting, shots=10, counts={"00": 4, "11": 5})


def test_count_table_json_round_trip():
    setting = MeasurementSetting(
        (MeasurementBasis.pauli("X"), MeasurementBasis.equatorial(0.25))
    )
    table = CountTable(setting, shots=7, counts={"00": 3, "10": 4})
    parsed = CountTable.from_json(table.to_json())
    assert parsed.setting == setting
    assert parsed.shots == 7
    assert parsed.counts == {"00": 3, "10": 4}
    payload = json.loads(table.to_json())
    assert set(payload) == {"setting", "shots", "counts"}


def test_pauli_settings_enumeration():
    settings_list = pauli_settings(2)
    assert len(settings_list) == 9
    tokens = {"".join(s.to_tokens()) for s in settings_list}
    assert tokens == {a + b for a in "XYZ" for b in "XYZ"}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), stream=st.integers(0, 1000))
def test_random_source_reproducibility(seed, stream):
    a = RandomSource(seed, stream).generator().random(5)
    b = RandomSource(seed, stream).generator().random(5)
    assert (a == b).all()

