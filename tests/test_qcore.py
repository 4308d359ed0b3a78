import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim.qcore import (
    HADAMARD,
    DensityMatrix,
    QuantumChannel,
    StateVector,
    UnitaryOperator,
    apply_channel,
    apply_unitary,
    density,
    expectation,
    fidelity,
    maximally_mixed,
    partial_trace,
    pauli_string,
    permute_qubits,
    phase_aligned_distance,
    plus_ket,
    rotation_gate,
)
from conftest import (
    HAD,
    I2,
    IDENTITY,
    SX,
    SZ,
    brute_partial_trace,
    c4_vector,
    computational_ket,
    kron_chain,
    pauli_matrix,
    random_state_vector,
    random_unitary,
    states_equal,
    tensor,
)


# ---------------------------------------------------------------- validation

def test_state_vector_rejects_bad_norm():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(1, m)


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.array([[1.5, 0], [0, -0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(1, m)


def test_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitaryOperator(1, np.array([[1, 1], [0, 1]], dtype=complex))


def test_channel_rejects_non_trace_preserving():
    with pytest.raises(ValueError):
        QuantumChannel((0.5 * I2,))


@pytest.mark.parametrize("amplitudes", [[np.nan, 1.0], [np.inf, 0.0], [1.0, 1j * np.nan]])
def test_state_vector_rejects_non_finite(amplitudes):
    with pytest.raises(ValueError, match="finite"):
        StateVector(1, np.array(amplitudes, dtype=complex))


@pytest.mark.parametrize("entries", [
    [[np.nan, 0], [0, 1]],
    [[0.5, np.nan], [np.nan, 0.5]],
    [[0.5, np.inf], [np.inf, 0.5]],
    np.full((16, 16), np.nan),  # failed only inside the eigensolver
])
def test_density_matrix_rejects_non_finite(entries):
    m = np.array(entries, dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(int(np.log2(len(m))), m)


def test_register_size_cap():
    with pytest.raises(ValueError):
        StateVector(9, np.zeros(512))


# -------------------------------------------------------------------- tensor

def test_tensor_basis_composition():
    zero = computational_ket("0")
    assert np.allclose(tensor([zero, zero]).amplitudes, computational_ket("00").amplitudes)


def test_tensor_hadamard_expansion():
    hh = tensor([HADAMARD, HADAMARD])
    out = apply_unitary(computational_ket("00"), hh, (1, 2))
    assert np.allclose(out.amplitudes, np.full(4, 0.5))


def test_tensor_pauli_action_eigenvalue():
    zi = tensor([pauli_string("Z"), pauli_string("I")])
    assert expectation(computational_ket("10"), zi) == pytest.approx(-1.0)


def test_tensor_empty_rejected():
    with pytest.raises(ValueError):
        tensor([])


def test_tensor_mixed_kinds_rejected():
    with pytest.raises(ValueError):
        tensor([computational_ket("0"), HADAMARD])


# -------------------------------------------------------------- apply_unitary

def test_apply_unitary_hadamard_gives_plus():
    out = apply_unitary(computational_ket("0"), HADAMARD, (1,))
    assert states_equal(out, plus_ket())


def test_apply_unitary_outer_hadamards_matches_dense_oracle():
    # 16-dim direct matrix product oracle for H x I x I x H on the cluster.
    state = StateVector(4, c4_vector())
    full = kron_chain(HAD, I2, I2, HAD)
    expected = full @ c4_vector()
    out = apply_unitary(state, tensor([HADAMARD, HADAMARD]), (1, 4))
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_apply_unitary_identity_keeps_density():
    rho = density(StateVector(4, c4_vector()))
    out = apply_unitary(rho, IDENTITY, (3,))
    assert np.abs(out.entries - rho.entries).max() < 1e-12


def test_apply_unitary_rejects_duplicate_targets():
    with pytest.raises(ValueError):
        apply_unitary(computational_ket("00"), tensor([HADAMARD, HADAMARD]), (1, 1))


def test_apply_unitary_rejects_out_of_range_target():
    with pytest.raises(ValueError):
        apply_unitary(computational_ket("00"), HADAMARD, (3,))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_unitary_then_inverse_round_trips(seed):
    u = UnitaryOperator(2, random_unitary(2, seed))
    psi = StateVector(3, random_state_vector(3, seed + 1))
    back = apply_unitary(apply_unitary(psi, u, (1, 3)), u.dagger(), (1, 3))
    assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-10


# ------------------------------------------------------------ permute_qubits

def test_permute_swap():
    assert np.allclose(
        permute_qubits(computational_ket("01"), (2, 1)).amplitudes,
        computational_ket("10").amplitudes,
    )


def test_permute_identity():
    psi = StateVector(4, c4_vector())
    assert np.allclose(permute_qubits(psi, (1, 2, 3, 4)).amplitudes, psi.amplitudes)


def test_permute_cluster_matches_bit_oracle():
    # Entrywise index-bit permutation oracle for new order (4, 2, 1, 3).
    new_order = (4, 2, 1, 3)
    src = c4_vector()
    expected = np.zeros(16, dtype=complex)
    for idx in range(16):
        bits = [(idx >> (3 - i)) & 1 for i in range(4)]
        new_bits = [bits[q - 1] for q in new_order]
        new_idx = new_bits[0] * 8 + new_bits[1] * 4 + new_bits[2] * 2 + new_bits[3]
        expected[new_idx] = src[idx]
    out = permute_qubits(StateVector(4, src), new_order)
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute_qubits(computational_ket("00"), (1, 1))


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(list(range(1, 5))), seed=st.integers(0, 5_000))
def test_permute_then_inverse_is_identity(perm, seed):
    psi = StateVector(4, random_state_vector(4, seed))
    inverse = [perm.index(q) + 1 for q in range(1, 5)]
    back = permute_qubits(permute_qubits(psi, perm), inverse)
    assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-12


# -------------------------------------------------------------- partial_trace

def test_partial_trace_bell_marginal_is_mixed():
    bell = StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    out = partial_trace(density(bell), (1,))
    assert np.abs(out.entries - I2 / 2).max() < 1e-12


def test_partial_trace_product_state():
    out = partial_trace(density(computational_ket("00")), (2,))
    assert np.abs(out.entries - np.array([[1, 0], [0, 0]])).max() < 1e-12


def test_partial_trace_cluster_pair_13():
    # Tracing the spatial pair leaves the equal Phi+/Phi- mixture.
    rho = density(StateVector(4, c4_vector()))
    out = partial_trace(rho, (1, 3))
    phip = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    phim = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    expected = 0.5 * np.outer(phip, phip.conj()) + 0.5 * np.outer(phim, phim.conj())
    assert np.abs(out.entries - expected).max() < 1e-12
    # and against the brute-force contraction oracle
    assert np.abs(out.entries - brute_partial_trace(rho.entries, (1, 3), 4)).max() < 1e-12


def test_partial_trace_empty_keep_rejected():
    with pytest.raises(ValueError):
        partial_trace(maximally_mixed(2), ())


def test_partial_trace_order_independent_composition():
    rho = density(StateVector(4, random_state_vector(4, 42)))
    a = partial_trace(partial_trace(rho, (1, 2, 3)), (1, 2))
    b = partial_trace(rho, (1, 2))
    assert np.abs(a.entries - b.entries).max() < 1e-12


# --------------------------------------------------------------- expectation

def test_expectation_sigma_z_on_zero():
    assert expectation(density(computational_ket("0")), pauli_string("Z")) == pytest.approx(1.0)


def test_expectation_sigma_x_on_mixed():
    assert expectation(maximally_mixed(1), pauli_string("X")) == pytest.approx(0.0)


def test_expectation_zizi_on_cluster_matches_direct_oracle():
    rho = density(StateVector(4, c4_vector()))
    direct = float(np.real(c4_vector().conj() @ pauli_matrix("ZIZI") @ c4_vector()))
    assert direct == pytest.approx(1.0)
    assert expectation(rho, pauli_string("ZIZI")) == pytest.approx(direct, abs=1e-12)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(maximally_mixed(2), pauli_string("Z"))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000),
       labels=st.text(alphabet="IXYZ", min_size=3, max_size=3))
def test_pauli_string_expectation_bounded(seed, labels):
    rho = density(StateVector(3, random_state_vector(3, seed)))
    val = expectation(rho, pauli_string(labels))
    assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9


# -------------------------------------------------------------- rotation_gate

def test_rotation_zero_angle_is_identity():
    assert np.abs(rotation_gate("z", 0.0).entries - I2).max() < 1e-12


def test_rotation_full_turn_is_minus_identity():
    assert np.abs(rotation_gate("x", 2 * np.pi).entries + I2).max() < 1e-12


def test_rotation_quarter_z_matches_matrix_exponential_oracle():
    # Oracle: eigendecomposition-based exp(-i * angle * Z / 2).
    angle = np.pi / 2
    vals, vecs = np.linalg.eigh(SZ)
    expected = (vecs * np.exp(-1j * angle * vals / 2)) @ vecs.conj().T
    assert np.abs(rotation_gate("z", angle).entries - expected).max() < 1e-12


def test_rotation_rejects_bad_axis():
    with pytest.raises(ValueError):
        rotation_gate("y", 0.1)


@settings(max_examples=40, deadline=None)
@given(angle=st.floats(-20.0, 20.0), axis=st.sampled_from(["x", "z"]))
def test_rotation_gates_against_expm_oracle(angle, axis):
    import scipy.linalg

    sigma = {"x": SX, "z": SZ}[axis]
    expected = scipy.linalg.expm(-0.5j * angle * sigma)
    assert np.abs(rotation_gate(axis, angle).entries - expected).max() < 1e-9


# ------------------------------------------------------------------ fidelity

def test_fidelity_self_is_one():
    rho = density(StateVector(2, random_state_vector(2, 3)))
    assert fidelity(rho, rho) == pytest.approx(1.0)


def test_fidelity_orthogonal_states():
    assert fidelity(computational_ket("0"), computational_ket("1")) == pytest.approx(0.0)


def test_fidelity_pure_vs_mixed():
    assert fidelity(plus_ket(), maximally_mixed(1)) == pytest.approx(0.5)


def test_fidelity_mixed_mixed_against_sqrtm_oracle():
    import scipy.linalg

    rng = np.random.default_rng(5)
    def random_dm(seed):
        v = np.stack([random_state_vector(2, seed + i) for i in range(3)])
        w = rng.dirichlet(np.ones(3))
        return sum(p * np.outer(x, x.conj()) for p, x in zip(w, v))

    a, b = random_dm(10), random_dm(20)
    s = scipy.linalg.sqrtm(a)
    expected = float(np.real(np.trace(scipy.linalg.sqrtm(s @ b @ s))) ** 2)
    got = fidelity(DensityMatrix(2, a), DensityMatrix(2, b))
    assert got == pytest.approx(expected, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fidelity_symmetric_and_unitary_invariant(seed):
    a = StateVector(2, random_state_vector(2, seed))
    b = StateVector(2, random_state_vector(2, seed + 77))
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)
    u = UnitaryOperator(2, random_unitary(2, seed))
    ua, ub = apply_unitary(a, u, (1, 2)), apply_unitary(b, u, (1, 2))
    assert fidelity(ua, ub) == pytest.approx(fidelity(a, b), abs=1e-10)


def test_fidelity_one_iff_equal_up_to_phase():
    psi = StateVector(2, random_state_vector(2, 9))
    shifted = StateVector(2, np.exp(0.7j) * psi.amplitudes)
    assert fidelity(psi, shifted) == pytest.approx(1.0)
    assert states_equal(psi, shifted)
    assert phase_aligned_distance(psi, shifted) < 1e-12


# ------------------------------------------------------------- apply_channel

def _dephasing(retention):
    k0 = np.sqrt((1 + retention) / 2) * I2
    k1 = np.sqrt((1 - retention) / 2) * SZ
    return QuantumChannel((k0, k1))


def test_identity_channel_keeps_state():
    ch = QuantumChannel((I2,))
    rho = density(StateVector(2, random_state_vector(2, 12)))
    out = apply_channel(rho, ch, (2,))
    assert np.abs(out.entries - rho.entries).max() < 1e-12


def test_full_dephasing_gives_mixed():
    out = apply_channel(density(plus_ket()), _dephasing(0.0), (1,))
    assert np.abs(out.entries - I2 / 2).max() < 1e-12


@pytest.mark.parametrize("p", [0.1, 0.35, 0.8])
def test_partial_dephasing_off_diagonal_scaling(p):
    # Kraus-algebra oracle: dense sum K rho K^dag with coherence loss p.
    ch = _dephasing(1.0 - p)
    rho = density(plus_ket())
    expected = sum(k @ rho.entries @ k.conj().T for k in ch.kraus_operators)
    out = apply_channel(rho, ch, (1,))
    assert np.abs(out.entries - expected).max() < 1e-12
    assert out.entries[0, 1] == pytest.approx((1 - p) / 2)


def test_channel_norm_and_trace_preserved():
    psi = StateVector(3, random_state_vector(3, 77))
    u = UnitaryOperator(1, random_unitary(1, 8))
    out_state = apply_unitary(psi, u, (2,))
    assert np.linalg.norm(out_state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    out_rho = apply_channel(density(psi), _dephasing(0.4), (3,))
    assert np.trace(out_rho.entries).real == pytest.approx(1.0, abs=1e-12)
