import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim.cluster import (
    CONDITIONAL_PHASE,
    IDEAL_PREP,
    PreparationParams,
    WitnessReport,
    cluster_statevector,
    evaluate_witness,
    prepare_cluster,
    prepare_hyper,
    witness_operator,
    witness_stabilizer_terms,
    WITNESS_PAULI_STRINGS,
    hyper_statevector,
)
from onewaysim.qcore import (
    apply_channel,
    apply_unitary,
    density,
    expectation,
    fidelity,
    maximally_mixed,
    permute_qubits,
)
from conftest import (
    c4_vector,
    composed_cluster,
    kron_chain,
    pair_dephasing_channel,
    pauli_matrix,
)


def bell(theta=0.0):
    return np.array([1, 0, 0, np.exp(1j * theta)], dtype=complex) / np.sqrt(2)


def interleave_13_24(pol4, spa4):
    """Independent oracle: product of pair states placed on (1,3) and (2,4)."""
    out = np.zeros(16, dtype=complex)
    for a in range(4):
        for b in range(4):
            b1, b3 = a >> 1, a & 1
            b2, b4 = b >> 1, b & 1
            out[b1 * 8 + b2 * 4 + b3 * 2 + b4] = pol4[a] * spa4[b]
    return out


# ------------------------------------------------------------------- params

def test_params_reject_nonpositive_imbalance():
    with pytest.raises(ValueError):
        PreparationParams(imbalance=0.0)


@pytest.mark.parametrize("imbalance", [1e200, 1e300, float("inf"), float("nan")])
def test_params_reject_imbalance_whose_square_overflows(imbalance):
    with pytest.raises(ValueError):
        PreparationParams(imbalance=imbalance)


def test_params_accept_imbalance_whose_square_underflows():
    rho = prepare_cluster(PreparationParams(imbalance=1e-170))
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


def test_params_reject_bad_white_noise():
    with pytest.raises(ValueError):
        PreparationParams(spatial_white_noise=1.5)


# ------------------------------------------------------------ prepare_hyper

def test_prepare_hyper_ideal_is_double_bell():
    expected = interleave_13_24(bell(), bell())
    rho = prepare_hyper(IDEAL_PREP)
    assert np.abs(rho.entries - np.outer(expected, expected.conj())).max() < 1e-12


def test_prepare_hyper_theta_pi_flips_spatial_bell():
    expected = interleave_13_24(bell(), bell(np.pi))
    rho = prepare_hyper(PreparationParams(theta=np.pi))
    assert np.abs(rho.entries - np.outer(expected, expected.conj())).max() < 1e-12


def test_prepare_hyper_full_white_noise():
    rho = prepare_hyper(PreparationParams(spatial_white_noise=1.0))
    pol = np.outer(bell(), bell().conj())
    expected = np.zeros((16, 16), dtype=complex)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                ia = (a >> 1) * 8 + (c >> 1) * 4 + (a & 1) * 2 + (c & 1)
                ib = (b >> 1) * 8 + (c >> 1) * 4 + (b & 1) * 2 + (c & 1)
                expected[ia, ib] += pol[a, b] / 4.0
    assert np.abs(rho.entries - expected).max() < 1e-12


# ---------------------------------------------------------- prepare_cluster

def test_prepare_cluster_ideal_amplitudes():
    rho = prepare_cluster(IDEAL_PREP)
    assert np.abs(rho.entries - np.outer(c4_vector(), c4_vector().conj())).max() < 1e-12


def test_cluster_statevector_matches_handwritten_kets():
    assert np.abs(cluster_statevector().amplitudes - c4_vector()).max() < 1e-12


_PREP_PARAMS = dict(
    theta=st.floats(-2 * np.pi, 2 * np.pi),
    imbalance=st.floats(0.01, 10.0),
    spatial_white_noise=st.floats(0.0, 1.0),
)


@settings(max_examples=40, deadline=None)
@given(**_PREP_PARAMS)
def test_prepare_cluster_matches_composed_oracle(theta, imbalance, spatial_white_noise):
    params = PreparationParams(theta, imbalance, spatial_white_noise)
    oracle = composed_cluster(params)
    assert np.abs(prepare_cluster(params).entries - oracle.entries).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(theta=_PREP_PARAMS["theta"], imbalance=_PREP_PARAMS["imbalance"])
def test_cluster_statevector_matches_composed_oracle(theta, imbalance):
    oracle = apply_unitary(hyper_statevector(theta, imbalance), CONDITIONAL_PHASE, (1, 2))
    assert np.abs(cluster_statevector(theta, imbalance).amplitudes
                  - oracle.amplitudes).max() <= 1e-12


def test_prepare_cluster_is_cached_per_params():
    params = PreparationParams(theta=0.3, imbalance=0.7, spatial_white_noise=0.1)
    rho = prepare_cluster(params)
    assert prepare_cluster(PreparationParams(theta=0.3, imbalance=0.7,
                                             spatial_white_noise=0.1)) is rho
    assert not rho.entries.flags.writeable


@settings(max_examples=40, deadline=None)
@given(imbalance=_PREP_PARAMS["imbalance"], theta_sign=st.booleans(), noise_sign=st.booleans())
def test_negative_zero_params_prepare_the_same_bits(imbalance, theta_sign, noise_sign):
    # -0.0 and 0.0 compare and hash equal, so the cache hands one cluster to both.
    prepare = prepare_cluster.__wrapped__
    zero = prepare(PreparationParams(imbalance=imbalance)).entries
    signed = prepare(PreparationParams(theta=-0.0 if theta_sign else 0.0, imbalance=imbalance,
                                       spatial_white_noise=-0.0 if noise_sign else 0.0)).entries
    assert np.array_equal(signed.view(np.uint64), zero.view(np.uint64))


def test_prepare_cluster_ideal_fidelity_one():
    assert fidelity(prepare_cluster(IDEAL_PREP), cluster_statevector()) == pytest.approx(1.0)


def test_prepare_cluster_imperfect_fidelity_below_one():
    # Direct overlap oracle <C4| rho |C4>.
    rho = prepare_cluster(PreparationParams(imbalance=0.8, spatial_white_noise=0.05))
    direct = float(np.real(c4_vector().conj() @ rho.entries @ c4_vector()))
    assert fidelity(rho, cluster_statevector()) == pytest.approx(direct, abs=1e-12)
    assert direct < 1.0 - 1e-4


# ------------------------------------------------------------------ witness

def test_witness_matches_pauli_sum_oracle():
    expected = 0.5 * (4 * np.eye(16) - sum(pauli_matrix(s) for s in WITNESS_PAULI_STRINGS))
    assert np.abs(witness_operator().entries - expected).max() < 1e-12


def test_each_witness_term_stabilizes_cluster():
    # Guard: every printed product must have +1 expectation on the cluster.
    for term in witness_stabilizer_terms():
        assert expectation(cluster_statevector(), term) == pytest.approx(1.0, abs=1e-10)


def test_witness_on_ideal_cluster_is_minus_one():
    assert expectation(density(cluster_statevector()), witness_operator()) == pytest.approx(
        -1.0, abs=1e-10
    )


def test_witness_on_all_zeros():
    # Only the two Z-only products survive: (4 - 2) / 2 = +1.
    from conftest import computational_ket

    assert expectation(computational_ket("0000"), witness_operator()) == pytest.approx(1.0)


def test_witness_on_maximally_mixed():
    # Every Pauli product is traceless, so <W> = 2 and the bound is -0.5.
    rep = evaluate_witness(maximally_mixed(4))
    assert rep.expectation == pytest.approx(2.0, abs=1e-12)
    assert rep.fidelity_lower_bound == pytest.approx(-0.5, abs=1e-12)
    assert not rep.genuinely_entangled


def test_evaluate_witness_ideal_report():
    rep = evaluate_witness(prepare_cluster(IDEAL_PREP))
    assert rep.expectation == pytest.approx(-1.0, abs=1e-10)
    assert rep.fidelity_lower_bound == pytest.approx(1.0, abs=1e-10)
    assert rep.genuinely_entangled


def test_bound_arithmetic_is_exact():
    rep = WitnessReport.from_expectation(-0.60)
    assert rep.fidelity_lower_bound == 0.800
    assert rep.genuinely_entangled


def test_report_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        WitnessReport(expectation=-0.6, fidelity_lower_bound=0.75, genuinely_entangled=True)


def test_witness_invariant_under_permute_round_trip():
    rho = prepare_cluster(PreparationParams(imbalance=0.7, spatial_white_noise=0.1))
    perm = (3, 1, 4, 2)
    inverse = [perm.index(q) + 1 for q in range(1, 5)]
    back = permute_qubits(permute_qubits(rho, perm), inverse)
    assert evaluate_witness(back).expectation == pytest.approx(
        evaluate_witness(rho).expectation, abs=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(0.2, 1.0),
    p_w=st.floats(0.0, 0.6),
    theta=st.floats(-np.pi, np.pi),
    retention=st.floats(0.0, 1.0),
)
def test_bound_never_exceeds_direct_fidelity(r, p_w, theta, retention):
    rho = prepare_cluster(PreparationParams(theta=theta, imbalance=r, spatial_white_noise=p_w))
    rho = apply_channel(rho, pair_dephasing_channel(retention), (3, 4))
    bound = evaluate_witness(rho).fidelity_lower_bound
    assert bound <= fidelity(rho, cluster_statevector()) + 1e-9


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(-2 * np.pi, 2 * np.pi))
def test_witness_theta_dependence_matches_dense_oracle(theta):
    # Oracle: rebuild the prepared state and witness from raw kron algebra.
    pol = bell()
    spa = bell(theta)
    vec = kron_chain(np.diag([1, 1, 1, -1]).astype(complex), np.eye(4)) @ interleave_13_24(pol, spa)
    w = 0.5 * (4 * np.eye(16) - sum(pauli_matrix(s) for s in WITNESS_PAULI_STRINGS))
    expected = float(np.real(vec.conj() @ w @ vec))
    got = evaluate_witness(prepare_cluster(PreparationParams(theta=theta))).expectation
    assert got == pytest.approx(expected, abs=1e-10)


def test_witness_at_theta_zero_is_minimal():
    assert evaluate_witness(prepare_cluster(PreparationParams(theta=0.0))).expectation == (
        pytest.approx(-1.0, abs=1e-10)
    )
