"""Shared independent oracles: raw-numpy constructions and Kraus-channel
forms kept deliberately separate from the library code paths they check."""

import math

import numpy as np

from onewaysim.cluster import CONDITIONAL_PHASE, evaluate_witness, prepare_hyper
from onewaysim.mbqc import LIN3_ORDER
from onewaysim.measure import outcome_kets
from onewaysim.noise import coherence_retention
from onewaysim.qcore import (
    HADAMARD,
    QuantumChannel,
    StateVector,
    apply_channel,
    apply_unitary,
    permute_qubits,
    project,
    tensor,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HAD = (SX + SZ) / np.sqrt(2)
PAULIS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def kron_chain(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_matrix(labels):
    return kron_chain(*[PAULIS[c] for c in labels])


def c4_vector():
    """Ideal cluster amplitudes written out by hand (qubit 1 = MSB)."""
    v = np.zeros(16, dtype=complex)
    v[0b0000] = 0.5
    v[0b1010] = 0.5
    v[0b0101] = 0.5
    v[0b1111] = -0.5
    return v


def brute_partial_trace(rho, keep, n):
    """Index-loop partial trace oracle; keep is a 1-based qubit list."""
    keep0 = [q - 1 for q in keep]
    drop0 = [i for i in range(n) if i not in keep0]
    dk = 2 ** len(keep0)
    out = np.zeros((dk, dk), dtype=complex)

    def bits_of(idx):
        return [(idx >> (n - 1 - i)) & 1 for i in range(n)]

    def idx_of(bits):
        return int("".join(str(b) for b in bits), 2)

    for a in range(2**n):
        ba = bits_of(a)
        for b in range(2**n):
            bb = bits_of(b)
            if any(ba[i] != bb[i] for i in drop0):
                continue
            ra = int("".join(str(ba[i]) for i in keep0), 2)
            rb = int("".join(str(bb[i]) for i in keep0), 2)
            out[ra, rb] += rho[a, b]
    return out


def random_state_vector(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(n, seed):
    """Full-rank random state: G G^dagger / tr for a complex Gaussian G."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def aligned_distance(a, b):
    """Phase-align b onto a at a's largest amplitude, then max-abs distance."""
    k = int(np.argmax(np.abs(a)))
    phase = (a[k] / abs(a[k])) * (b[k] / abs(b[k])).conjugate()
    return float(np.abs(a - phase * b).max())


# ------------------------------------------------------ storage Kraus oracle

def dephasing_channel(retention):
    """Single-qubit dephasing scaling off-diagonals by ``retention``."""
    k0 = math.sqrt((1.0 + retention) / 2.0) * I2
    k1 = math.sqrt((1.0 - retention) / 2.0) * SZ
    return QuantumChannel((k0, k1))


def pair_dephasing_channel(retention):
    """Independent equal-strength dephasing on two qubits, as one 2-qubit channel."""
    single = dephasing_channel(retention).kraus_operators
    return QuantumChannel(tuple(np.kron(a, b) for a in single for b in single))


def storage_channel(t, params):
    """Kraus form of the storage dephasing after ``t`` us, on qubits (3, 4)."""
    return pair_dephasing_channel(coherence_retention(t, params))


def kraus_bound_at_retention(rho0, retention):
    rho = apply_channel(rho0, pair_dephasing_channel(retention), (3, 4))
    return evaluate_witness(rho).fidelity_lower_bound


def bisect_retention(rho0, target, iters=42):
    """Retention with Kraus-path bound = target by bisection, or None if out of range."""
    lo, hi = 0.0, 1.0
    if not (kraus_bound_at_retention(rho0, lo) - 1e-12 <= target
            <= kraus_bound_at_retention(rho0, hi) + 1e-12):
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if kraus_bound_at_retention(rho0, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------- composed-primitive oracles

def composed_cluster(params):
    """The cluster as the conditional phase applied to prepare_hyper by kron embedding."""
    return apply_unitary(prepare_hyper(params), CONDITIONAL_PHASE, (1, 2))


def composed_lin3(state, outcome):
    """The lin3 reduction step by step: permute to LIN3_ORDER, H x H on (1, 4),
    project qubit 1 onto ``outcome``; (normalised ket or matrix, probability)."""
    s = permute_qubits(state, LIN3_ORDER)
    s = apply_unitary(s, tensor([HADAMARD, HADAMARD]), (1, 4))
    if isinstance(s, StateVector):
        reduced, prob = project(s.amplitudes, 4, 1, I2[outcome])
        return reduced / math.sqrt(prob), prob
    reduced, prob = project(s.entries, 4, 1, I2[outcome])
    return reduced / prob, prob


def composed_undo_phase(rho):
    """The conditional phase undone by kron embedding of its 2-qubit unitary."""
    return apply_unitary(rho, CONDITIONAL_PHASE, (1, 2))


# ----------------------------------------------------------- tomography design

def loop_design_matrix(settings):
    """Tomography design matrix row by row: one flattened np.outer per
    outcome ket of each setting, settings in order."""
    rows = []
    for setting in settings:
        for v in outcome_kets(setting):
            rows.append(np.outer(v, v.conj()).reshape(-1))
    return np.array(rows)
