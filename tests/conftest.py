"""Shared independent oracles: raw-numpy constructions, Kraus-channel
forms and general-purpose helpers (Kronecker products, any-qubit projection,
Born collapse of one qubit) kept deliberately separate from the library code
paths they check."""

import math
from typing import NamedTuple, Sequence, Union

import numpy as np

from onewaysim.cluster import CONDITIONAL_PHASE, evaluate_witness, prepare_hyper
from onewaysim.mbqc import (
    LIN3_ORDER,
    POSTSELECT_OUTCOME,
    FeedforwardTrace,
    to_lin3,
)
from onewaysim.measure import MeasurementBasis, _as_generator, basis_vectors, outcome_kets
from onewaysim.noise import coherence_retention, noisy_cluster
from onewaysim.qcore import (
    HADAMARD,
    DensityMatrix,
    ObservableOperator,
    QuantumChannel,
    StateVector,
    UnitaryOperator,
    apply_channel,
    apply_unitary,
    permute_qubits,
    phase_aligned_distance,
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


# ------------------------------------------------ general-purpose qubit helpers

IDENTITY = UnitaryOperator(1, I2)


def computational_ket(bits: str) -> StateVector:
    """Basis state for a bitstring, e.g. ``computational_ket("0101")``."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"bitstring must be nonempty over {{0,1}}, got {bits!r}")
    n = len(bits)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(n, amps)


def tensor(factors: Sequence) -> Union[StateVector, DensityMatrix, UnitaryOperator, ObservableOperator]:
    """Kronecker product in listed order (first factor = most significant qubits).

    All factors must be of the same kind; states compose as kets, operators as
    matrices.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("tensor requires at least one factor")
    kind = type(factors[0])
    if any(type(f) is not kind for f in factors):
        raise ValueError("tensor factors must all be the same kind")
    n = sum(f.n_qubits for f in factors)
    if kind is StateVector:
        amps = factors[0].amplitudes
        for f in factors[1:]:
            amps = np.kron(amps, f.amplitudes)
        return StateVector(n, amps)
    if kind in (DensityMatrix, UnitaryOperator, ObservableOperator):
        m = factors[0].entries
        for f in factors[1:]:
            m = np.kron(m, f.entries)
        return kind(n, m)
    raise ValueError(f"cannot tensor values of type {kind.__name__}")


def states_equal(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """True when the states agree up to a global phase within ``tol``."""
    return phase_aligned_distance(a, b) <= tol


def project(values: np.ndarray, n: int, qubit: int, bra: np.ndarray):
    """Project ``qubit`` of an n-qubit ket or density matrix onto ``<bra|`` and drop it.

    Returns the unnormalised (n-1)-qubit ket or matrix and the outcome
    probability.
    """
    rest = 2 ** (n - 1)
    if values.ndim == 1:
        block = np.moveaxis(values.reshape((2,) * n), qubit - 1, 0).reshape(2, rest)
        vec = bra @ block
        return vec, float(np.real(np.vdot(vec, vec)))
    t = np.moveaxis(values.reshape((2,) * (2 * n)), (qubit - 1, n + qubit - 1), (0, n))
    mat = np.einsum("a,abcd,c->bd", bra, t.reshape(2, rest, 2, rest), bra.conj())
    return mat, float(np.real(np.trace(mat)))


def projectors(basis: MeasurementBasis):
    """Rank-1 orthogonal projectors (P0, P1) for the two outcomes."""
    v0, v1 = basis_vectors(basis)
    p0 = ObservableOperator(1, np.outer(v0, v0.conj()))
    p1 = ObservableOperator(1, np.outer(v1, v1.conj()))
    return p0, p1


class MeasurementOutcome(NamedTuple):
    outcome: int
    probability: float
    post_state: Union[StateVector, DensityMatrix]


def measure_qubit(state, qubit: int, basis: MeasurementBasis, rng) -> MeasurementOutcome:
    """Born-rule collapse of one qubit; the qubit stays in the register.

    Deterministic for a given RandomSource: a fresh generator is derived from
    it, so repeated calls with identical arguments repeat the outcome.  Pass a
    numpy Generator instead to advance a shared stream across a sequence of
    measurements.
    """
    n = state.n_qubits
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} out of range 1..{n}")
    kets = basis_vectors(basis)
    pure = isinstance(state, StateVector)
    values = state.amplitudes if pure else state.entries
    branches = [project(values, n, qubit, v.conj()) for v in kets]
    (_, p0), (_, p1) = branches
    if p0 < 1e-12 and p1 < 1e-12:
        raise ValueError("both outcome probabilities underflow; state is degenerate here")
    gen = _as_generator(rng)
    outcome = 0 if gen.random() < p0 / (p0 + p1) else 1
    reduced, p = branches[outcome]
    v = kets[outcome]
    if pure:
        collapsed = np.einsum("a,r->ar", v, reduced) / math.sqrt(p)
        collapsed = np.moveaxis(collapsed.reshape((2,) * n), 0, qubit - 1).reshape(-1)
        post = StateVector(n, collapsed)
    else:
        collapsed = np.einsum("a,rs,b->abrs", v, reduced, v.conj()) / p
        collapsed = collapsed.reshape((2, 2) + (2,) * (2 * (n - 1)))
        collapsed = np.moveaxis(collapsed, (0, 1), (qubit - 1, n + qubit - 1))
        post = DensityMatrix(n, collapsed.reshape(2**n, 2**n))
    return MeasurementOutcome(outcome, p, post)


def sequential_shot_trace(req, rng):
    """One shot of the rotation protocol as two Born collapses of the whole
    register, drawn by ``measure_qubit`` from one shared stream."""
    gen = _as_generator(rng)
    lin3, _ = to_lin3(noisy_cluster(req.noise), POSTSELECT_OUTCOME)
    s2, _, mid = measure_qubit(lin3, 1, MeasurementBasis.equatorial(req.alpha), gen)
    beta_eff = ((-1) ** s2) * req.beta if req.feedforward_enabled else req.beta
    s3 = measure_qubit(mid, 2, MeasurementBasis.equatorial(beta_eff), gen).outcome
    ff = req.feedforward_enabled
    return FeedforwardTrace(s2=s2, basis_angle_q3=beta_eff, s3=s3,
                            z_power=s2 if ff else 0, x_power=s3 if ff else 0)


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

def design_matrix(kets: np.ndarray) -> np.ndarray:
    """Row k is the flattened projector |v_k><v_k| of the stacked ket v_k: one
    broadcast product, which rounds exactly as ``np.outer`` does."""
    return (kets[:, :, None] * kets[:, None, :].conj()).reshape(len(kets), -1)


def loop_design_matrix(settings):
    """Tomography design matrix row by row: one flattened np.outer per
    outcome ket of each setting, settings in order."""
    rows = []
    for setting in settings:
        for v in outcome_kets(setting):
            rows.append(np.outer(v, v.conj()).reshape(-1))
    return np.array(rows)


def kron_outcome_kets(setting):
    """Outcome kets of a setting as an np.kron chain of the per-qubit bases."""
    return kron_chain(*[np.vstack(basis_vectors(b)) for b in setting.bases])
