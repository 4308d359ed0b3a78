"""Dense linear algebra for small qubit registers.

States, unitaries, observables and Kraus channels are thin validated wrappers
around complex numpy arrays.  Everything is dimension-generic up to
``MAX_QUBITS`` qubits and dense: the target experiments live in a 16-dim
Hilbert space, so no sparse or stabilizer machinery is attempted.

Conventions used across the whole package:

* Qubit indices are 1-based and qubit 1 is the most significant bit of the
  amplitude index (kets read left to right, ``|q1 q2 ... qn>``).
* States that differ only by a global phase are considered equal; comparison
  helpers phase-align on the largest-magnitude amplitude.
* All operations are pure functions of immutable values (arrays are stored
  read-only), so results are freely shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

MAX_QUBITS = 8


# Tolerances of the structural invariants that the constructors check.
NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
UNITARY_TOL = 1e-10
CHANNEL_TOL = 1e-10


def _as_complex_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    arr.setflags(write=False)
    return arr


def _check_register_size(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def _square_matrix(n_qubits: int, entries) -> np.ndarray:
    """Read-only complex copy of ``entries``, checked to be 2^n x 2^n."""
    _check_register_size(n_qubits)
    m = _as_complex_array(entries)
    d = 2**n_qubits
    if m.shape != (d, d):
        raise ValueError(f"expected {d}x{d} matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure n-qubit state: 2^n complex amplitudes with unit norm."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_register_size(self.n_qubits)
        amps = _as_complex_array(self.amplitudes)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator; the carrier of noisy states."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        m = _square_matrix(self.n_qubits, self.entries)
        if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}")
        min_eig = float(np.linalg.eigvalsh(m).min())
        if min_eig < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Unitary on an n-qubit register (U†U = I within tolerance)."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        m = _square_matrix(self.n_qubits, self.entries)
        if np.abs(m.conj().T @ m - np.eye(len(m))).max() > UNITARY_TOL:
            raise ValueError("matrix is not unitary within tolerance")
        object.__setattr__(self, "entries", m)

    def dagger(self) -> "UnitaryOperator":
        return UnitaryOperator(self.n_qubits, self.entries.conj().T)


@dataclass(frozen=True, eq=False)
class ObservableOperator:
    """Hermitian operator (witness, Pauli strings, projectors)."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        m = _square_matrix(self.n_qubits, self.entries)
        if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("observable is not Hermitian within tolerance")
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Trace-preserving channel given by Kraus operators of a common dimension."""

    kraus_operators: tuple

    def __post_init__(self):
        ops = tuple(_as_complex_array(k) for k in self.kraus_operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValueError("Kraus operators must share one square dimension")
        total = sum(k.conj().T @ k for k in ops)
        if np.abs(total - np.eye(d)).max() > CHANNEL_TOL:
            raise ValueError("channel is not trace-preserving within tolerance")
        n = int(round(np.log2(d)))
        if 2**n != d:
            raise ValueError("Kraus dimension must be a power of two")
        object.__setattr__(self, "kraus_operators", ops)

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(self.kraus_operators[0].shape[0])))


State = Union[StateVector, DensityMatrix]


# Fixed 2x2 building blocks.
_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_H = (_X + _Z) / np.sqrt(2.0)

PAULI_X = UnitaryOperator(1, _X)
PAULI_Z = UnitaryOperator(1, _Z)
HADAMARD = UnitaryOperator(1, _H)

_PAULI_BY_LABEL = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def plus_ket() -> StateVector:
    return StateVector(1, np.array([1, 1], dtype=np.complex128) / np.sqrt(2.0))


def pauli_string(labels: str) -> ObservableOperator:
    """Tensor product of single-qubit Paulis, given as e.g. ``"XIXZ"``."""
    if not labels or any(c not in _PAULI_BY_LABEL for c in labels):
        raise ValueError(f"labels must be nonempty over I/X/Y/Z, got {labels!r}")
    m = np.array([[1.0 + 0j]])
    for c in labels:
        m = np.kron(m, _PAULI_BY_LABEL[c])
    return ObservableOperator(len(labels), m)


def density(state: StateVector) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| of a pure state."""
    return DensityMatrix(state.n_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    d = 2**n_qubits
    return DensityMatrix(n_qubits, np.eye(d) / d)


def _validate_targets(targets: Sequence[int], n: int, arity: int | None = None) -> list[int]:
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits in {targets}")
    for q in targets:
        if not 1 <= q <= n:
            raise ValueError(f"target qubit {q} out of range 1..{n}")
    if arity is not None and len(targets) != arity:
        raise ValueError(f"operator acts on {arity} qubits but {len(targets)} targets given")
    return targets


def _permute_tensor(values: np.ndarray, new_order: Sequence[int], n: int, matrix: bool) -> np.ndarray:
    axes = [q - 1 for q in new_order]
    if matrix:
        t = values.reshape((2,) * (2 * n))
        t = np.transpose(t, axes + [a + n for a in axes])
        return t.reshape(2**n, 2**n)
    t = values.reshape((2,) * n)
    return np.transpose(t, axes).reshape(2**n)


def _embed_matrix(op: np.ndarray, targets: Sequence[int], n: int) -> np.ndarray:
    """Expand an operator on ``targets`` to the full register, identity elsewhere."""
    k = len(targets)
    rest = [q for q in range(1, n + 1) if q not in targets]
    slot_holds = list(targets) + rest
    full = np.kron(op, np.eye(2 ** (n - k), dtype=np.complex128))
    # full currently has qubit slot_holds[i] at tensor slot i; permute to 1..n.
    new_order = [slot_holds.index(q) + 1 for q in range(1, n + 1)]
    return _permute_tensor(full, new_order, n, matrix=True)


def apply_unitary(state: State, u: UnitaryOperator, targets: Sequence[int]) -> State:
    """Apply ``u`` on the listed target qubits (first operator qubit = first target)."""
    n = state.n_qubits
    targets = _validate_targets(targets, n, arity=u.n_qubits)
    full = _embed_matrix(u.entries, targets, n)
    if isinstance(state, StateVector):
        return StateVector(n, full @ state.amplitudes)
    if isinstance(state, DensityMatrix):
        return DensityMatrix(n, full @ state.entries @ full.conj().T)
    raise ValueError(f"cannot apply unitary to {type(state).__name__}")


def permute_qubits(state: State, new_order: Sequence[int]) -> State:
    """Reorder the register so that new qubit ``i`` is old qubit ``new_order[i-1]``.

    ``new_order`` must be a bijection on 1..n.  Example: ``(4, 2, 1, 3)`` puts
    the old fourth qubit first.
    """
    n = state.n_qubits
    order = list(new_order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"permutation {order} is not a bijection on 1..{n}")
    if isinstance(state, StateVector):
        return StateVector(n, _permute_tensor(state.amplitudes, order, n, matrix=False))
    if isinstance(state, DensityMatrix):
        return DensityMatrix(n, _permute_tensor(state.entries, order, n, matrix=True))
    raise ValueError(f"cannot permute {type(state).__name__}")


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out all qubits not listed in ``keep``.

    Output qubit ``i`` corresponds to ``keep[i-1]``, preserving the listed
    order.
    """
    n = rho.n_qubits
    keep = list(keep)
    if not keep:
        raise ValueError("keep must list at least one qubit")
    _validate_targets(keep, n)
    keep0 = [q - 1 for q in keep]
    t = rho.entries.reshape((2,) * (2 * n))
    row_sub = list(range(n))
    col_sub = [i if i not in keep0 else n + i for i in range(n)]
    out_sub = keep0 + [n + i for i in keep0]
    reduced = np.einsum(t, row_sub + col_sub, out_sub)
    d = 2 ** len(keep)
    return DensityMatrix(len(keep), reduced.reshape(d, d))


def expectation(rho: State, obs: ObservableOperator) -> float:
    """tr(rho * obs); imaginary residue below 1e-10 is discarded."""
    if rho.n_qubits != obs.n_qubits:
        raise ValueError(
            f"dimension mismatch: state on {rho.n_qubits} qubits, observable on {obs.n_qubits}"
        )
    if isinstance(rho, StateVector):
        val = complex(rho.amplitudes.conj() @ obs.entries @ rho.amplitudes)
    else:
        val = complex(np.trace(rho.entries @ obs.entries))
    return float(val.real)


def _rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """The 2x2 array of ``rotation_gate(axis, angle)``, without the unitarity check."""
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    half = angle / 2.0
    if axis == "x":
        return np.array(
            [[np.cos(half), -1j * np.sin(half)], [-1j * np.sin(half), np.cos(half)]],
            dtype=np.complex128,
        )
    if axis == "z":
        return np.array(
            [[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=np.complex128
        )
    raise ValueError(f"axis must be 'x' or 'z', got {axis!r}")


def rotation_gate(axis: str, angle: float) -> UnitaryOperator:
    """Single-qubit rotation exp(-i * angle * sigma_axis / 2) for axis "x" or "z"."""
    return UnitaryOperator(1, _rotation_matrix(axis, angle))


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    # Hermitian PSD square root via eigendecomposition; tiny negative
    # eigenvalues from roundoff are clipped to zero.
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a: State, b: State) -> float:
    """Fidelity in [0, 1]: overlap for pure inputs, Uhlmann for mixed pairs."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        val = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    elif isinstance(a, StateVector):
        val = float(np.real(a.amplitudes.conj() @ b.entries @ a.amplitudes))
    elif isinstance(b, StateVector):
        val = float(np.real(b.amplitudes.conj() @ a.entries @ b.amplitudes))
    else:
        s = _sqrtm_psd(a.entries)
        inner = s @ b.entries @ s
        vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
        val = float(np.sum(np.sqrt(vals)) ** 2)
    return float(min(max(val, 0.0), 1.0))


def apply_channel(rho: DensityMatrix, ch: QuantumChannel, targets: Sequence[int]) -> DensityMatrix:
    """Apply a Kraus channel on the listed target qubits."""
    n = rho.n_qubits
    targets = _validate_targets(targets, n, arity=ch.n_qubits)
    out = np.zeros_like(rho.entries)
    for k in ch.kraus_operators:
        full = _embed_matrix(k, targets, n)
        out = out + full @ rho.entries @ full.conj().T
    return DensityMatrix(n, out)


def rho_to_entry_list(rho: DensityMatrix) -> list:
    """Flat (row, col, re, im) list of all matrix entries."""
    m = rho.entries
    d = m.shape[0]
    return [[i, j, float(m[i, j].real), float(m[i, j].imag)] for i in range(d) for j in range(d)]


def phase_aligned_distance(a: StateVector, b: StateVector) -> float:
    """Max-abs amplitude distance after aligning global phase.

    The phase is fixed on the largest-magnitude amplitude of ``a``; states
    equal up to a global phase give distance ~0.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("dimension mismatch")
    k = int(np.argmax(np.abs(a.amplitudes)))
    bk = b.amplitudes[k]
    if abs(bk) < 1e-15:
        return float(np.abs(a.amplitudes - b.amplitudes).max())
    phase = (a.amplitudes[k] / abs(a.amplitudes[k])) * (bk / abs(bk)).conjugate()
    return float(np.abs(a.amplitudes - phase * b.amplitudes).max())
