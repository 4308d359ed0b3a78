"""Hyperentangled-state and cluster-state preparation plus the stabilizer witness.

The four logical qubits are, in order: photon polarization (1), photon spatial
mode (2), memory excitation branch (3), memory spatial mode (4).  The photon
qubits 1,2 pair with memory qubits 3,4 degree by degree: (1,3) is the
polarization-like pair, (2,4) the spatial pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import (
    DensityMatrix,
    ObservableOperator,
    StateVector,
    UnitaryOperator,
    _permute_tensor,
    expectation,
    pauli_string,
)


@dataclass(frozen=True)
class PreparationParams:
    """Source-quality knobs for state preparation.

    theta: propagation phase picked up between the two spatial modes
        (compensated to 0 in the reference configuration).
    imbalance: amplitude ratio r of the |1>|1> branch of the polarization-like
        pair relative to the |0>|0> branch; 1 is balanced.
    spatial_white_noise: probability p_w of replacing the spatial two-qubit
        subsystem with the maximally mixed state.
    """

    theta: float = 0.0
    imbalance: float = 1.0
    spatial_white_noise: float = 0.0

    def __post_init__(self):
        if not (0 < self.imbalance and np.isfinite(self.imbalance * self.imbalance)):
            raise ValueError(f"imbalance must be > 0 with a finite square, got {self.imbalance}")
        if not 0.0 <= self.spatial_white_noise <= 1.0:
            raise ValueError(
                f"spatial_white_noise must be in [0, 1], got {self.spatial_white_noise}"
            )
        if not np.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")


IDEAL_PREP = PreparationParams()

# Conditional pi phase on the |1>|1> component of qubits (1, 2): the optical
# phase plate acting on the V polarization in the second spatial mode.
CONDITIONAL_PHASE = UnitaryOperator(2, np.diag([1, 1, 1, -1]).astype(np.complex128))

# The phase is diagonal, so on the 4-qubit register it is a sign per basis
# state (+-1, qubits 3 and 4 untouched) and on a density matrix the mask of
# sign products.
_PHASE_SIGNS = np.kron(np.diag(CONDITIONAL_PHASE.entries).real, np.ones(4))
_PHASE_MASK = np.outer(_PHASE_SIGNS, _PHASE_SIGNS)

# Six Pauli strings whose +1 eigenspace intersects exactly on the ideal
# cluster; each is verified as a stabilizer in the test suite.
WITNESS_PAULI_STRINGS = ("XIXZ", "XZXI", "IZIZ", "IXZX", "ZXIX", "ZIZI")


def _pair_kets(theta: float, imbalance: float):
    """Pure pair amplitudes: polarization-like (1,3) with amplitude ratio
    ``imbalance``, spatial (2,4) with phase ``theta``."""
    r = imbalance
    pol = np.array([1, 0, 0, r], dtype=np.complex128) / np.sqrt(1 + r * r)
    spa = np.array([1, 0, 0, np.exp(1j * theta)], dtype=np.complex128) / np.sqrt(2.0)
    return pol, spa


def hyper_statevector(theta: float = 0.0, imbalance: float = 1.0) -> StateVector:
    """Pure hyperentangled state (no white noise): pair (1,3) x pair (2,4)."""
    pol, spa = _pair_kets(theta, imbalance)
    joint = np.kron(pol, spa)  # ordering (1, 3, 2, 4)
    return StateVector(4, _permute_tensor(joint, (1, 3, 2, 4), 4, matrix=False))


def cluster_statevector(theta: float = 0.0, imbalance: float = 1.0) -> StateVector:
    """Pure cluster state; defaults give the ideal |C4> = (|0000>+|1010>+|0101>-|1111>)/2."""
    return StateVector(4, hyper_statevector(theta, imbalance).amplitudes * _PHASE_SIGNS)


def _hyper_entries(params: PreparationParams) -> np.ndarray:
    pol, spa = _pair_kets(params.theta, params.imbalance)
    p_w = params.spatial_white_noise
    spa_rho = (1.0 - p_w) * np.outer(spa, spa.conj()) + p_w * np.eye(4) / 4.0
    joint = np.kron(np.outer(pol, pol.conj()), spa_rho)  # ordering (1, 3, 2, 4)
    return _permute_tensor(joint, (1, 3, 2, 4), 4, matrix=True)


def prepare_hyper(params: PreparationParams) -> DensityMatrix:
    """Hyperentangled 4-qubit state with preparation imperfections.

    The polarization-like pair (1,3) carries the coherent amplitude imbalance;
    the spatial pair (2,4) is mixed with white noise of weight
    ``spatial_white_noise``.
    """
    return DensityMatrix(4, _hyper_entries(params))


@lru_cache(maxsize=16)
def prepare_cluster(params: PreparationParams) -> DensityMatrix:
    """Cluster state: prepare_hyper followed by the conditional phase on (1, 2).

    Cached per process on the frozen ``params``; the returned state is shared
    and read-only.  Parameters of -0.0 and 0.0 are one key, and prepare the
    same bits.
    """
    return DensityMatrix(4, _hyper_entries(params) * _PHASE_MASK)


@lru_cache(maxsize=1)
def witness_stabilizer_terms() -> tuple:
    """The six four-qubit Pauli products entering the witness."""
    return tuple(pauli_string(s) for s in WITNESS_PAULI_STRINGS)


@lru_cache(maxsize=1)
def witness_operator() -> ObservableOperator:
    """Entanglement witness W = (4*I - sum of six stabilizer products) / 2."""
    total = sum(term.entries for term in witness_stabilizer_terms())
    w = 0.5 * (4.0 * np.eye(16, dtype=np.complex128) - total)
    return ObservableOperator(4, w)


@dataclass(frozen=True)
class WitnessReport:
    """Witness expectation with its derived fidelity bound."""

    expectation: float
    fidelity_lower_bound: float
    genuinely_entangled: bool

    def __post_init__(self):
        if self.fidelity_lower_bound != 0.5 - 0.5 * self.expectation:
            raise ValueError("fidelity_lower_bound must equal 1/2 - <W>/2 exactly")
        if self.genuinely_entangled != (self.expectation < 0):
            raise ValueError("genuinely_entangled must equal (expectation < 0)")

    @classmethod
    def from_expectation(cls, value: float) -> "WitnessReport":
        return cls(value, 0.5 - 0.5 * value, value < 0)


def evaluate_witness(rho: DensityMatrix | StateVector) -> WitnessReport:
    """Witness expectation and fidelity lower bound for a 4-qubit state."""
    if rho.n_qubits != 4:
        raise ValueError(f"witness is defined on 4 qubits, state has {rho.n_qubits}")
    return WitnessReport.from_expectation(expectation(rho, witness_operator()))
