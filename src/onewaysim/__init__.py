"""Simulator for memory-assisted one-way quantum computing on a four-qubit
hyperentangled photon-memory cluster state.

Subpackages: qcore (dense qubit linear algebra), cluster (state preparation
and the stabilizer witness), noise (storage dephasing and calibration),
measure (measurement bases, Born probabilities and count sampling), tomo
(maximum-likelihood reconstruction), mbqc (the feedforward rotation
protocol), timing (latency budgets), cli (scenario runner).
"""

from .qcore import (
    DensityMatrix,
    ObservableOperator,
    QuantumChannel,
    StateVector,
    UnitaryOperator,
    apply_channel,
    apply_unitary,
    density,
    expectation,
    fidelity,
    partial_trace,
    pauli_string,
    permute_qubits,
    rotation_gate,
)
from .cluster import (
    IDEAL_PREP,
    PreparationParams,
    WitnessReport,
    cluster_statevector,
    evaluate_witness,
    hyper_statevector,
    prepare_cluster,
    prepare_hyper,
    witness_operator,
    witness_stabilizer_terms,
)
from .noise import (
    CalibrationError,
    CalibrationResult,
    LifetimePoint,
    NoiseModel,
    StorageNoiseParams,
    calibrate,
    coherence_retention,
    lifetime_curve,
    noisy_cluster,
)
from .measure import (
    CountTable,
    MeasurementBasis,
    MeasurementSetting,
    RandomSource,
    pauli_settings,
    sample_counts,
)
from .tomo import (
    IncompleteSettingsError,
    TomographyReport,
    reconstruct,
    reduced_fidelities,
)
from .mbqc import (
    RotationRequest,
    RotationResult,
    branch_verify,
    run_rotation,
    sweep,
    to_lin3,
)
from .timing import LatencyBudget, cycle_time, max_steps

__version__ = "0.1.0"
