"""One-way single-qubit rotations on the hyperentangled cluster.

The 4-qubit cluster is reduced to a 3-qubit linear cluster by reordering the
register as (memory spatial, photon spatial, photon polarization, memory
branch), applying Hadamards to the outer qubits and postselecting the first
one in the computational basis.  Measuring the remaining first two qubits in
equatorial bases B(alpha), B(beta') then steers the last qubit through

    sigma_x^s3  sigma_z^s2  R_x((-1)^(s2+1) * beta')  R_z(-alpha) |+>

per measurement branch (s2, s3).  With feedforward the second basis angle is
beta' = (-1)^s2 * beta and the Pauli byproducts are undone, so every branch
lands on the target R_x(-beta) R_z(-alpha) |+>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .cluster import cluster_statevector
from .measure import MeasurementBasis, RandomSource, _as_generator, basis_vectors
from .noise import NoiseModel, _noisy_entries
from .qcore import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    StateVector,
    _embed_matrix,
    _permute_tensor,
    _rotation_matrix,
    fidelity,
    phase_aligned_distance,
    plus_ket,
    rho_to_entry_list,
)

# Register order used by the reduction: new qubit i is old qubit LIN3_ORDER[i-1].
LIN3_ORDER = (4, 2, 1, 3)

# The reduction as one fixed linear map per postselection outcome o:
# _LIN3_MAPS[o] = (<o| x I_8) (H x I x I x H) P, an 8x16 matrix on the register
# in its original order; P reorders it to LIN3_ORDER.
_LIN3_INDEX = _permute_tensor(np.arange(16), LIN3_ORDER, 4, matrix=False)  # new -> old
_OUTER_HADAMARDS = _embed_matrix(np.kron(HADAMARD.entries, HADAMARD.entries), (1, 4), 4)
_LIN3_MAPS = tuple(_OUTER_HADAMARDS[8 * o:8 * o + 8][:, np.argsort(_LIN3_INDEX)]
                   for o in (0, 1))
# The Pauli byproduct X^s3 Z^s2 of each branch (s2, s3), in sorted branch order.
_BYPRODUCTS = {(s2, s3): np.linalg.matrix_power(PAULI_X.entries, s3)
               @ np.linalg.matrix_power(PAULI_Z.entries, s2)
               for s2 in (0, 1) for s3 in (0, 1)}

_SMALLEST_NORMAL = np.finfo(np.float64).tiny

#: Postselection outcome for the removed qubit.  Outcome 1 yields the same
#: protocol after a known local Z on the first remaining qubit (see tests).
POSTSELECT_OUTCOME = 0


@dataclass(frozen=True)
class RotationRequest:
    """One rotation-protocol run: angles, feedforward switch, shot budget."""

    alpha: float
    beta: float
    feedforward_enabled: bool = True
    shots: int = 0  # 0 = exact branch enumeration, >= 1 = sampled weights
    noise: NoiseModel = NoiseModel()

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("angles must be finite")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")


@dataclass(frozen=True)
class BranchOutput:
    probability: float
    state: DensityMatrix  # single-qubit output before correction


@dataclass(frozen=True)
class RotationResult:
    """Per-branch outputs and the corrected mixture for one protocol run."""

    branch_outputs: dict
    corrected_output: DensityMatrix
    target: StateVector
    fidelity: float

    def __post_init__(self):
        total = sum(b.probability for b in self.branch_outputs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"branch probabilities sum to {total}, expected 1")
        if not -1e-12 <= self.fidelity <= 1.0 + 1e-12:
            raise ValueError(f"fidelity out of [0, 1]: {self.fidelity}")


@dataclass(frozen=True)
class FeedforwardTrace:
    """Event record of one shot: adaptive basis choice and Pauli corrections."""

    s2: int
    basis_angle_q3: float
    s3: int
    z_power: int
    x_power: int


def to_lin3(cluster, postselect_outcome: int = POSTSELECT_OUTCOME):
    """Reduce the 4-qubit cluster to the 3-qubit linear cluster.

    Reorders the register to LIN3_ORDER, applies H on the new outer qubits
    (1, 4) and removes qubit 1 by postselecting the chosen computational
    outcome, all as one precomputed 8x16 map.  Works on pure states and
    density matrices alike; returns the 3-qubit state and the postselection
    probability.
    """
    if cluster.n_qubits != 4:
        raise ValueError("lin3 reduction starts from a 4-qubit state")
    if postselect_outcome not in (0, 1):
        raise ValueError(f"postselect outcome must be 0 or 1, got {postselect_outcome}")
    pure = isinstance(cluster, StateVector)
    out, prob = _lin3(cluster.amplitudes if pure else cluster.entries, postselect_outcome)
    return (StateVector if pure else DensityMatrix)(3, out), prob


def _lin3(values: np.ndarray, postselect_outcome: int = POSTSELECT_OUTCOME):
    """The unvalidated ``to_lin3`` of a 4-qubit ket or density-matrix array."""
    k = _LIN3_MAPS[postselect_outcome]
    pure = values.ndim == 1
    out = k @ values if pure else k @ values @ k.conj().T
    prob = float(np.real(np.vdot(out, out) if pure else np.trace(out)))
    if prob < 1e-12:
        raise ValueError("postselection has zero probability")
    return out / (math.sqrt(prob) if pure else prob), prob


def rotation_target(alpha: float, beta: float) -> StateVector:
    """Ideal output R_x(-beta) R_z(-alpha) |+>."""
    out = _rotation_matrix("z", -alpha) @ plus_ket().amplitudes
    return StateVector(1, _rotation_matrix("x", -beta) @ out)


def _branches(values: np.ndarray, alpha: float, beta: float, feedforward: bool):
    """Measure lin3 qubits 1 and 2 on all four branches, one batched projection each.

    ``values`` is a 3-qubit ket or density matrix.  Stage 1 projects qubit 1
    onto both rows of B(alpha); stage 2 projects qubit 2 of each normalised
    result onto B(beta), or onto B((-1)^s2 beta) under feedforward.  Returns
    p2[s2], p3[s2, s3] (the probability of s3 given s2) and out[s2, s3], the
    unnormalised qubit-3 ket or matrix.
    """
    bras1 = np.conj(basis_vectors(MeasurementBasis.equatorial(alpha)))
    signs = (1, -1) if feedforward else (1, 1)
    bras2 = np.conj([basis_vectors(MeasurementBasis.equatorial(s * beta)) for s in signs])
    if values.ndim == 2:
        mid = np.einsum("sa,abcd,sc->sbd", bras1, values.reshape(2, 4, 2, 4), bras1.conj())
        p2 = np.real(np.trace(mid, axis1=1, axis2=2))
        # A branch with p2 = 0 stays zero, without a 0/0 warning; _rotate_lin3 drops it.
        # So does a subnormal p2: complex division takes 1 / p2 first, which overflows.
        mid = np.divide(mid, p2[:, None, None], out=np.zeros_like(mid),
                        where=p2[:, None, None] >= _SMALLEST_NORMAL).reshape(2, 2, 2, 2, 2)
        out = np.einsum("sta,sabcd,stc->stbd", bras2, mid, bras2.conj())
        return p2, np.real(np.trace(out, axis1=2, axis2=3)), out
    # A ket bra by bra as vector-matrix products, which round as one bra's do.
    mid = (bras1[:, None, :] @ values.reshape(2, 4))[:, 0]
    p2 = np.real(mid.conj()[:, None, :] @ mid[:, :, None])[:, 0, 0]
    mid = (mid / np.sqrt(p2)[:, None]).reshape(2, 1, 2, 2)
    out = (bras2[:, :, None, :] @ mid)[:, :, 0]
    return p2, np.real(out.conj()[..., None, :] @ out[..., None])[..., 0, 0], out


def run_rotation(req: RotationRequest, rng: Optional[RandomSource] = None) -> RotationResult:
    """Run the rotation protocol and return per-branch and corrected outputs.

    Exact mode (shots = 0) enumerates the four (s2, s3) branches with Born
    weights.  Sampled mode draws the branch record multinomially: the branch
    outcomes are the protocol's only stochastic element, so per-shot collapse
    reduces to empirical branch frequencies.  Branch probabilities then report
    the empirical frequencies.
    """
    lin3, _ = _lin3(_noisy_entries(req.noise))
    return _rotate_lin3(lin3, req, rng)


def _rotate_lin3(lin3: np.ndarray, req: RotationRequest,
                 rng: Optional[RandomSource]) -> RotationResult:
    """The rotation protocol of ``req`` on an already reduced lin3 density-matrix array."""
    p2, p3, out = _branches(lin3, req.alpha, req.beta, req.feedforward_enabled)
    exact = p2[:, None] * p3
    keys = [k for k in _BYPRODUCTS if exact[k] >= 1e-12]
    weights = np.array([exact[k] for k in keys])
    if req.shots >= 1:
        gen = (rng or RandomSource(0)).generator()
        drawn = gen.multinomial(req.shots, weights / weights.sum())
        weights = drawn / req.shots

    mix = np.zeros((2, 2), dtype=np.complex128)
    outputs = {}
    for k, w in zip(keys, weights):
        raw = DensityMatrix(1, out[k] / p3[k])
        outputs[k] = BranchOutput(probability=float(w), state=raw)
        corrected = raw.entries
        if req.feedforward_enabled:
            corrected = _BYPRODUCTS[k] @ corrected @ _BYPRODUCTS[k].conj().T
        mix += w * corrected
    corrected_output = DensityMatrix(1, mix)
    target = rotation_target(req.alpha, req.beta)
    return RotationResult(
        branch_outputs=outputs,
        corrected_output=corrected_output,
        target=target,
        fidelity=fidelity(corrected_output, target),
    )


def single_shot_trace(req: RotationRequest, rng) -> FeedforwardTrace:
    """One sequential shot through the protocol, recording the event order.

    s2 is drawn from its exact probability p2, then s3 from p3[s2], its
    probability given s2; both draws take one uniform each from one shared
    stream (a ``RandomSource`` or a numpy ``Generator`` to advance).
    """
    gen = _as_generator(rng)
    lin3, _ = _lin3(_noisy_entries(req.noise))
    ff = req.feedforward_enabled
    p2, p3, _ = _branches(lin3, req.alpha, req.beta, ff)
    s2 = 0 if gen.random() < p2[0] / p2.sum() else 1
    s3 = 0 if gen.random() < p3[s2, 0] / p3[s2].sum() else 1
    beta_eff = ((-1) ** s2) * req.beta if ff else req.beta
    return FeedforwardTrace(s2=s2, basis_angle_q3=beta_eff, s3=s3,
                            z_power=s2 if ff else 0, x_power=s3 if ff else 0)


def branch_verify(alpha: float, beta: float, tol: float = 1e-9):
    """Check each noiseless branch against the rotation identity.

    Measures the ideal lin3 cluster with the FIXED second basis B(beta) and
    compares the pre-correction branch state to

        sigma_x^s3 sigma_z^s2 R_x((-1)^(s2+1) beta) R_z(-alpha) |+>

    up to a global phase.  Returns (all_pass, {(s2, s3): residual}).
    """
    lin3, _ = to_lin3(cluster_statevector(), POSTSELECT_OUTCOME)
    _, p3, out = _branches(lin3.amplitudes, alpha, beta, feedforward=False)
    residuals = {}
    for (s2, s3), u in _BYPRODUCTS.items():
        measured = StateVector(1, out[s2, s3] / math.sqrt(p3[s2, s3]))
        expected = StateVector(1, u @ rotation_target(alpha, ((-1) ** s2) * beta).amplitudes)
        residuals[(s2, s3)] = phase_aligned_distance(expected, measured)
    return all(r <= tol for r in residuals.values()), residuals


@dataclass(frozen=True)
class SweepPoint:
    angle_rad: float
    fidelity: float
    mode: str
    noise_tag: str
    result: RotationResult


SWEEP_MODES = ("rx", "rz")
SWEEP_STEP = math.pi / 8


def sweep(mode: str, template: RotationRequest, noise_tag: Optional[str] = None,
          rng: Optional[RandomSource] = None) -> list:
    """Fidelity of the corrected output across an angle grid.

    ``rx``: alpha fixed at pi/2, beta swept over [0, 2*pi] in SWEEP_STEP
    increments; ``rz``: beta fixed at 0, alpha swept.  All other request
    fields come from ``template``.  The angle-independent lin3 cluster is built
    once; in sampled mode point i draws from ``rng.stream(i)``.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")
    if noise_tag is None:
        noise_tag = "noiseless" if template.noise == NoiseModel() else "noisy"
    count = int(round(2 * math.pi / SWEEP_STEP)) + 1
    lin3, _ = _lin3(_noisy_entries(template.noise))
    rng = rng or RandomSource(0)
    points = []
    for i in range(count):
        angle = i * SWEEP_STEP
        if mode == "rx":
            req_i = replace(template, alpha=math.pi / 2, beta=angle)
        else:
            req_i = replace(template, alpha=angle, beta=0.0)
        result = _rotate_lin3(lin3, req_i, rng.stream(i))
        points.append(SweepPoint(angle_rad=angle, fidelity=result.fidelity,
                                 mode=mode, noise_tag=noise_tag, result=result))
    return points


def result_to_json_dict(result: RotationResult) -> dict:
    """JSON form with the branch map keyed by the concatenated outcomes 's2s3'."""
    branches = {
        f"{s2}{s3}": {"probability": b.probability, "state": rho_to_entry_list(b.state)}
        for (s2, s3), b in sorted(result.branch_outputs.items())
    }
    return {
        "branches": branches,
        "corrected_output": rho_to_entry_list(result.corrected_output),
        "target": [[float(a.real), float(a.imag)] for a in result.target.amplitudes],
        "fidelity": result.fidelity,
    }


def sweep_to_csv_rows(points, per_branch: bool = False):
    """(header, rows) for the sweep CSV export."""
    if per_branch:
        header = ["angle_rad", "fidelity", "mode", "noise_tag", "branch_s2", "branch_s3"]
        rows = []
        for p in points:
            rows.append([p.angle_rad, p.fidelity, p.mode, p.noise_tag, "", ""])
            for (s2, s3), b in sorted(p.result.branch_outputs.items()):
                branch_fid = fidelity(b.state, p.result.target)
                rows.append([p.angle_rad, branch_fid, p.mode, p.noise_tag, s2, s3])
        return header, rows
    header = ["angle_rad", "fidelity", "mode", "noise_tag"]
    return header, [[p.angle_rad, p.fidelity, p.mode, p.noise_tag] for p in points]
