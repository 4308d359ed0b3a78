"""Maximum-likelihood density-matrix reconstruction from count tables.

The estimate is the fixed point of the multinomial-likelihood ascent iteration
(R rho R, diluted whenever a full step would not improve the likelihood), so
accepted iterations are monotone in log-likelihood and the iterate stays
positive semidefinite and unit trace by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cluster import _PHASE_MASK, cluster_statevector
from .measure import CountTable, outcome_kets
from .qcore import (
    DensityMatrix,
    StateVector,
    fidelity,
    partial_trace,
    rho_to_entry_list,
)


class IncompleteSettingsError(ValueError):
    """The measurement settings do not span the operator space."""


@dataclass(frozen=True)
class MLConfig:
    """Optimizer knobs.

    max_iterations caps the RρR steps; ll_tolerance is the per-shot mean
    log-likelihood improvement below which the iteration stops.  The start
    state is always the maximally mixed I/d.
    """

    max_iterations: int = 2000
    ll_tolerance: float = 1e-10

    def __post_init__(self):
        if not self.ll_tolerance > 0:
            raise ValueError(f"ll_tolerance must be > 0, got {self.ll_tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class TomographyReport:
    """Reconstruction output; the cluster-specific fidelities are None for
    registers other than the 4-qubit cluster."""

    rho_hat: DensityMatrix
    log_likelihood: float
    fidelity_vs_C4: Optional[float]
    reduced_polarization_fidelity: Optional[float]
    reduced_spatial_fidelity: Optional[float]
    iterations_used: int
    converged: bool
    ll_history: tuple


def _design_matrix(kets: np.ndarray) -> np.ndarray:
    """Row k is the flattened projector |v_k><v_k| of the stacked ket v_k: one
    broadcast product, which rounds exactly as ``np.outer`` does."""
    return (kets[:, :, None] * kets[:, None, :].conj()).reshape(len(kets), -1)


def _check_informationally_complete(kets: np.ndarray, dim: int) -> None:
    """Raise unless the outcome projectors span the dim x dim operator space."""
    rank = np.linalg.matrix_rank(_design_matrix(kets), tol=1e-10)
    if rank < dim * dim:
        raise IncompleteSettingsError(
            f"settings span rank {rank} < {dim * dim}; reconstruction would be underdetermined"
        )


def reconstruct(tables: Sequence[CountTable], cfg: MLConfig = MLConfig()) -> TomographyReport:
    """Maximum-likelihood state estimate from per-setting outcome counts.

    Raises IncompleteSettingsError when the settings are not informationally
    complete for the register size.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("at least one count table is required")
    n = tables[0].setting.n_qubits
    if any(t.setting.n_qubits != n for t in tables):
        raise ValueError("all count tables must cover the same register size")
    d = 2**n
    ket_tables = [outcome_kets(t.setting) for t in tables]  # row o = ket of outcome o
    _check_informationally_complete(np.concatenate(ket_tables), d)

    kets = []
    counts = []
    for t, rows in zip(tables, ket_tables):
        for bits, c in t.counts.items():
            kets.append(rows[int(bits, 2)])
            counts.append(float(c))
    v = np.array(kets)  # (K, d), row k = ket of observed outcome k
    ns = np.array(counts)
    n_total = float(ns.sum())

    def probs_of(r):
        p = np.real(np.einsum("ki,ij,kj->k", v.conj(), r, v))
        return np.clip(p, 1e-12, None)

    def ll_of(p):
        return float(ns @ np.log(p))

    def step(op, r):
        """op r op normalised, with its outcome probabilities and log-likelihood."""
        out = op @ r @ op
        out = (out + out.conj().T) / 2.0
        out /= np.trace(out).real
        p = probs_of(out)
        return out, p, ll_of(p)

    eye = np.eye(d, dtype=np.complex128)
    rho = eye / d
    p = probs_of(rho)
    ll = ll_of(p)
    history = [ll]
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iterations + 1):
        w = ns / (n_total * p)
        r_op = (v.T * w) @ v.conj()
        candidate, p_new, ll_new = step(r_op, rho)
        if ll_new < ll:
            # Dilute the step until the likelihood improves; R is an ascent
            # direction so a small enough step always does.
            eps = 0.5
            while eps > 1e-8:
                candidate, p_new, ll_new = step((eye + eps * r_op) / (1.0 + eps), rho)
                if ll_new >= ll:
                    break
                eps /= 2.0
            else:
                converged = True
                break

        improvement = ll_new - ll
        rho, p, ll = candidate, p_new, ll_new
        history.append(ll)
        if improvement / n_total < cfg.ll_tolerance:
            converged = True
            break

    rho_hat = DensityMatrix(n, rho)
    fid_c4 = pol = spa = None
    if n == 4:
        fid_c4 = fidelity(rho_hat, cluster_statevector())
        pol, spa = reduced_fidelities(undo_conditional_phase(rho_hat))
    return TomographyReport(
        rho_hat=rho_hat,
        log_likelihood=ll,
        fidelity_vs_C4=fid_c4,
        reduced_polarization_fidelity=pol,
        reduced_spatial_fidelity=spa,
        iterations_used=iterations,
        converged=converged,
        ll_history=tuple(history),
    )


def undo_conditional_phase(rho: DensityMatrix) -> DensityMatrix:
    """Invert the cluster's conditional phase (a self-inverse +-1 sign mask)."""
    if rho.n_qubits != 4:
        raise ValueError("the conditional phase acts on the 4-qubit cluster")
    return DensityMatrix(4, rho.entries * _PHASE_MASK)


_BELL_PLUS = StateVector(2, np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2.0))
_BELL_MINUS = StateVector(2, np.array([1, 0, 0, -1], dtype=np.complex128) / np.sqrt(2.0))


def reduced_fidelities(rho4_pre_phase: DensityMatrix):
    """Per-degree Bell fidelities of the pre-phase hyperentangled state.

    Returns (polarization, spatial): each is the larger of the overlaps with
    the two Bell targets (|00> +- |11>)/sqrt(2) of the pair marginal, taken on
    qubits (1,3) and (2,4) respectively.
    """
    if rho4_pre_phase.n_qubits != 4:
        raise ValueError("reduced fidelities are defined on the 4-qubit state")

    def best(pair):
        marginal = partial_trace(rho4_pre_phase, pair)
        return max(fidelity(marginal, _BELL_PLUS), fidelity(marginal, _BELL_MINUS))

    return best((1, 3)), best((2, 4))


def report_to_json_dict(report: TomographyReport) -> dict:
    return {
        "dimension": report.rho_hat.dim,
        "rho_entries": rho_to_entry_list(report.rho_hat),
        "log_likelihood": report.log_likelihood,
        "fidelity_vs_C4": report.fidelity_vs_C4,
        "reduced_polarization_fidelity": report.reduced_polarization_fidelity,
        "reduced_spatial_fidelity": report.reduced_spatial_fidelity,
        "iterations_used": report.iterations_used,
        "converged": report.converged,
    }
