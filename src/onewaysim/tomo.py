"""Maximum-likelihood density-matrix reconstruction from count tables.

The estimate is the fixed point of the multinomial-likelihood ascent iteration
(R rho R, diluted whenever a full step would not improve the likelihood), so
accepted iterations are monotone in log-likelihood and the iterate stays
positive semidefinite and unit trace by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cluster import CONDITIONAL_PHASE, cluster_statevector
from .measure import CountTable, outcome_kets
from .qcore import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    fidelity,
    partial_trace,
    rho_to_entry_list,
)


class IncompleteSettingsError(ValueError):
    """The measurement settings do not span the operator space."""


@dataclass(frozen=True)
class MLConfig:
    """Optimizer knobs.

    ll_tolerance is the per-shot mean log-likelihood improvement below which
    the iteration stops; regularizer is added to the diagonal of the initial
    Cholesky factor to keep the starting point strictly positive.
    """

    max_iterations: int = 2000
    ll_tolerance: float = 1e-10
    regularizer: float = 1e-6

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


def _check_informationally_complete(settings, dim: int) -> None:
    rows = []
    for setting in settings:
        kets = outcome_kets(setting)
        for v in kets:
            rows.append(np.outer(v, v.conj()).reshape(-1))
    design = np.array(rows)
    rank = np.linalg.matrix_rank(design, tol=1e-10)
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
    _check_informationally_complete([t.setting for t in tables], d)

    kets = []
    counts = []
    for t in tables:
        rows = outcome_kets(t.setting)
        for bits, c in t.counts.items():
            kets.append(rows[int(bits, 2)])
            counts.append(float(c))
    v = np.array(kets)  # (K, d), row k = ket of observed outcome k
    ns = np.array(counts)
    n_total = float(ns.sum())

    # rho = T^dag T / tr with T the regularized maximally mixed factor.
    t0 = (1.0 / math.sqrt(d) + cfg.regularizer) * np.eye(d, dtype=np.complex128)
    rho = t0.conj().T @ t0
    rho /= np.trace(rho).real

    def probs_of(r):
        p = np.real(np.einsum("ki,ij,kj->k", v.conj(), r, v))
        return np.clip(p, 1e-12, None)

    def ll_of(p):
        return float(ns @ np.log(p))

    p = probs_of(rho)
    ll = ll_of(p)
    history = [ll]
    converged = False
    iterations = 0
    eye = np.eye(d, dtype=np.complex128)

    for iterations in range(1, cfg.max_iterations + 1):
        w = ns / (n_total * p)
        r_op = (v.T * w) @ v.conj()
        candidate = r_op @ rho @ r_op
        candidate = (candidate + candidate.conj().T) / 2.0
        candidate /= np.trace(candidate).real
        p_new = probs_of(candidate)
        ll_new = ll_of(p_new)

        if ll_new < ll:
            # Dilute the step until the likelihood improves; R is an ascent
            # direction so a small enough step always does.
            accepted = False
            eps = 0.5
            while eps > 1e-8:
                r_d = (eye + eps * r_op) / (1.0 + eps)
                candidate = r_d @ rho @ r_d
                candidate = (candidate + candidate.conj().T) / 2.0
                candidate /= np.trace(candidate).real
                p_new = probs_of(candidate)
                ll_new = ll_of(p_new)
                if ll_new >= ll:
                    accepted = True
                    break
                eps /= 2.0
            if not accepted:
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
    """Invert the cluster's conditional phase, recovering the pre-phase state."""
    return apply_unitary(rho, CONDITIONAL_PHASE, (1, 2))


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
