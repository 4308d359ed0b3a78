"""Maximum-likelihood density-matrix reconstruction from count tables.

The estimate is the fixed point of the multinomial-likelihood ascent iteration
(R rho R, diluted whenever a full step would not improve the likelihood), so
accepted iterations are monotone in log-likelihood and the iterate stays
positive semidefinite and unit trace by construction.  A likelihood costs one
matrix product; completeness is a sum of small real ranks of Bloch vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cluster import _PHASE_MASK, cluster_statevector
from .measure import CountTable, MeasurementSetting, basis_vectors, outcome_kets
from .qcore import (
    DensityMatrix,
    StateVector,
    fidelity,
    partial_trace,
    rho_to_entry_list,
)


class IncompleteSettingsError(ValueError):
    """The measurement settings do not span the operator space."""


#: Cap on the RρR steps of one reconstruction, which starts from I/d.
MAX_ITERATIONS = 2000
#: Per-shot mean log-likelihood improvement below which the iteration stops.
LL_TOLERANCE = 1e-10


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


def _check_informationally_complete(settings: Sequence[MeasurementSetting], n: int) -> None:
    """Raise unless the settings' outcome projectors span the 4^n operator space.

    A setting's projectors span the products over qubits of I or n.sigma (n the
    qubit's Bloch vector).  Pauli strings that are non-identity on different
    qubit subsets S are orthogonal, so the rank sums, over S, the ranks of the
    (settings x 3^|S|) matrices of Kronecker products of Bloch vectors.
    """
    terms = np.ones((len(settings), 1))
    support = np.zeros(1, dtype=int)  # bitmask of the non-identity qubits per column
    for q in range(n):
        a, b = np.array([basis_vectors(s.bases[q])[0] for s in settings]).T  # outcome 0
        ab = 2 * a.conj() * b  # |v0><v0| = (I + n.sigma)/2: coefficients of I, X, Y, Z
        local = np.stack([np.ones(len(ab)), ab.real, ab.imag, abs(a)**2 - abs(b)**2], axis=1)
        terms = (terms[:, :, None] * local[:, None, :]).reshape(len(settings), -1)
        support = (2 * support[:, None] + (np.arange(4) > 0)).reshape(-1)
    rank = sum(int(np.linalg.matrix_rank(terms[:, support == s], tol=1e-10))
               for s in range(2**n))
    if rank < 4**n:
        raise IncompleteSettingsError(f"settings span rank {rank} < {4**n}; "
                                      "reconstruction would be underdetermined")


def _born_probabilities(v: np.ndarray, vc: np.ndarray, r: np.ndarray) -> np.ndarray:
    """<v_k| r |v_k> for every row k of v (vc = v.conj()): one matrix product."""
    return np.sum((vc @ r) * v, axis=1).real


def reconstruct(tables: Sequence[CountTable]) -> TomographyReport:
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
    _check_informationally_complete([t.setting for t in tables], n)

    observed = [(outcome_kets(t.setting), t.counts) for t in tables]  # row o = ket of o
    v = np.array([rows[int(bits, 2)] for rows, counts in observed for bits in counts])
    vc = v.conj()
    ns = np.array([float(c) for _, counts in observed for c in counts.values()])
    n_total = float(ns.sum())

    def likelihood(r):
        """Clipped outcome probabilities of r and their log-likelihood."""
        p = np.clip(_born_probabilities(v, vc, r), 1e-12, None)
        return p, float(ns @ np.log(p))

    def step(op, r):
        """op r op normalised, with its outcome probabilities and log-likelihood."""
        out = op @ r @ op
        out = (out + out.conj().T) / 2.0
        out /= np.trace(out).real
        return (out, *likelihood(out))

    eye = np.eye(d, dtype=np.complex128)
    rho = eye / d
    p, ll = likelihood(rho)
    history = [ll]
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        w = ns / (n_total * p)
        r_op = (v.T * w) @ vc
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
        if improvement / n_total < LL_TOLERANCE:
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
