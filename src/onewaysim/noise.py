"""Storage-time decoherence of the memory qubits and model calibration.

The memory qubits (3, 4) dephase while the excitation waits in storage.  The
coherence retention factor

    gamma(t) = envelope(t) * (1 - c * (1 - cos(omega * t)) / 2)

combines a motional-dephasing envelope (Gaussian by default, exponential as an
alternative) with an optional collapse-revival modulation (c, omega).  The
modulation parameters are visualization knobs only; calibration and the
acceptance checks run with c = 0.

Dephasing is diagonal (Nielsen & Chuang, section 8.3.6), so storage is a Schur
product: entry (i, j) of the density matrix is scaled by
gamma^popcount((i ^ j) & 0b0011), the memory qubits on which i and j differ.
The exponent is at most 2, so the witness bound, linear in the state, is
exactly a quadratic in gamma, and calibration solves it in closed form.  Both
are exact; against a Kraus-sum channel they differ by float rounding only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import IDEAL_PREP, PreparationParams, evaluate_witness, prepare_cluster
from .qcore import DensityMatrix

# Memory qubits (3, 4), the two low bits, on which basis states i and j differ.
_FLIPS = np.array([[bin((i ^ j) & 0b0011).count("1") for j in range(16)] for i in range(16)])

#: Default calibration targets: witness fidelity bound at two storage times (us).
DEFAULT_CALIBRATION_TARGETS = {2.27: 0.80, 14.27: 0.50}

#: tau returned when the targets leave the decay constant unconstrained.
UNCONSTRAINED_TAU = 14.27


@dataclass(frozen=True)
class StorageNoiseParams:
    """Dephasing model for the memory qubits.

    tau: decay time constant in microseconds.
    osc_amp: collapse-revival modulation depth c in [0, 1).
    osc_freq: modulation angular frequency omega in rad/us.
    envelope: "gaussian" (exp(-(t/tau)^2), ballistic motion) or
        "exponential" (exp(-t/tau)).
    """

    tau: float
    osc_amp: float = 0.0
    osc_freq: float = 0.0
    envelope: str = "gaussian"

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not 0.0 <= self.osc_amp < 1.0:
            raise ValueError(f"osc_amp must be in [0, 1), got {self.osc_amp}")
        if self.envelope not in ("gaussian", "exponential"):
            raise ValueError(f"envelope must be 'gaussian' or 'exponential', got {self.envelope!r}")


@dataclass(frozen=True)
class LifetimePoint:
    """Witness fidelity bound at one storage time."""

    t: float
    fidelity_bound: float

    def __post_init__(self):
        # [-0.5, 1] is the reachable range of 1/2 - <W>/2; allow float dust.
        if not -0.5 - 1e-9 <= self.fidelity_bound <= 1.0 + 1e-9:
            raise ValueError(f"fidelity_bound out of [-0.5, 1]: {self.fidelity_bound}")


def coherence_retention(t: float, params: StorageNoiseParams) -> float:
    """gamma(t): off-diagonal retention factor, clamped to [0, 1]."""
    if not 0 <= t < math.inf:
        raise ValueError(f"storage time must be finite and >= 0, got {t}")
    phase = params.osc_freq * t
    if not math.isfinite(phase):
        raise ValueError(f"modulation phase osc_freq * t must be finite, got {phase}")
    try:
        if params.envelope == "gaussian":
            env = math.exp(-((t / params.tau) ** 2))
        else:
            env = math.exp(-t / params.tau)
    except OverflowError:  # (t / tau)^2 beyond the float range: nothing retained
        env = 0.0
    g = env * (1.0 - params.osc_amp * (1.0 - math.cos(phase)) / 2.0)
    return min(max(g, 0.0), 1.0)


def _dephase(entries: np.ndarray, retention: float) -> np.ndarray:
    """Both memory qubits of the cluster's ``entries`` dephased with ``retention``, by one mask."""
    return entries * np.power(retention, _FLIPS)


def apply_storage(rho: DensityMatrix, t: float, params: StorageNoiseParams) -> DensityMatrix:
    """Memory qubits (3, 4) dephased independently by gamma(t) after ``t`` us of storage."""
    return DensityMatrix(4, _dephase(rho.entries, coherence_retention(t, params)))


@dataclass(frozen=True)
class NoiseModel:
    """The stored cluster's noise: preparation imperfections, then dephasing
    of the memory qubits for ``storage_time`` microseconds (none when
    ``storage`` is None)."""

    prep: PreparationParams = IDEAL_PREP
    storage: StorageNoiseParams | None = None
    storage_time: float = 0.0

    def __post_init__(self):
        if self.storage_time < 0:
            raise ValueError(f"storage_time must be >= 0, got {self.storage_time}")


def _noisy_entries(model: NoiseModel) -> np.ndarray:
    """The unvalidated array of ``noisy_cluster(model)``."""
    rho = prepare_cluster(model.prep).entries
    if model.storage is None:
        return rho
    return _dephase(rho, coherence_retention(model.storage_time, model.storage))


def noisy_cluster(model: NoiseModel) -> DensityMatrix:
    """The cluster prepared with ``model.prep``, then stored if ``model`` has storage noise."""
    return DensityMatrix(4, _noisy_entries(model))


def lifetime_curve(times, prep: PreparationParams, noise: StorageNoiseParams) -> list:
    """Witness fidelity bound of the stored cluster at each time in ``times``.

    ``times`` must be sorted ascending.
    """
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted ascending")
    rho0 = prepare_cluster(prep)
    points = []
    for t in times:
        rho = DensityMatrix(4, _dephase(rho0.entries, coherence_retention(t, noise)))
        points.append(LifetimePoint(t, evaluate_witness(rho).fidelity_lower_bound))
    return points


def _tau_for(t: float, g: float, envelope: str) -> float:
    """Decay constant whose envelope retains ``g`` at storage time ``t``."""
    return t / math.sqrt(-math.log(g)) if envelope == "gaussian" else -t / math.log(g)


class CalibrationError(ValueError):
    """Raised when no parameters reach the targets; carries the best residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (best residual {residual:.4f})")
        self.residual = residual


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated parameters and the achieved max target error."""

    prep: PreparationParams
    noise: StorageNoiseParams
    residual: float


# Reduced-pair fidelity anchors fixing how preparation imperfection is split
# between the polarization-like pair (coherent imbalance) and the spatial pair
# (white noise).  The two calibration targets constrain only two of the three
# free parameters (r, p_w, tau); the split keeps the third direction pinned.
POLARIZATION_FIDELITY_ANCHOR = 0.885
SPATIAL_FIDELITY_ANCHOR = 0.955

#: Largest max |bound - target| a calibrated model may have.
RESIDUAL_LIMIT = 0.01


def _prep_for_scale(scale: float) -> PreparationParams:
    # Bell fidelity of the imbalanced pair is (1+r)^2 / (2(1+r^2)) = (1+R)/2
    # with R = 2r/(1+r^2); invert F -> r on the r <= 1 branch.  Every scale
    # that keeps f_pol > 1/2 keeps p_w below 1.
    f_pol = 1.0 - scale * (1.0 - POLARIZATION_FIDELITY_ANCHOR)
    f_spa = 1.0 - scale * (1.0 - SPATIAL_FIDELITY_ANCHOR)
    if f_pol <= 0.5:
        raise ValueError("scale drives the polarization pair below separability")
    big_r = 2.0 * f_pol - 1.0
    r = 1.0 if big_r >= 1.0 else (1.0 - math.sqrt(1.0 - big_r * big_r)) / big_r
    return PreparationParams(theta=0.0, imbalance=r, spatial_white_noise=4.0 * (1.0 - f_spa) / 3.0)


#: Retentions within this distance of 0 or 1 are moved inside [0, 1]: a
#: retention of exactly 0 or 1 has no finite decay constant.  2^-43 is the
#: resolution of a 42-step bisection on [0, 1] (the test oracle), so a target
#: on an edge resolves as it does there.
_EDGE_RETENTION = 2.0**-43


def _bound_knots(rho0: DensityMatrix) -> tuple:
    """Witness bound at retentions 0, 1/2 and 1; the quadratic through them is exact."""
    return tuple(evaluate_witness(DensityMatrix(4, _dephase(rho0.entries, g)))
                 .fidelity_lower_bound for g in (0.0, 0.5, 1.0))


def _solve_retention(knots: tuple, target: float):
    """Retention gamma with bound(gamma) = target, or None if out of range.

    ``knots`` are the state's ``_bound_knots``, so one state costs three
    witness evaluations however many targets it is solved for.  A returned
    gamma lies in [2^-43, 1 - 2^-43].
    """
    b0, bh, b1 = knots
    if target > b1 + 1e-12 or target < b0 - 1e-12:
        return None
    # Roots of c0 + c1 g + c2 g^2, the bound minus the target.
    c0, c1, c2 = b0 - target, 4.0 * bh - 3.0 * b0 - b1, 2.0 * (b0 + b1 - 2.0 * bh)
    if abs(c2) <= 1e-12 * abs(c1):
        # Linear; a flat bound (c1 = 0) meets the target at either edge.
        roots = (-c0 / c1 if c1 else float(c0 < 0.0),)
    else:
        # Numerically stable pair q / c2, c0 / q; q = 0 only for c1 = 0 <= c0 c2.
        q = -0.5 * (c1 + math.copysign(math.sqrt(max(c1 * c1 - 4.0 * c2 * c0, 0.0)), c1))
        roots = (q / c2, c0 / q) if q else (0.0,)
    # The root in [0, 1], or the nearest one when float dust or the range
    # check's 1e-12 slack puts it just outside.
    root = min(roots, key=lambda g: max(-g, g - 1.0))
    return min(max(root, _EDGE_RETENTION), 1.0 - _EDGE_RETENTION)


def calibrate(targets: dict | None = None, *, envelope: str = "gaussian") -> CalibrationResult:
    """Fit (imbalance, white noise, tau) to witness-bound targets.

    ``targets`` maps storage time (us) to the desired fidelity bound; the
    default asks for 0.80 at 2.27 us and 0.50 at 14.27 us.  Preparation
    imperfection is scaled along the anchor split until two targets imply one
    decay constant (it stays ideal for one target, or when even ideal
    preparation decays too slowly between the two); tau then puts the bound on
    the first target.  The residual is the max absolute target error of the
    full simulation pipeline; above RESIDUAL_LIMIT, CalibrationError carries it.
    """
    if targets is None:
        targets = dict(DEFAULT_CALIBRATION_TARGETS)
    items = sorted(targets.items())
    if not items:
        raise ValueError("at least one calibration target is required")
    if len(items) > 2:
        raise ValueError("calibration supports at most two targets")
    for t, f in items:
        if t < 0:
            raise ValueError(f"target time must be >= 0, got {t}")
        if f > 1.0 + 1e-12:
            raise CalibrationError(f"bound target {f} exceeds 1", residual=f - 1.0)
    scale = _two_target_scale(items, envelope) if len(items) == 2 else 0.0
    t1, f1 = items[0]
    prep = _prep_for_scale(scale)
    knots = _bound_knots(prepare_cluster(prep))
    # gamma(0) = 1 for every tau, so a target at t = 0 leaves tau unconstrained;
    # a target out of reach takes the nearest edge retention.
    g1 = 1.0 if t1 == 0.0 else _solve_retention(knots, f1)
    if g1 is None:
        g1 = _EDGE_RETENTION if f1 < knots[0] else 1.0 - _EDGE_RETENTION
    tau = UNCONSTRAINED_TAU if g1 >= 1.0 else _tau_for(t1, g1, envelope)
    noise = StorageNoiseParams(tau=tau, envelope=envelope)
    achieved = lifetime_curve([t for t, _ in items], prep, noise)
    residual = max(abs(p.fidelity_bound - f) for p, (_, f) in zip(achieved, items))
    if residual > RESIDUAL_LIMIT:
        raise CalibrationError("no model meets the targets within the residual limit "
                               f"{RESIDUAL_LIMIT}", residual=residual)
    return CalibrationResult(prep=prep, noise=noise, residual=residual)


def _two_target_scale(items: list, envelope: str) -> float:
    """Imperfection scale at which both targets imply the same decay constant."""
    (t1, f1), (t2, f2) = items
    if f2 >= f1:
        # A dephasing-only curve is non-increasing; a later-but-larger target
        # is unreachable.  The best flat curve sits at the midpoint.
        raise CalibrationError(
            f"targets require the bound to rise from {f1} at {t1} us to {f2} at {t2} us",
            residual=(f2 - f1) / 2.0,
        )
    if t1 <= 0:
        raise CalibrationError(
            "two-target calibration needs both times strictly positive",
            residual=float("inf"),
        )
    try:
        exponent_ratio = (t2 / t1) ** (2 if envelope == "gaussian" else 1)
    except OverflowError:
        raise CalibrationError(f"target times {t1} and {t2} us are too far apart",
                               residual=float("inf")) from None

    def decays_too_fast(scale: float) -> bool:
        """Whether the tau that meets the first target undershoots the second;
        a scale past the feasible edge (no such tau) counts as not."""
        try:
            knots = _bound_knots(prepare_cluster(_prep_for_scale(scale)))
        except ValueError:
            return False
        g1, g2 = _solve_retention(knots, f1), _solve_retention(knots, f2)
        return g1 is not None and g2 is not None and math.log(g2) >= exponent_ratio * math.log(g1)

    # Bracket the edge in the imperfection scale, then bisect it.  Every scale
    # >= 4.35 is past the feasible edge, so the scan stops there at the latest.
    if not decays_too_fast(0.0):
        return 0.0
    lo, hi = 0.0, 0.1
    while decays_too_fast(hi):
        lo, hi = hi, hi + 0.1
    for _ in range(44):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if decays_too_fast(mid) else (lo, mid)
    return 0.5 * (lo + hi)
