"""Measurement bases, Born probabilities, and count generation.

Outcome convention used everywhere: outcome ``0`` is the projection onto
``|a+> = (|0> + e^{i a}|1>)/sqrt(2)`` (or ``|0>`` in the computational basis),
outcome ``1`` the orthogonal partner.  The feedforward bookkeeping in the
rotation protocol relies on this labeling; it is guarded by the branch oracle
tests rather than assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qcore import StateVector, density

COMPUTATIONAL = "computational"
EQUATORIAL = "equatorial"

_PAULI_ANGLES = {"X": 0.0, "Y": math.pi / 2.0}


@dataclass(frozen=True)
class MeasurementBasis:
    """Single-qubit basis: computational {|0>,|1>} or equatorial {|a+>,|a->}."""

    kind: str
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in (COMPUTATIONAL, EQUATORIAL):
            raise ValueError(f"kind must be computational or equatorial, got {self.kind!r}")
        if self.kind == COMPUTATIONAL and self.angle != 0.0:
            raise ValueError("computational basis takes no angle")
        if not np.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle}")

    @classmethod
    def equatorial(cls, angle: float) -> "MeasurementBasis":
        return cls(EQUATORIAL, float(angle))

    @classmethod
    def computational(cls) -> "MeasurementBasis":
        return cls(COMPUTATIONAL)

    @classmethod
    def pauli(cls, label: str) -> "MeasurementBasis":
        """Eigenbasis of a Pauli: X, Y (equatorial) or Z (computational)."""
        if label == "Z":
            return cls.computational()
        if label in _PAULI_ANGLES:
            return cls.equatorial(_PAULI_ANGLES[label])
        raise ValueError(f"Pauli label must be X, Y or Z, got {label!r}")

    def to_token(self) -> str:
        """Compact serialization token; Pauli bases keep their letter."""
        if self.kind == COMPUTATIONAL:
            return "Z"
        for label, angle in _PAULI_ANGLES.items():
            if self.angle == angle:
                return label
        return f"eq:{self.angle!r}"

    @classmethod
    def from_token(cls, token: str) -> "MeasurementBasis":
        if token in ("X", "Y", "Z"):
            return cls.pauli(token)
        if token.startswith("eq:"):
            return cls.equatorial(float(token[3:]))
        raise ValueError(f"unknown basis token {token!r}")


def basis_vectors(basis: MeasurementBasis):
    """Kets (v0, v1) of the two outcomes, outcome 0 first."""
    if basis.kind == COMPUTATIONAL:
        v0 = np.array([1, 0], dtype=np.complex128)
        v1 = np.array([0, 1], dtype=np.complex128)
    else:
        phase = np.exp(1j * basis.angle)
        v0 = np.array([1, phase], dtype=np.complex128) / np.sqrt(2.0)
        v1 = np.array([1, -phase], dtype=np.complex128) / np.sqrt(2.0)
    return v0, v1


@dataclass(frozen=True)
class MeasurementSetting:
    """One basis per qubit of a register."""

    bases: tuple

    def __post_init__(self):
        bases = tuple(self.bases)
        if not bases:
            raise ValueError("setting needs at least one qubit basis")
        for b in bases:
            if not isinstance(b, MeasurementBasis):
                raise ValueError("setting entries must be MeasurementBasis values")
        object.__setattr__(self, "bases", bases)

    @property
    def n_qubits(self) -> int:
        return len(self.bases)

    @classmethod
    def from_pauli_labels(cls, labels: str) -> "MeasurementSetting":
        return cls(tuple(MeasurementBasis.pauli(c) for c in labels))

    def to_tokens(self) -> list:
        return [b.to_token() for b in self.bases]

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "MeasurementSetting":
        return cls(tuple(MeasurementBasis.from_token(t) for t in tokens))


def outcome_kets(setting: MeasurementSetting) -> np.ndarray:
    """All 2^n outcome kets of a setting, row o = ket of bitstring o (np.kron's products)."""
    rows = np.array([[1.0 + 0j]])
    for b in setting.bases:
        m = np.vstack(basis_vectors(b))
        rows = (rows[:, None, :, None] * m[None, :, None, :]).reshape(2 * len(rows), -1)
    return rows


def pauli_settings(n_qubits: int) -> list:
    """All 3^n Pauli-eigenbasis settings, the standard informationally complete set."""
    labels = ["X", "Y", "Z"]
    settings = [""]
    for _ in range(n_qubits):
        settings = [s + c for s in settings for c in labels]
    return [MeasurementSetting.from_pauli_labels(s) for s in settings]


@dataclass(frozen=True)
class CountTable:
    """Outcome counts for one measurement setting."""

    setting: MeasurementSetting
    shots: int
    counts: dict

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        n = self.setting.n_qubits
        total = 0
        for bits, c in self.counts.items():
            if len(bits) != n or any(b not in "01" for b in bits):
                raise ValueError(f"bad outcome bitstring {bits!r}")
            if c < 0:
                raise ValueError(f"negative count for {bits!r}")
            total += c
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots = {self.shots}")

    def to_json(self) -> str:
        return json.dumps({
            "setting": self.setting.to_tokens(),
            "shots": self.shots,
            "counts": {k: int(v) for k, v in sorted(self.counts.items())},
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CountTable":
        data = json.loads(text)
        return cls(
            setting=MeasurementSetting.from_tokens(data["setting"]),
            shots=int(data["shots"]),
            counts={k: int(v) for k, v in data["counts"].items()},
        )


@dataclass(frozen=True)
class RandomSource:
    """Reproducible random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream_id))

    def stream(self, offset: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream_id + offset)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomSource):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ValueError(f"rng must be a RandomSource or numpy Generator, got {type(rng).__name__}")


def setting_probabilities(rho, setting: MeasurementSetting) -> np.ndarray:
    """Born probabilities over all 2^n outcome bitstrings of one setting.  The
    einsum keeps an exact 0 where a matrix product leaves a residue such as 1e-34,
    and a zero-probability outcome consumes no multinomial draw."""
    if rho.n_qubits != setting.n_qubits:
        raise ValueError("setting does not cover the register")
    if isinstance(rho, StateVector):
        rho = density(rho)
    rows = outcome_kets(setting).conj()
    probs = np.real(np.einsum("oi,ij,oj->o", rows, rho.entries, rows.conj()))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def sample_counts(rho, settings: Sequence[MeasurementSetting], shots: int, rng: RandomSource) -> list:
    """Multinomial counts for each setting, one independent stream per setting.

    Table ``i`` is drawn from ``rng.stream(i + 1)``, so results are
    reproducible per (seed, setting index) regardless of evaluation order.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not isinstance(rng, RandomSource):
        raise ValueError("sample_counts needs a RandomSource for per-setting streams")
    tables = []
    for i, setting in enumerate(settings):
        probs = setting_probabilities(rho, setting)
        gen = rng.stream(i + 1).generator()
        drawn = gen.multinomial(shots, probs)
        n = setting.n_qubits
        counts = {
            format(o, f"0{n}b"): int(c) for o, c in enumerate(drawn) if c > 0
        }
        tables.append(CountTable(setting=setting, shots=shots, counts=counts))
    return tables
