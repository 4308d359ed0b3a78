"""Seeded op lists for the benchmark workloads, and the check of each op's artifact.

An op is a dict: ``argv`` (what ``onewaysim.cli.main`` receives), ``check``
(which output check applies, with its parameters) and ``rotations`` (how many
one-way rotations the op requests, the base of ``mbqc.prepares_per_rotation``).
The program sees only ``argv``.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

# The default calibrated model, rounded, so explicit-noise ops skip calibrate().
EXPLICIT_NOISE = ["--imbalance", "0.446333", "--spatial-white-noise", "0.066685",
                  "--tau", "20.8212"]
SWEEP_POINTS = 17  # 0..2pi in pi/8 steps

# Target ranges of the characterize workload; every corner calibrates with a
# residual below 1e-11.
T1_RANGE, F1_RANGE = (2.0, 3.0), (0.76, 0.84)
T2_RANGE, F2_RANGE = (12.0, 16.0), (0.46, 0.54)

# Noisy 1e3-shot reconstructions need 500 to 1,450 ML iterations depending on
# the sampled counts, so drawing their data from the workload seed would make
# the op list's cost vary by about 30% per op between seeds.  Their data
# therefore comes from a fixed panel (sampling seed j at storage time 5j us);
# the workload seed varies the other ops and the order.
NOISY_TOMOGRAPHY_PANEL = 4
IDEAL_TOMOGRAPHY_OPS = 8
TABLE_PAIRS = 2

# 800 ops: p90 has 80 beyond it, and a repetition is short enough for about
# ten of them in a run, over which each op's latency is a median.
ROTATE_OPS = 750
NOISELESS_ROTATE_OPS = 20
SWEEP_OPS = 30
VERIFY_OPS = 5


def _text(x: float) -> str:
    return f"{x:.6f}"


def _flags(n: int, share: float, rng: random.Random) -> list:
    """Exactly round(share * n) True values in seeded positions."""
    k = round(share * n)
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


def _stratified(n: int, lo: float, hi: float, rng: random.Random) -> list:
    """One seeded draw from each of n equal slices of [lo, hi], in seeded order.

    Calibration cost depends on the targets, so stratifying keeps the cost of
    the whole list steadier from seed to seed than independent draws would.
    """
    slices = rng.sample(range(n), n)
    return [lo + (k + rng.random()) * (hi - lo) / n for k in slices]


def characterize(rng: random.Random, work_dir: str) -> list:
    kinds = rng.sample(["witness_t1", "witness_t2", "lifetime", "sweep"], 4)
    targets_per_op = zip(*(_stratified(len(kinds), *r, rng)
                           for r in (T1_RANGE, F1_RANGE, T2_RANGE, F2_RANGE)))
    ops = []
    for kind, targets in zip(kinds, targets_per_op):
        t1, f1, t2, f2 = (float(_text(v)) for v in targets)
        calibrated = ["--calibrated", "--target-t1", _text(t1), "--target-f1", _text(f1),
                      "--target-t2", _text(t2), "--target-f2", _text(f2)]
        if kind.startswith("witness"):
            t, f = (t1, f1) if kind == "witness_t1" else (t2, f2)
            argv = ["witness", *calibrated, "--storage-time", _text(t)]
            check = {"kind": "witness", "bound": f}
        elif kind == "lifetime":
            argv = ["lifetime", *calibrated]
            check = {"kind": "lifetime"}
        else:
            argv = ["sweep", *calibrated, "--mode", rng.choice(["rx", "rz"])]
            check = {"kind": "sweep", "rows": SWEEP_POINTS}
        ops.append({"argv": argv, "check": check,
                    "rotations": SWEEP_POINTS if kind == "sweep" else 0})
    return ops


def tomography(rng: random.Random, work_dir: str) -> list:
    units = []
    for j in range(NOISY_TOMOGRAPHY_PANEL):
        argv = ["tomography", "--shots", "1000", "--seed", str(j), *EXPLICIT_NOISE,
                "--storage-time", _text(5.0 * j)]
        units.append([{"argv": argv, "check": {"kind": "tomography", "ideal": False}}])
    for _ in range(IDEAL_TOMOGRAPHY_OPS):
        argv = ["tomography", "--shots", "100000", "--seed", str(rng.randrange(2**31))]
        units.append([{"argv": argv, "check": {"kind": "tomography", "ideal": True}}])
    for k in range(TABLE_PAIRS):
        path = f"{work_dir}/tables-{k}.jsonl"
        write = ["tomography", "--shots", "10000", "--seed", str(rng.randrange(2**31)),
                 "--tables-out", path]
        units.append([{"argv": write, "check": {"kind": "tomography", "ideal": False}},
                      {"argv": ["tomography", "--tables-in", path],
                       "check": {"kind": "tables_in"}}])
    rng.shuffle(units)
    return [op for unit in units for op in unit]


def feedforward(rng: random.Random, work_dir: str) -> list:
    def angles():
        return ["--alpha", _text(rng.uniform(0, 2 * math.pi)),
                "--beta", _text(rng.uniform(0, 2 * math.pi))]

    def noisy(sampled: bool, no_ff: bool) -> list:
        argv = [*EXPLICIT_NOISE, "--storage-time", _text(rng.uniform(0.0, 15.0))]
        if sampled:
            argv += ["--shots", "1000", "--seed", str(rng.randrange(2**31))]
        if no_ff:
            argv.append("--no-feedforward")
        return argv

    ops = []
    sampled, no_ff = _flags(ROTATE_OPS, 0.5, rng), _flags(ROTATE_OPS, 0.2, rng)
    verify = _flags(ROTATE_OPS, VERIFY_OPS / ROTATE_OPS, rng)
    for i in range(ROTATE_OPS):
        argv = ["rotate", *angles(), *noisy(sampled[i], no_ff[i])]
        if verify[i]:
            argv.append("--verify")
        ops.append({"argv": argv, "check": {"kind": "rotate", "noiseless": False},
                    "rotations": 1})
    for _ in range(NOISELESS_ROTATE_OPS):
        ops.append({"argv": ["rotate", "--noiseless", *angles()],
                    "check": {"kind": "rotate", "noiseless": True}, "rotations": 1})
    sampled, no_ff = _flags(SWEEP_OPS, 0.5, rng), _flags(SWEEP_OPS, 0.2, rng)
    per_branch, rx = _flags(SWEEP_OPS, 0.5, rng), _flags(SWEEP_OPS, 0.5, rng)
    for i in range(SWEEP_OPS):
        argv = ["sweep", "--mode", "rx" if rx[i] else "rz", *noisy(sampled[i], no_ff[i])]
        if per_branch[i]:
            argv.append("--per-branch")
        rows = SWEEP_POINTS * (5 if per_branch[i] else 1)
        ops.append({"argv": argv, "check": {"kind": "sweep", "rows": rows},
                    "rotations": SWEEP_POINTS})
    rng.shuffle(ops)
    return ops


WORKLOADS = {"characterize": characterize, "tomography": tomography,
             "feedforward": feedforward}


def op_list(workload: str, seed: int, work_dir: str) -> list:
    """The workload's ops; the same (workload, seed, work_dir) gives the same list."""
    ops = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work_dir)
    for i, op in enumerate(ops):
        op["index"] = i
        op.setdefault("rotations", 0)
    return ops


# --- output checks ----------------------------------------------------------

def _csv_rows(text: str) -> list:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_fidelities(rows: list) -> str | None:
    for row in rows:
        if not 0.0 <= float(row["fidelity"]) <= 1.0:
            return f"fidelity {row['fidelity']} outside [0, 1]"
    return None


def _check_tomography(payload: dict, ideal: bool) -> str | None:
    d = payload["dimension"]
    rho = np.zeros((d, d), dtype=np.complex128)
    for i, j, re, im in payload["rho_entries"]:
        rho[i, j] = re + 1j * im
    min_eig = float(np.linalg.eigvalsh(rho).min())
    trace = float(np.trace(rho).real)
    if min_eig < -1e-9:
        return f"rho_hat has eigenvalue {min_eig:.3e} < -1e-9"
    if abs(trace - 1.0) > 1e-10:
        return f"rho_hat trace {trace!r} is not 1 +- 1e-10"
    if ideal and not payload["fidelity_vs_C4"] >= 0.98:
        return f"ideal fidelity_vs_C4 {payload['fidelity_vs_C4']} < 0.98"
    if ideal and not payload["converged"]:
        return "ideal reconstruction did not converge"
    return None


def _check_tables_in(text: str, written: str) -> str | None:
    # The sampling op also records its seed, which a --tables-in run cannot
    # know; everything else must match byte for byte.
    expected = json.loads(written)
    expected.pop("seed", None)
    if text != json.dumps(expected, sort_keys=True, indent=2) + "\n":
        return "--tables-in artifact differs from its --tables-out artifact"
    return None


def check(op: dict, text: str, previous: str) -> str | None:
    """None when the artifact passes the op's check, else the reason it fails.

    ``previous`` is the artifact of the op before; a ``--tables-in`` op always
    follows the ``--tables-out`` op that wrote its tables.
    """
    spec = op["check"]
    kind = spec["kind"]
    if kind == "witness":
        bound = json.loads(text)["bound"]
        if abs(bound - spec["bound"]) > 0.01:
            return f"witness bound {bound} not within 0.01 of target {spec['bound']}"
        return None
    if kind == "lifetime":
        bounds = [float(r["fidelity_bound"]) for r in _csv_rows(text)]
        if any(b > a + 1e-12 for a, b in zip(bounds, bounds[1:])):
            return "lifetime bounds increase by more than 1e-12"
        return None
    if kind == "sweep":
        rows = _csv_rows(text)
        if len(rows) != spec["rows"]:
            return f"sweep has {len(rows)} rows, expected {spec['rows']}"
        return _check_fidelities(rows)
    if kind == "tomography":
        return _check_tomography(json.loads(text), spec["ideal"])
    if kind == "tables_in":
        return _check_tables_in(text, previous)
    if kind == "rotate":
        payload = json.loads(text)
        total = sum(b["probability"] for b in payload["branches"].values())
        if abs(total - 1.0) > 1e-9:
            return f"branch probabilities sum to {total!r}"
        if spec["noiseless"] and abs(payload["fidelity"] - 1.0) > 1e-9:
            return f"noiseless feedforward fidelity {payload['fidelity']!r} is not 1 +- 1e-9"
        return _check_fidelities([payload])
    raise ValueError(f"unknown check kind {kind!r}")
