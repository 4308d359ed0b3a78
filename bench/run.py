"""onewaysim benchmark: one workload at one seed, timed or traced.

    python3 bench/run.py --workload {characterize,tomography,feedforward} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it measures the package in the
checkout's ``src/``.  The workload's op list is generated from the seed
(``workloads.py``) and issued by one closed-loop caller: a fresh Python
process (``worker.py``) that runs the ops one after another through
``onewaysim.cli.main``.  Interpreter and BLAS threads are pinned to one.

``--trace 0`` repeats the op list in fresh processes until ``--seconds`` is
spent (at least three times), with set-up-only processes between the
repetitions.  Every time is host-scaled: multiplied by ``reference.REF_S``
over the time of the fixed routine of ``reference.py`` sampled while it ran
(by a thread of the worker for an op, by a thread here for a set-up process),
so that the host's slow and fast states do not move the metrics.  The same
argv does the same work in every repetition, so each op gets the median of its
scaled latencies over the repetitions: ``wall_s`` is their sum, ``op_p50_ms``
and ``op_p90_ms`` their percentiles over the op list.  ``setup_s`` is the
median scaled set-up time and ``peak_rss_mb`` the median over the repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py`` (unscaled) plus ``trace_overhead_frac``.

Stdout gets one provenance line (JSON under the key ``provenance``: versions,
thread settings, seed, reproducing command, artifact digest, sample counts,
unscaled per-repetition times and the reference routine's times) and, last,
the result line.  An op fails when it exits non-zero, raises, or its artifact
fails its check; ``failed`` counts those over every repetition.  The
benchmark exits non-zero without a result when the checkout has no onewaysim
source or a worker process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads only add jitter on 16x16 matrices; set before numpy loads here
# or in a worker.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import numpy  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = ".bench_work"  # relative to ROOT; written into tables-file argv
MIN_REPS = 3
SETUP_PROBES_PER_REP = 2
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    """A worker process failed or timed out."""


def spawn(ops: Path, result: Path, mode: str) -> dict:
    """Run one worker process in ``mode``; its measurements plus ``setup_span``.

    ``setup_span`` runs from the spawn until the worker was ready, in this
    process's ``time.perf_counter``.
    """
    argv = [sys.executable, str(BENCH / "worker.py"), str(ops), str(result), mode]
    result.unlink(missing_ok=True)
    span_start, start = time.perf_counter(), time.monotonic()
    try:
        subprocess.run(argv, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise WorkerError(str(exc)) from exc
    out = json.loads(result.read_text())
    out["setup_span"] = (span_start, span_start + out["ready"] - start)
    return out


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "onewaysim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def wall_s(rep: dict) -> float:
    return sum(end - start for start, end in rep["spans"])


def op_latencies(reps: list) -> list:
    """Each op's median host-scaled latency over the repetitions, in op order."""
    return [statistics.median(op)
            for op in zip(*(reference.scaled(r["spans"], r["ref"]) for r in reps))]


def timed_metrics(setups: list, reps: list) -> dict:
    lat = op_latencies(reps)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def traced_metrics(plain: list, traced: list) -> dict:
    import tracing

    names = traced[0]["layers"]
    metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                      "unit": tracing.unit(name)} for name in names}
    overhead = sum(op_latencies(traced)) / sum(op_latencies(plain)) - 1.0
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def measure(args, ops: Path, result: Path):
    """(host-scaled set-up times, untraced reps, traced reps) within the time budget.

    A ``reference.Sampler`` runs here throughout, so that the set-up-only
    processes, which end before they could sample, are scaled too.
    """
    deadline = time.monotonic() + args.seconds
    setup_spans, plain, traced = [], [], []
    with reference.Sampler() as sampler:
        while True:
            start = time.monotonic()
            if not args.trace:
                setup_spans += [spawn(ops, result, "setup")["setup_span"]
                                for _ in range(SETUP_PROBES_PER_REP)]
            plain.append(spawn(ops, result, "run"))
            if args.trace:
                traced.append(spawn(ops, result, "trace"))
            elif len(plain) < MIN_REPS:
                continue
            now = time.monotonic()
            if now + (now - start) > deadline:  # another rep would overrun
                break
    return reference.scaled(setup_spans, sampler.samples), plain, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "onewaysim" / "cli.py").is_file():
        print(f"error: no onewaysim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / WORK_DIR
    work.mkdir(exist_ok=True)
    ops = workloads.op_list(args.workload, args.seed, WORK_DIR)
    ops_path, result = work / "ops.json", work / "result.json"
    ops_path.write_text(json.dumps(ops))

    try:
        setups, plain, traced = measure(args, ops_path, result)
        metrics = traced_metrics(plain, traced) if args.trace else timed_metrics(setups, plain)
    except (WorkerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    failures = [f for rep in reps for f in rep["failures"]]
    attempted = len(ops) * len(reps)
    digests = sorted({rep["digest"] for rep in reps})
    command = (f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
               f"--seconds {args.seconds:g} --trace {args.trace}")
    provenance = {
        "workload": args.workload, "seed": args.seed, "command": command,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "git_sha": git_sha(), "source_sha256": source_sha256(),
        # The reference routine's median time in each repetition.
        "reference_s_per_rep": {
            kind: [statistics.median(s for _, s in r["ref"]) for r in rs]
            for kind, rs in (("untraced", plain), ("traced", traced))},
        "artifact_sha256": digests,
        # Timed metrics take each op's median host-scaled latency over the
        # untraced reps; per-layer metrics are medians over traced reps.
        "samples": {"setup_s": len(setups), "untraced_reps": len(plain),
                    "traced_reps": len(traced), "ops_per_rep": len(ops)},
        "unscaled_wall_s_per_rep": {"untraced": [wall_s(r) for r in plain],
                                    "traced": [wall_s(r) for r in traced]},
        "fail_frac": len(failures) / attempted,
        "failures": failures[:5],
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
