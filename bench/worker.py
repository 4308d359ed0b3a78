"""One fresh process that issues a workload's op list through ``onewaysim.cli.main``.

    python3 bench/worker.py OPS RESULT {setup,run,trace}

OPS is a JSON file with the op list; RESULT receives the measurements as
JSON.  The process records when ``onewaysim.cli`` is imported and the first
op can be issued (``time.monotonic``, which is system-wide, so the parent can
subtract its spawn time).  ``setup`` stops there; ``run`` then times each
``cli.main(argv)`` call with stdout and stderr captured, checks each artifact
outside the timed call, and hashes every artifact in order; ``trace`` does the
same with the per-layer tracing of ``tracing.py`` installed.  Meanwhile a
background thread times the fixed routine of ``reference.py``, which gives the
host's speed during every op; the result holds each op's start and end and
those samples.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (VmHWM).

    ``ru_maxrss`` would not do: it survives exec, so it can report the
    spawning process's size instead of the worker's.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_ops(cli, ops: list, tracer) -> dict:
    import workloads

    previous, spans, failures = "", [], []
    digest = hashlib.sha256()
    for op in ops:
        i = op["index"]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        reason = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
            except Exception as exc:  # an op that raises is a failed op, not a crash
                code, reason = None, f"raised {type(exc).__name__}: {exc}"
            spans.append((start, time.perf_counter()))
        text = out.getvalue()
        digest.update(f"{i}:{len(text)}:".encode())
        digest.update(text.encode())
        if reason is None and code != 0:
            reason = f"exit code {code}: {err.getvalue().strip()[:200]}"
        if reason is None:
            try:
                reason = workloads.check(op, text, previous)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unreadable artifact: {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append([i, reason])
        previous = text
    return {"spans": spans, "failures": failures, "digest": digest.hexdigest()}


def main() -> None:
    ops_path, result_path, mode = sys.argv[1:4]
    sys.path.insert(0, str(ROOT / "src"))
    import onewaysim.cli as cli

    ops = json.loads(Path(ops_path).read_text())
    ready = time.monotonic()
    source = Path(cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        sys.exit(f"onewaysim was imported from {source}, not from this checkout")
    result = {"ready": ready}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        import reference

        with reference.Sampler() as sampler:
            result.update(run_ops(cli, ops, tracer))
        result["ref"] = sampler.samples
        result["rss_mb"] = peak_rss_mb()
        if tracer is not None:
            rotations = sum(op["rotations"] for op in ops)
            result["layers"] = tracing.summarize(tracer, rotations)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
