"""Per-layer tracing of onewaysim from outside the package.

``install`` wraps the public functions listed below, and the constructors'
validation of ``DensityMatrix``/``QuantumChannel``, so that each call records a
span (layer name, op index, start, end, parent span) in memory.  A name bound
by ``from .x import y`` is a separate binding, so every ``onewaysim`` module
that holds the function gets the wrapper.  ``summarize`` turns the spans into
the per-layer metrics: call counts, self time (span time minus the time of its
direct child spans) and the work ratios.

Only traced benchmark runs import this module; timed runs never do.

Run ``python3 bench/tracing.py SCENARIO [options]`` to trace one CLI
invocation and print its per-layer metrics, e.g. the witness evaluations of
one ``witness --calibrated``.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("qcore", "cluster", "noise", "measure", "tomo", "mbqc", "cli")

# (module, function) pairs, traced under the name "module.function".
FUNCTIONS = (
    ("noise", "calibrate"), ("noise", "apply_storage"), ("noise", "lifetime_curve"),
    ("cluster", "evaluate_witness"), ("cluster", "prepare_cluster"),
    ("qcore", "apply_channel"), ("qcore", "apply_unitary"), ("qcore", "permute_qubits"),
    ("qcore", "fidelity"), ("qcore", "partial_trace"),
    ("measure", "sample_counts"), ("measure", "setting_probabilities"),
    ("tomo", "reconstruct"),
    ("mbqc", "run_rotation"), ("mbqc", "to_lin3"), ("mbqc", "sweep"),
    ("mbqc", "branch_verify"),
    ("cli", "main"), ("cli", "render_artifact"),
)
# (module, class, method, traced name)
METHODS = (
    ("qcore", "DensityMatrix", "__post_init__", "qcore.density_matrix"),
    ("qcore", "QuantumChannel", "__post_init__", "qcore.quantum_channel"),
    ("measure", "CountTable", "to_json", "measure.count_table_json"),
    ("measure", "CountTable", "from_json", "measure.count_table_json"),
)

# Which metrics of each traced name the benchmark reports.
REPORTED = {
    "noise.calibrate": ("calls", "self_s"),
    "noise.apply_storage": ("calls", "self_s"),
    "noise.lifetime_curve": ("self_s",),
    "cluster.evaluate_witness": ("calls", "self_s"),
    "cluster.prepare_cluster": ("calls", "self_s"),
    "qcore.apply_channel": ("calls", "self_s"),
    "qcore.density_matrix": ("calls", "self_s"),
    "qcore.quantum_channel": ("calls", "self_s"),
    "qcore.apply_unitary": ("self_s",),
    "qcore.permute_qubits": ("self_s",),
    "qcore.fidelity": ("self_s",),
    "qcore.partial_trace": ("self_s",),
    "measure.sample_counts": ("calls", "self_s"),
    "measure.setting_probabilities": ("calls",),
    "measure.count_table_json": ("self_s",),
    "tomo.reconstruct": ("calls", "self_s"),
    "mbqc.run_rotation": ("calls", "self_s"),
    "mbqc.to_lin3": ("calls", "self_s"),
    "mbqc.sweep": ("calls", "self_s"),
    "mbqc.branch_verify": ("self_s",),
    "cli.main": ("self_s",),
    "cli.render_artifact": ("self_s",),
}

NAME, OP, START, END, PARENT = range(5)


def unit(metric: str) -> str:
    if metric.endswith("_s") or metric == "tomo.s_per_iteration":
        return "s"
    if metric.endswith(".calls") or metric == "tomo.ml_iterations":
        return "count"
    return "ratio"


class Tracer:
    """In-memory span recorder; ``op`` is the index of the op being run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.reconstructions = []  # (iterations_used, converged) per report

    def wrap(self, fn, name: str, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, self.op, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _note_report(self, report) -> None:
        self.reconstructions.append((report.iterations_used, report.converged))


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method in the imported onewaysim package."""
    package = importlib.import_module("onewaysim")
    modules = {m: importlib.import_module(f"onewaysim.{m}") for m in LAYERS}
    holders = [package, *modules.values()]
    for module, attr in FUNCTIONS:
        original = getattr(modules[module], attr)
        hook = tracer._note_report if (module, attr) == ("tomo", "reconstruct") else None
        wrapped = tracer.wrap(original, f"{module}.{attr}", hook)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
    for module, cls_name, attr, name in METHODS:
        cls = getattr(modules[module], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name)))
        else:
            setattr(cls, attr, tracer.wrap(raw, name))


def _has_ancestor(spans: list, index: int, names: tuple) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def summarize(tracer: Tracer, rotations: int) -> dict:
    """Per-layer metrics from the recorded spans.

    ``rotations`` is the number of one-way rotations the ops requested, the
    base of ``mbqc.prepares_per_rotation``.  A ratio whose base is 0 on this
    workload reads 0.
    """
    spans = tracer.spans
    calls, self_s = {}, {}
    for span in spans:
        name, duration = span[NAME], span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]][NAME]
            self_s[parent] = self_s.get(parent, 0.0) - duration

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name, kinds in REPORTED.items():
        if "calls" in kinds:
            metrics[f"{name}.calls"] = calls.get(name, 0)
        if "self_s" in kinds:
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    calibrations = calls.get("noise.calibrate", 0)
    evals_in_calibration = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "cluster.evaluate_witness"
        and _has_ancestor(spans, i, ("noise.calibrate",)))
    prepares_in_rotation = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "cluster.prepare_cluster"
        and _has_ancestor(spans, i, ("mbqc.run_rotation", "mbqc.sweep")))
    iterations = sum(it for it, _ in tracer.reconstructions)
    reconstructions = len(tracer.reconstructions)
    metrics.update({
        "noise.witness_evals_per_calibration": ratio(evals_in_calibration, calibrations),
        "tomo.ml_iterations": iterations,
        "tomo.ml_iterations_per_reconstruction": ratio(iterations, reconstructions),
        "tomo.s_per_iteration": ratio(self_s.get("tomo.reconstruct", 0.0), iterations),
        "tomo.converged_frac": ratio(sum(c for _, c in tracer.reconstructions),
                                     reconstructions),
        "mbqc.prepares_per_rotation": ratio(prepares_in_rotation, rotations),
    })
    return metrics


if __name__ == "__main__":
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    cli = importlib.import_module("onewaysim.cli")
    tracer = Tracer()
    install(tracer)
    code = cli.main(sys.argv[1:])
    print(json.dumps(summarize(tracer, rotations=0), indent=2, sort_keys=True),
          file=sys.stderr)
    sys.exit(code)
