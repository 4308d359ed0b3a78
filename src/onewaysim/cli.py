"""Scenario runner: reproducible command-line experiments emitting figure data.

Each scenario exercises only public library operations and writes one artifact
(JSON or CSV) to ``--out`` or stdout.  Outputs are deterministic for a fixed
seed: numbers are emitted at full round-trip precision, keys are sorted, CSV
records use '.' decimals and newline terminators.

Exit codes: 0 ok, 2 config error, 3 infeasible calibration, 4 invariant
violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import cluster, mbqc, measure, noise, qcore, timing, tomo

SCENARIOS = ("witness", "lifetime", "tomography", "rotate", "sweep", "budget")

#: Most points a lifetime grid may have (t_max / t_step + 1).
MAX_LIFETIME_POINTS = 100_000
#: Exclusive upper bound on a shot count, from --shots or a tables file (int64).
MAX_SHOTS = 2**63


class ConfigError(ValueError):
    """Invalid scenario configuration (exit code 2)."""


def _opt(default, **meta):
    """A ScenarioConfig field with parser metadata: ``help``, ``choices``, ``aliases``,
    ``angle`` (accepts pi forms) and ``group``, the part of the sampled model it
    sets: sampling, source, prep, storage (these two make up a noise file) or
    target (calibration targets)."""
    return field(default=default, metadata=meta)


@dataclass
class ScenarioConfig:
    """Flat configuration; every key can come from flags or a key=value file.

    The flags, the config-file keys and their parsing are all derived from
    these fields: ``--name-with-dashes`` per field, a store-true switch for a
    bool (``--x/--no-x`` when it defaults to True).
    """

    scenario: str = ""
    alpha: float = _opt(0.0, angle=True)
    beta: float = _opt(0.0, angle=True)
    shots: int = _opt(0, group="sampling")
    seed: int = _opt(0, group="sampling")
    out: Optional[str] = None
    format: Optional[str] = _opt(None, choices=("json", "csv"))  # None = csv for tables, else json
    verify: bool = False
    noise_file: Optional[str] = None
    tables_in: Optional[str] = _opt(
        None, help="reconstruct from count tables (JSON lines) instead of sampling")
    tables_out: Optional[str] = _opt(
        None, help="also write the sampled count tables as JSON lines")
    # preparation
    theta: float = _opt(0.0, angle=True, group="prep")
    imbalance: float = _opt(1.0, group="prep")
    spatial_white_noise: float = _opt(0.0, group="prep")
    ideal: bool = _opt(False, aliases=("--noiseless",), group="source",
                       help="no preparation or storage noise")
    calibrated: bool = _opt(False, group="source", help="use the calibrated noise model")
    # storage noise
    tau: Optional[float] = _opt(None, group="storage")
    osc_amp: float = _opt(0.0, group="storage")
    osc_freq: float = _opt(0.0, group="storage")
    envelope: str = _opt("gaussian", choices=("gaussian", "exponential"), group="storage")
    storage_time: Optional[float] = _opt(None, group="storage")  # None = t1 if calibrated, else 0
    # rotation / sweep
    feedforward: bool = True
    mode: str = _opt("rz", choices=mbqc.SWEEP_MODES)
    per_branch: bool = False
    # lifetime grid and calibration targets
    t_max: float = 25.0
    t_step: float = 0.5
    target_t1: float = _opt(min(noise.DEFAULT_CALIBRATION_TARGETS), group="target")
    target_f1: float = _opt(noise.DEFAULT_CALIBRATION_TARGETS[target_t1.default], group="target")
    target_t2: float = _opt(max(noise.DEFAULT_CALIBRATION_TARGETS), group="target")
    target_f2: float = _opt(noise.DEFAULT_CALIBRATION_TARGETS[target_t2.default], group="target")
    # latency budget
    eom_response: float = timing.REFERENCE_BUDGET.eom_response
    optical_propagation: float = timing.REFERENCE_BUDGET.optical_propagation
    signal_processing: float = timing.REFERENCE_BUDGET.signal_processing
    storage_before_first_readout: float = timing.REFERENCE_BUDGET.storage_before_first_readout
    coherence_time: float = timing.REFERENCE_BUDGET.coherence_time


def parse_angle(text: str) -> float:
    """Float radians; accepts 'pi' forms such as pi/4, 3pi/4, -pi, 0.5pi."""
    s = str(text).strip().lower().replace(" ", "")
    if "pi" not in s:
        try:
            return float(s)
        except ValueError as exc:
            raise ConfigError(f"cannot parse angle {text!r}") from exc
    head, _, tail = s.partition("pi")
    try:
        if head in ("", "+"):
            num = 1.0
        elif head == "-":
            num = -1.0
        else:
            num = float(head)
        den = 1.0
        if tail:
            if not tail.startswith("/"):
                raise ValueError
            den = float(tail[1:])
        return num * math.pi / den
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse angle {text!r}") from exc


def _kind(f, hints: dict):
    """Parser of a field's text: bool, int, float, str or parse_angle."""
    if f.metadata.get("angle"):
        return parse_angle
    hint = hints[f.name]
    return (get_args(hint) or (hint,))[0]  # Optional[T] -> T


_FIELDS = fields(ScenarioConfig)
_HINTS = get_type_hints(ScenarioConfig)
_FIELD_KINDS = {f.name: _kind(f, _HINTS) for f in _FIELDS}
_CHOICES = {f.name: f.metadata["choices"] for f in _FIELDS if "choices" in f.metadata}
_DEFAULTS = {f.name: f.default for f in _FIELDS}


def _group(*groups: str) -> tuple:
    """Names of the fields tagged with one of ``groups``, in field order."""
    return tuple(f.name for f in _FIELDS if f.metadata.get("group") in groups)


_PREP_KEYS, _STORAGE_KEYS, _TARGET_KEYS = _group("prep"), _group("storage"), _group("target")
_NOISE_FILE_KEYS = _group("prep", "storage")
# Everything that shapes sampled counts, which --tables-in replaces.
_SAMPLING_KEYS = _group("sampling", "source", "prep", "storage", "target")


def _coerce(key: str, raw) -> object:
    """Value of field ``key`` from flag or config-file text (a bool from a switch)."""
    kind = _FIELD_KINDS[key]
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        text = raw.strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean for {key}: {raw!r}")
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}: {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {raw!r}")
    choices = _CHOICES.get(key)
    if choices is not None and value not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _flag_kwargs(f) -> dict:
    kwargs = {"dest": f.name, "default": None, "help": f.metadata.get("help")}
    if _FIELD_KINDS[f.name] is bool:
        kwargs["action"] = argparse.BooleanOptionalAction if f.default else "store_true"
    else:
        kwargs["choices"] = _CHOICES.get(f.name)
    return kwargs


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


_FLAGS = tuple(((_flag(f.name), *f.metadata.get("aliases", ())), _flag_kwargs(f)) for f in _FIELDS)


def read_key_value_file(path: str) -> dict:
    """Parse a flat key=value text file; '#' starts a comment line."""
    data = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        data[key.strip()] = value.strip()
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onewaysim",
        description="Cluster-state one-way computing scenarios: witness, lifetime, "
                    "tomography, rotate, sweep, budget.",
    )
    parser.add_argument("scenario_pos", nargs="?", metavar="SCENARIO",
                        help=f"one of {', '.join(SCENARIOS)}")
    parser.add_argument("--config", help="key=value config file; flags override it")
    for flags, kwargs in _FLAGS:
        parser.add_argument(*flags, **kwargs)
    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use; parsing leaves it unchanged."""
    return build_parser()


def _apply_file(config: ScenarioConfig, path: str, allowed, label: str) -> None:
    for key, raw in read_key_value_file(path).items():
        if key not in allowed:
            raise ConfigError(f"unknown {label} key {key!r}")
        setattr(config, key, _coerce(key, raw))


def parse_args(argv=None) -> ScenarioConfig:
    """Merge defaults, config file, and flags (in increasing precedence)."""
    args = _shared_parser().parse_args(argv)
    config = ScenarioConfig()
    if args.config:
        _apply_file(config, args.config, _FIELD_KINDS, "config")
    noise_file = config.noise_file if args.noise_file is None else args.noise_file
    if noise_file:
        _apply_file(config, noise_file, _NOISE_FILE_KEYS, "noise-file")
    for key in _FIELD_KINDS:
        raw = getattr(args, key)
        if raw is not None:
            setattr(config, key, _coerce(key, raw))
    if args.scenario_pos is not None:
        config.scenario = args.scenario_pos

    if config.scenario not in SCENARIOS:
        raise ConfigError(
            f"scenario must be one of {', '.join(SCENARIOS)}, got {config.scenario!r}"
        )
    if not 0 <= config.shots < MAX_SHOTS:
        raise ConfigError(f"shots must be in [0, 2^63), got {config.shots}")
    if not 0 <= config.seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2^64), got {config.seed}")
    if config.storage_time is not None and config.storage_time < 0:
        raise ConfigError(f"storage_time must be >= 0, got {config.storage_time}")
    return config


def _calibration_targets(config: ScenarioConfig) -> dict:
    if config.target_t1 == config.target_t2:
        raise ConfigError(f"calibration target times must differ, both are {config.target_t1}")
    if min(config.target_t1, config.target_t2) < 0:
        raise ConfigError(f"calibration target times must be >= 0, got "
                          f"{config.target_t1} and {config.target_t2}")
    return {config.target_t1: config.target_f1, config.target_t2: config.target_f2}


def _given(config: ScenarioConfig, keys) -> list:
    """Flags of ``keys`` whose value differs from its default (flag or file alike)."""
    return [_flag(k) for k in keys if getattr(config, k) != _DEFAULTS[k]]


def _exclude(config: ScenarioConfig, keys, rule: str) -> None:
    """Config error by ``rule`` naming the given flags of ``keys``, if any."""
    given = _given(config, keys)
    if given:
        raise ConfigError(rule.format(", ".join(given)))


def _check_model_source(config: ScenarioConfig) -> None:
    """Config error unless the model comes from one source."""
    if not config.calibrated:
        _exclude(config, _TARGET_KEYS, "{}: calibration targets need --calibrated")
    if config.ideal:
        rule = "--ideal/--noiseless excludes {}"
        excluded = ("calibrated", *_PREP_KEYS, *_STORAGE_KEYS)
    elif config.calibrated:
        rule, excluded = "--calibrated fits prep and tau; it excludes {}", ("tau", *_PREP_KEYS)
    else:
        rule = "{}: no storage model to apply to; pass --tau or --calibrated"
        excluded = () if config.tau is not None else _STORAGE_KEYS  # holds tau, unset here
    _exclude(config, excluded, rule)


def _resolve_model(config: ScenarioConfig) -> noise.NoiseModel:
    """The noise model of the one model source: ``--ideal``, ``--calibrated``
    or the explicit preparation with an optional ``--tau``; the modulation
    flags apply on top of either envelope.  Without ``--storage-time`` the
    calibrated model stores for ``--target-t1``, the explicit one for 0 us."""
    _check_model_source(config)
    t = config.storage_time
    if config.calibrated:
        result = noise.calibrate(_calibration_targets(config), envelope=config.envelope)
        prep, tau = result.prep, result.noise.tau
        t = config.target_t1 if t is None else t
    else:
        try:
            prep = cluster.PreparationParams(theta=config.theta, imbalance=config.imbalance,
                                             spatial_white_noise=config.spatial_white_noise)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if config.tau is None:
            return noise.NoiseModel(prep)
        tau, t = config.tau, 0.0 if t is None else t
    try:
        storage = noise.StorageNoiseParams(tau=tau, osc_amp=config.osc_amp,
                                           osc_freq=config.osc_freq, envelope=config.envelope)
        noise.coherence_retention(t, storage)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return noise.NoiseModel(prep, storage, t)


def _run_witness(config: ScenarioConfig):
    report = cluster.evaluate_witness(noise.noisy_cluster(_resolve_model(config)))
    return {
        "expectation": report.expectation,
        "bound": report.fidelity_lower_bound,
        "genuinely_entangled": report.genuinely_entangled,
    }


def _run_lifetime(config: ScenarioConfig):
    model = _resolve_model(config)
    if model.storage is None:
        raise ConfigError("lifetime needs storage noise: pass --calibrated or --tau")
    if config.t_step <= 0 or config.t_max < 0:
        raise ConfigError("need t_step > 0 and t_max >= 0")
    steps = config.t_max / config.t_step + 1e-9
    if not steps < MAX_LIFETIME_POINTS:
        raise ConfigError(f"lifetime grid t_max / t_step = {steps:.6g} exceeds the limit "
                          f"of {MAX_LIFETIME_POINTS} points")
    times = [i * config.t_step for i in range(int(steps) + 1)]
    try:
        noise.coherence_retention(times[-1], model.storage)  # checks the largest modulation phase
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    points = noise.lifetime_curve(times, model.prep, model.storage)
    return ["t_us", "fidelity_bound"], [[p.t, p.fidelity_bound] for p in points]


def _read_tables(path: str) -> list:
    """Count tables from a JSON-lines file; any malformed line is a config error."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read tables file {path}: {exc}") from exc
    tables = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                table = measure.CountTable.from_json(line)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad count table: {exc!r}") from exc
            if not table.shots < MAX_SHOTS:
                raise ConfigError(f"{path}:{lineno}: shots must be in [1, 2^63), got {table.shots}")
            if tables and table.setting.n_qubits != tables[0].setting.n_qubits:
                raise ConfigError(f"{path}:{lineno}: table covers {table.setting.n_qubits} "
                                  f"qubits, the first covers {tables[0].setting.n_qubits}")
            tables.append(table)
    if not tables:
        raise ConfigError(f"tables file {path} holds no count tables")
    return tables


def _run_tomography(config: ScenarioConfig):
    if config.tables_in:
        _exclude(config, _SAMPLING_KEYS, "--tables-in reconstructs from recorded counts; "
                                         "it excludes {}")
        tables = _read_tables(config.tables_in)
    else:
        rho = noise.noisy_cluster(_resolve_model(config))
        shots = config.shots if config.shots >= 1 else 1000
        settings = measure.pauli_settings(4)
        tables = measure.sample_counts(rho, settings, shots, measure.RandomSource(config.seed))
    if config.tables_out:
        text = "\n".join(t.to_json() for t in tables) + "\n"
        Path(config.tables_out).write_text(text)
    try:
        report = tomo.reconstruct(tables)
    except tomo.IncompleteSettingsError as exc:
        raise ConfigError(str(exc)) from exc
    payload = tomo.report_to_json_dict(report)
    shots = {t.shots for t in tables}
    payload["shots_per_setting"] = shots.pop() if len(shots) == 1 else None  # None: mixed
    payload["n_settings"] = len(tables)
    if not config.tables_in:
        payload["seed"] = config.seed
    return payload


def _rotation_request(config: ScenarioConfig) -> mbqc.RotationRequest:
    return mbqc.RotationRequest(
        alpha=config.alpha, beta=config.beta,
        feedforward_enabled=config.feedforward,
        shots=config.shots, noise=_resolve_model(config),
    )


def _run_rotate(config: ScenarioConfig):
    result = mbqc.run_rotation(_rotation_request(config), measure.RandomSource(config.seed))
    payload = mbqc.result_to_json_dict(result)
    payload["alpha"] = config.alpha
    payload["beta"] = config.beta
    payload["feedforward"] = config.feedforward
    payload["shots"] = config.shots
    payload["seed"] = config.seed
    return payload


def _run_sweep(config: ScenarioConfig):
    points = mbqc.sweep(config.mode, _rotation_request(config),
                        noise_tag="calibrated" if config.calibrated else None,
                        rng=measure.RandomSource(config.seed))
    return mbqc.sweep_to_csv_rows(points, per_branch=config.per_branch)


def _run_budget(config: ScenarioConfig):
    _exclude(config, _SAMPLING_KEYS, "budget takes no noise model or sampling; it excludes {}")
    terms = {f.name: getattr(config, f.name) for f in fields(timing.LatencyBudget)}
    try:
        budget = timing.LatencyBudget(**terms)
        steps = timing.max_steps(budget)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return {
        "cycle_us": timing.cycle_time(budget),
        "max_steps": steps,
        "note": timing.MAX_STEPS_FORMULA_NOTE,
    }


_RUNNERS = {
    "witness": _run_witness,
    "lifetime": _run_lifetime,
    "tomography": _run_tomography,
    "rotate": _run_rotate,
    "sweep": _run_sweep,
    "budget": _run_budget,
}


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# float.__repr__ of the values JSON spells differently.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _render_json(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _render_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, by the same rules in the
    same order, without the pure-Python encoder that ``indent`` makes json use."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NONFINITE.get(text, text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_render_json(v, inner) for v in value]
        brackets = "[]"
    elif isinstance(value, dict):
        items = [encode_basestring_ascii(_json_key(k)) + ": " + _render_json(v, inner)
                 for k, v in sorted(value.items())]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def render_artifact(payload, fmt: str) -> str:
    """Serialize a scenario result: dict or (header, rows) table."""
    is_table = isinstance(payload, tuple)
    if fmt == "json":
        if is_table:
            header, rows = payload
            payload = [dict(zip(header, row)) for row in rows]
        return _render_json(payload) + "\n"
    if is_table:
        header, rows = payload
        lines = [",".join(header)]
        lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    else:
        lines = ["key,value"] + [f"{k},{_csv_cell(v)}" for k, v in sorted(payload.items())]
    return "\n".join(lines) + "\n"


def emit_figure_data(payload, fmt: str, out: Optional[str]) -> list:
    """Write the rendered artifact to ``out`` (or stdout); returns paths written."""
    text = render_artifact(payload, fmt)
    if out is None:
        sys.stdout.write(text)
        return []
    path = Path(out)
    try:
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out}: {exc}") from exc
    return [path]


def _require(ok: bool, message: str) -> None:
    """Raise AssertionError (exit code 4) unless ``ok``; unlike assert, also under -O."""
    if not ok:
        raise AssertionError(message)


def verify_invariants(scenario: str) -> None:
    """Fast invariant suite run before emitting when --verify is set."""
    ideal = cluster.evaluate_witness(cluster.prepare_cluster(cluster.IDEAL_PREP))
    _require(abs(ideal.expectation + 1.0) < 1e-10, "ideal witness expectation must be -1")
    _require(abs(ideal.fidelity_lower_bound - 1.0) < 1e-10, "ideal witness bound must be 1")
    for term in cluster.witness_stabilizer_terms():
        val = qcore.expectation(cluster.cluster_statevector(), term)
        _require(abs(val - 1.0) < 1e-10, "witness term must stabilize the cluster")
    if scenario in ("lifetime", "witness", "tomography"):
        params = noise.StorageNoiseParams(tau=5.0, osc_amp=0.3, osc_freq=2.0)
        for t in np.linspace(0.0, 40.0, 81):
            g = noise.coherence_retention(float(t), params)
            _require(0.0 <= g <= 1.0, "retention must stay in [0, 1]")
        mixed = qcore.maximally_mixed(4)
        out = noise.apply_storage(mixed, 3.0, params)
        _require(np.abs(out.entries - mixed.entries).max() < 1e-10, "storage must be unital")
    if scenario in ("rotate", "sweep"):
        for alpha in (0.0, math.pi / 3, math.pi):
            for beta in (0.0, math.pi / 2):
                ok, residuals = mbqc.branch_verify(alpha, beta)
                _require(ok, f"branch identity failed: {residuals}")
    if scenario == "budget":
        base = timing.REFERENCE_BUDGET
        longer = replace(base, coherence_time=base.coherence_time + 5.0)
        _require(timing.max_steps(longer) >= timing.max_steps(base),
                 "max_steps must grow with coherence time")


def run(config: ScenarioConfig) -> int:
    """Execute one scenario; returns the process exit code."""
    runner = _RUNNERS.get(config.scenario)
    if runner is None:
        raise ConfigError(f"unknown scenario {config.scenario!r}")
    if config.scenario != "tomography":
        _exclude(config, ("tables_in", "tables_out"),
                 f"{{}}: count tables belong to tomography, not {config.scenario}")
    if config.verify:
        verify_invariants(config.scenario)
    payload = runner(config)
    fmt = config.format or ("csv" if isinstance(payload, tuple) else "json")
    emit_figure_data(payload, fmt, config.out)
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except noise.CalibrationError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
