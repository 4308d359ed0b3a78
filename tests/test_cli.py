import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewaysim.cli import _render_json, main, parse_angle, render_artifact, ConfigError


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


def test_parse_angle_forms():
    assert parse_angle("0.5") == 0.5
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
    assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_angle("2pi") == pytest.approx(2 * math.pi)
    with pytest.raises(ConfigError):
        parse_angle("two pies")


def test_witness_ideal_json(tmp_path):
    code, out = run_cli(["witness", "--ideal"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["expectation"] == pytest.approx(-1.0, abs=1e-10)
    assert payload["bound"] == pytest.approx(1.0, abs=1e-10)
    assert payload["genuinely_entangled"] is True


def test_witness_runs_with_verify(tmp_path):
    code, out = run_cli(["witness", "--ideal", "--verify"], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["genuinely_entangled"] is True


def test_budget_json(tmp_path):
    code, out = run_cli(["budget"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["cycle_us"] == pytest.approx(1.69, abs=1e-12)
    assert payload["max_steps"] == 7
    assert "note" in payload


def test_sweep_noiseless_csv(tmp_path):
    code, out = run_cli(["sweep", "--mode", "rz", "--noiseless"], tmp_path)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "angle_rad,fidelity,mode,noise_tag"
    assert len(lines) == 18  # header + 17 points
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[1]) == pytest.approx(1.0, abs=1e-9)
        assert fields[2] == "rz"
        assert fields[3] == "noiseless"


def test_rotate_json_branches(tmp_path):
    code, out = run_cli(["rotate", "--alpha", "pi/4", "--beta", "pi/4"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload["branches"]) == {"00", "01", "10", "11"}
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)


NOISE = ["--imbalance", "0.446333", "--spatial-white-noise", "0.066685", "--tau", "20.8212"]


@pytest.mark.parametrize("argv,frequencies", [
    (["--alpha", "1.879025", "--beta", "0.935895", "--storage-time", "1.834674",
      "--seed", "751090000"], {"00": 0.219, "01": 0.211, "10": 0.294, "11": 0.276}),
    (["--alpha", "5.277501", "--beta", "5.829649", "--storage-time", "8.889658",
      "--seed", "1196800052"], {"00": 0.297, "01": 0.332, "10": 0.196, "11": 0.175}),
    (["--alpha", "0.880012", "--beta", "2.607959", "--storage-time", "14.730766",
      "--seed", "2024100047", "--no-feedforward"],
     {"00": 0.307, "01": 0.306, "10": 0.209, "11": 0.178}),
    (["--alpha", "0.596696", "--beta", "0.986690", "--storage-time", "8.235782",
      "--seed", "827306531", "--no-feedforward"],
     {"00": 0.335, "01": 0.358, "10": 0.151, "11": 0.156}),
])
def test_sampled_rotate_branch_frequencies_golden(argv, frequencies, tmp_path):
    # Every model gives P(s3|s2) = 1/2, where numpy's binomial switches
    # algorithm, so a 1e-16 drift in the exact weights swaps these counts.
    code, out = run_cli(["rotate", *NOISE, "--shots", "1000", *argv], tmp_path)
    assert code == 0
    branches = json.loads(out.read_text())["branches"]
    assert {k: b["probability"] for k, b in branches.items()} == frequencies


def test_lifetime_calibrated_crosses_half_near_reference_time(tmp_path):
    code, out = run_cli(
        ["lifetime", "--calibrated", "--t-max", "25", "--t-step", "0.5"], tmp_path
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_us,fidelity_bound"
    assert len(lines) == 2 + 50  # header + 51 grid points
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    crossing = [t for (t, b), (t2, b2) in zip(rows, rows[1:]) if b >= 0.5 > b2]
    assert len(crossing) == 1
    assert abs(crossing[0] - 14.27) < 0.5


def test_lifetime_requires_noise(tmp_path):
    out = tmp_path / "x.csv"
    code = main(["lifetime", "--out", str(out)])
    assert code == 2


def test_unknown_scenario_exit_2(tmp_path):
    code = main(["teleport"])
    assert code == 2


def test_infeasible_calibration_exit_3(tmp_path):
    code = main(
        ["lifetime", "--calibrated", "--target-f1", "0.5", "--target-f2", "0.9",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=witness\nimbalance=0.5\n")
    out_a = tmp_path / "a.json"
    assert main(["--config", str(cfg), "--out", str(out_a)]) == 0
    payload_a = json.loads(out_a.read_text())
    assert payload_a["expectation"] > -1.0 + 1e-6  # imperfect preparation

    out_b = tmp_path / "b.json"
    assert main(["--config", str(cfg), "--imbalance", "1.0", "--out", str(out_b)]) == 0
    payload_b = json.loads(out_b.read_text())
    assert payload_b["expectation"] == pytest.approx(-1.0, abs=1e-10)


def test_config_unknown_key_exit_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=witness\nwavelength=795\n")
    assert main(["--config", str(cfg)]) == 2


def test_noise_file_keys(tmp_path):
    nf = tmp_path / "noise.cfg"
    nf.write_text("tau=5.0\nstorage_time=2.0\nimbalance=0.8\n")
    out = tmp_path / "w.json"
    assert main(["witness", "--noise-file", str(nf), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["expectation"] > -1.0 + 1e-4

    bad = tmp_path / "bad.cfg"
    bad.write_text("detuning=10\n")
    assert main(["witness", "--noise-file", str(bad)]) == 2


def test_tomography_scenario_payload(tmp_path):
    code, out = run_cli(["tomography", "--shots", "200", "--seed", "4"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["dimension"] == 16
    assert len(payload["rho_entries"]) == 256
    assert payload["fidelity_vs_C4"] > 0.9
    assert payload["n_settings"] == 81


def test_witness_csv_format(tmp_path):
    code, out = run_cli(["witness", "--format", "csv"], tmp_path, "w.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("expectation,") for line in lines)


def test_sweep_per_branch_rows(tmp_path):
    code, out = run_cli(["sweep", "--mode", "rx", "--per-branch"], tmp_path, "s.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "angle_rad,fidelity,mode,noise_tag,branch_s2,branch_s3"
    assert len(lines) == 1 + 17 * 5


def test_byte_identical_reruns(tmp_path):
    scenarios = [
        ["witness", "--ideal"],
        ["budget"],
        ["sweep", "--mode", "rz"],
        ["rotate", "--alpha", "pi/4", "--beta", "pi/4", "--shots", "200", "--seed", "5"],
        ["tomography", "--shots", "100", "--seed", "3"],
    ]
    for i, args in enumerate(scenarios):
        _, first = run_cli(args, tmp_path, f"first_{i}.txt")
        _, second = run_cli(args, tmp_path, f"second_{i}.txt")
        assert first.read_bytes() == second.read_bytes()


def test_tomography_tables_round_trip(tmp_path):
    tables = tmp_path / "tables.jsonl"
    out_a = tmp_path / "a.json"
    code = main(["tomography", "--shots", "150", "--seed", "6",
                 "--tables-out", str(tables), "--out", str(out_a)])
    assert code == 0
    assert len(tables.read_text().splitlines()) == 81

    out_b = tmp_path / "b.json"
    code = main(["tomography", "--tables-in", str(tables), "--out", str(out_b)])
    assert code == 0
    payload_a = json.loads(out_a.read_text())
    payload_b = json.loads(out_b.read_text())
    payload_a.pop("seed")
    assert payload_a == payload_b


def test_invariant_violation_exit_4(tmp_path, monkeypatch):
    import onewaysim.cli as cli_mod

    def broken(scenario):
        raise AssertionError("forced invariant failure")

    monkeypatch.setattr(cli_mod, "verify_invariants", broken)
    code = main(["witness", "--verify", "--out", str(tmp_path / "w.json")])
    assert code == 4


def test_console_entry_point(tmp_path):
    out = tmp_path / "8.json"
    proc = subprocess.run(
        [sys.executable, "-m", "onewaysim.cli", "budget", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["max_steps"] == 7


def test_stdout_when_no_out(capsys):
    assert main(["witness", "--ideal"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["bound"] == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------ config errors

@pytest.mark.parametrize("argv", [
    ["rotate", "--alpha", "nan"],
    ["rotate", "--alpha", "pi/0"],
    ["witness", "--tau", "5", "--storage-time", "nan"],
    ["witness", "--calibrated", "--target-t1", "3", "--target-t2", "3"],
    ["witness", "--calibrated", "--target-t1", "-1"],
    ["witness", "--calibrated", "--target-t2", "-3"],
    ["lifetime", "--tau", "5", "--t-max", "inf"],
    ["budget", "--coherence-time", "inf"],
    ["budget", "--eom-response", "-1"],
    ["budget", "--coherence-time", "1e308", "--eom-response", "1e-300",
     "--optical-propagation", "0", "--signal-processing", "0"],
    ["rotate", "--seed", "99999999999999999999"],
    ["rotate", "--seed", str(2**64)],
    ["rotate", "--shots", "100000000000000000000"],
    ["rotate", "--shots", str(2**63)],
    ["tomography", "--shots", str(10**20)],
    ["rotate", "--alpha", "inf"],
    ["rotate", "--beta=-inf"],
    ["witness", "--tau", "3", "--storage-time", "inf"],
    ["rotate", "--tau", "5", "--storage-time", "1", "--osc-amp", "0.5", "--osc-freq", "inf"],
    ["rotate", "--tau", "5", "--storage-time", "10", "--osc-amp", "0.5", "--osc-freq", "1e308"],
    ["lifetime", "--tau", "5", "--osc-amp", "0.5", "--osc-freq", "1e308"],
    # The calibrated model takes the same modulation checks and fits tau itself.
    ["witness", "--calibrated", "--storage-time", "3", "--osc-amp", "0.5", "--osc-freq", "1e308"],
    ["witness", "--calibrated", "--storage-time", "3", "--tau", "3"],
    # One model source: --ideal/--noiseless, --calibrated, or explicit flags.
    ["witness", "--ideal", "--imbalance", "0.5"],
    ["witness", "--noiseless", "--tau", "3", "--storage-time", "5"],
    ["witness", "--ideal", "--calibrated"],
    ["rotate", "--noiseless", "--osc-amp", "0.3"],
    ["witness", "--calibrated", "--storage-time", "3", "--imbalance", "0.2",
     "--spatial-white-noise", "0.9"],
    ["witness", "--calibrated", "--theta", "pi/8"],
    # Storage flags without a storage model (--tau or --calibrated).
    ["witness", "--storage-time", "5", "--imbalance", "0.5"],
    ["rotate", "--osc-amp", "0.3", "--osc-freq", "2"],
    ["sweep", "--envelope", "exponential"],
    # Calibration targets without --calibrated.
    ["witness", "--target-t1", "3", "--target-f1", "0.9"],
    ["lifetime", "--tau", "5", "--target-t2", "12"],
    ["rotate", "--noiseless", "--target-f2", "0.45"],
    # An explicit storage time, even 0, needs a storage model.
    ["rotate", "--storage-time", "0"],
    # An imbalance whose square overflows is a config error, not an invariant violation.
    ["witness", "--imbalance", "1e200"],
    ["rotate", "--imbalance", "1e300"],
])
def test_bad_values_exit_2(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("config_text,noise_text", [
    ("scenario=witness\nideal=true\n", "imbalance=0.5\n"),
    ("scenario=witness\ncalibrated=true\n", "spatial_white_noise=0.1\n"),
    ("scenario=witness\n", "storage_time=5\n"),
], ids=["ideal", "calibrated", "no-storage-model"])
def test_model_source_conflict_from_files_exit_2(config_text, noise_text, tmp_path, capsys):
    cfg, nf = tmp_path / "run.cfg", tmp_path / "noise.cfg"
    cfg.write_text(config_text)
    nf.write_text(noise_text)
    assert main(["--config", str(cfg), "--noise-file", str(nf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_default_config_reads_library_defaults():
    from dataclasses import fields

    from onewaysim import noise, timing
    from onewaysim.cli import ScenarioConfig, _calibration_targets

    config = ScenarioConfig()
    assert _calibration_targets(config) == noise.DEFAULT_CALIBRATION_TARGETS
    terms = {f.name: getattr(config, f.name) for f in fields(timing.LatencyBudget)}
    assert timing.LatencyBudget(**terms) == timing.REFERENCE_BUDGET


def test_ideal_prep_fit_within_residual_limit_exit_0(tmp_path):
    # Ideal preparation meets these targets to 0.004, inside the 0.01 limit.
    assert main(["lifetime", "--calibrated", "--target-t1", "1.8", "--target-f1", "0.42",
                 "--target-t2", "19", "--target-f2", "-0.004",
                 "--out", str(tmp_path / "x.csv")]) == 0


def test_calibrated_applies_modulation_flags(tmp_path):
    from dataclasses import replace

    from onewaysim.cluster import evaluate_witness, prepare_cluster
    from onewaysim.noise import apply_storage, calibrate

    argv = ["witness", "--calibrated", "--storage-time", "3"]
    plain, modulated = tmp_path / "plain.json", tmp_path / "modulated.json"
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--osc-amp", "0.5", "--osc-freq", "2", "--out", str(modulated)]) == 0
    cal = calibrate()
    storage = replace(cal.noise, osc_amp=0.5, osc_freq=2.0)
    expected = evaluate_witness(apply_storage(prepare_cluster(cal.prep), 3.0, storage))
    bound = json.loads(modulated.read_text())["bound"]
    assert bound == expected.fidelity_lower_bound
    assert bound != json.loads(plain.read_text())["bound"]


def test_calibrated_storage_time_zero_is_the_prepared_cluster(tmp_path):
    from onewaysim.cluster import evaluate_witness, prepare_cluster
    from onewaysim.noise import apply_storage, calibrate

    cal = calibrate()
    code, out = run_cli(["witness", "--calibrated", "--storage-time", "0"], tmp_path, "0.json")
    assert code == 0
    bound = json.loads(out.read_text())["bound"]
    assert bound == evaluate_witness(prepare_cluster(cal.prep)).fidelity_lower_bound
    assert bound == pytest.approx(0.8097649477904053, abs=1e-12)
    # Without --storage-time the calibrated model stores for --target-t1.
    code, out = run_cli(["witness", "--calibrated"], tmp_path, "t1.json")
    assert code == 0
    stored = evaluate_witness(apply_storage(prepare_cluster(cal.prep), 2.27, cal.noise))
    assert json.loads(out.read_text())["bound"] == stored.fidelity_lower_bound
    assert stored.fidelity_lower_bound == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("flags,named", [
    (["--seed", "3"], ["--seed"]),
    (["--shots", "10"], ["--shots"]),
    (["--imbalance", "0.3"], ["--imbalance"]),
    (["--target-t1", "3", "--imbalance", "0.3"], ["--imbalance", "--target-t1"]),
    (["--calibrated"], ["--calibrated"]),
    (["--noiseless"], ["--ideal"]),
    (["--tau", "3", "--storage-time", "0"], ["--tau", "--storage-time"]),
])
def test_budget_excludes_model_and_sampling_flags(flags, named, tmp_path, capsys):
    assert main(["budget", *flags, "--out", str(tmp_path / "b.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: budget") and err.count("\n") == 1
    assert all(flag in err for flag in named)


def test_vanishing_branch_is_dropped_without_warning(tmp_path, capsys):
    import warnings

    # Two of the four branches have probability r^2: exactly 0 once it
    # underflows (1e-170), subnormal but positive for 1e-160 and 1e-155.
    for imbalance in ("1e-170", "1e-160", "1e-155"):
        for shots in ("0", "100"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out = run_cli(["rotate", "--imbalance", imbalance, "--shots", shots],
                                    tmp_path)
            assert code == 0
            assert capsys.readouterr().err == ""
            branches = json.loads(out.read_text())["branches"]
            assert set(branches) == {"00", "01"}
            total = sum(b["probability"] for b in branches.values())
            assert total == pytest.approx(1.0, abs=1e-12)


def test_largest_seed_accepted(tmp_path):
    assert main(["rotate", "--shots", "10", "--seed", str(2**64 - 1),
                 "--out", str(tmp_path / "r.json")]) == 0


def test_largest_shots_accepted(tmp_path):
    assert main(["rotate", "--shots", str(2**63 - 1), "--out", str(tmp_path / "r.json")]) == 0


def test_far_apart_calibration_targets_exit_3(tmp_path, capsys):
    code = main(["lifetime", "--calibrated", "--target-t2", "1e308",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and err.count("\n") == 1


def test_overflowing_storage_ratio_is_full_dephasing(tmp_path):
    out = tmp_path / "w.json"
    assert main(["witness", "--tau", "1e-100", "--storage-time", "1e100", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["genuinely_entangled"] is False


def test_lifetime_grid_cap_exit_2(tmp_path, capsys):
    import onewaysim.cli as cli_mod

    t_step = 25.0 / (10 * cli_mod.MAX_LIFETIME_POINTS)
    code = main(["lifetime", "--tau", "5", "--t-step", repr(t_step),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cli_mod.MAX_LIFETIME_POINTS) in err


@pytest.mark.parametrize("text", [
    "",
    '{"setting": ["Z", "Z", "Z", "Z"], "counts": {"0000": 1}}\n',
    "not json\n",
    '{"setting": ["Z", "Z", "Z", "Z"], "shots": 1, "counts": {"0000": 1}}\n',
])
def test_malformed_tables_exit_2(text, tmp_path):
    tables = tmp_path / "tables.jsonl"
    tables.write_text(text)
    code = main(["tomography", "--tables-in", str(tables), "--out", str(tmp_path / "t.json")])
    assert code == 2


def _table_line(setting, shots, counts):
    return json.dumps({"setting": setting, "shots": shots, "counts": counts}) + "\n"


@pytest.mark.parametrize("lines,bad_line", [
    # One 3-qubit table among 4-qubit ones.
    ([_table_line(["Z"] * 4, 1, {"0000": 1}), _table_line(["Z"] * 3, 1, {"000": 1}),
      _table_line(["X"] * 4, 1, {"0000": 1})], 2),
    # A complete 1-qubit set whose second table has 10^400 shots (float overflow).
    ([_table_line([c], 10**400 if c == "Y" else 5, {"0": 10**400 if c == "Y" else 5})
      for c in "XYZ"], 2),
    # 10^300 shots still fit a float but not an int64 count.
    ([_table_line([c], 10**300 if c == "Z" else 5, {"1": 10**300 if c == "Z" else 5})
      for c in "XYZ"], 3),
], ids=["mixed-registers", "shots-1e400", "shots-1e300"])
def test_bad_tables_file_exit_2_with_line(lines, bad_line, tmp_path, capsys):
    tables = tmp_path / "tables.jsonl"
    tables.write_text("".join(lines))
    code = main(["tomography", "--tables-in", str(tables), "--out", str(tmp_path / "t.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{tables}:{bad_line}:" in err


def test_tables_shots_bound_is_the_sampling_bound(tmp_path):
    import onewaysim.cli as cli_mod

    good = tmp_path / "good.jsonl"
    good.write_text("".join(_table_line([c], cli_mod.MAX_SHOTS - 1,
                                        {"0": cli_mod.MAX_SHOTS - 1}) for c in "XYZ"))
    assert cli_mod._read_tables(str(good))[0].shots == 2**63 - 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_table_line(["X"], cli_mod.MAX_SHOTS, {"0": cli_mod.MAX_SHOTS}))
    with pytest.raises(cli_mod.ConfigError):
        cli_mod._read_tables(str(bad))


def _one_qubit_tables(shots_x=300):
    """A complete 1-qubit set; the X table may differ in shots from Y and Z."""
    return [_table_line(["X"], shots_x, {"0": shots_x // 2, "1": shots_x - shots_x // 2}),
            _table_line(["Y"], 300, {"0": 150, "1": 150}),
            _table_line(["Z"], 300, {"0": 300})]


@pytest.mark.parametrize("flags,named", [
    (["--shots", "999"], ["--shots"]),
    (["--seed", "77"], ["--seed"]),
    (["--ideal"], ["--ideal"]),
    (["--noiseless"], ["--ideal"]),
    (["--calibrated"], ["--calibrated"]),
    (["--tau", "3"], ["--tau"]),
    (["--theta", "0.1"], ["--theta"]),
    (["--imbalance", "0.3"], ["--imbalance"]),
    (["--spatial-white-noise", "0.1"], ["--spatial-white-noise"]),
    (["--storage-time", "5"], ["--storage-time"]),
    (["--osc-amp", "0.3", "--osc-freq", "2"], ["--osc-amp", "--osc-freq"]),
    (["--envelope", "exponential"], ["--envelope"]),
    (["--shots", "999", "--seed", "77", "--imbalance", "0.3", "--tau", "3",
      "--storage-time", "5"], ["--shots", "--seed", "--tau", "--imbalance", "--storage-time"]),
    (["--target-t1", "3", "--target-f1", "0.9"], ["--target-t1", "--target-f1"]),
    (["--calibrated", "--target-f2", "0.45"], ["--calibrated", "--target-f2"]),
])
def test_tables_in_excludes_sampling_and_model_flags(flags, named, tmp_path, capsys):
    tables = tmp_path / "tables.jsonl"
    tables.write_text("".join(_one_qubit_tables()))
    code = main(["tomography", "--tables-in", str(tables), *flags,
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --tables-in") and err.count("\n") == 1
    assert all(flag in err for flag in named)


def test_tables_in_excludes_model_keys_from_a_config_file(tmp_path, capsys):
    tables = tmp_path / "tables.jsonl"
    tables.write_text("".join(_one_qubit_tables()))
    config = tmp_path / "run.cfg"
    config.write_text("calibrated = true\n")
    code = main(["tomography", "--config", str(config), "--tables-in", str(tables),
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "--calibrated" in capsys.readouterr().err


def test_tables_in_allows_tables_out(tmp_path):
    tables = tmp_path / "tables.jsonl"
    tables.write_text("".join(_one_qubit_tables()))
    copy = tmp_path / "copy.jsonl"
    code = main(["tomography", "--tables-in", str(tables), "--tables-out", str(copy),
                 "--out", str(tmp_path / "t.json")])
    assert code == 0
    lines = [json.loads(line) for line in copy.read_text().splitlines()]
    assert lines == [json.loads(line) for line in tables.read_text().splitlines()]


@pytest.mark.parametrize("x_last", [False, True])
@pytest.mark.parametrize("shots_x,expected", [(600, None), (300, 300)])
def test_shots_per_setting_is_common_value_or_null(shots_x, expected, x_last, tmp_path):
    lines = _one_qubit_tables(shots_x)
    if x_last:
        lines = lines[1:] + lines[:1]
    tables = tmp_path / "tables.jsonl"
    tables.write_text("".join(lines))
    code, out = run_cli(["tomography", "--tables-in", str(tables)], tmp_path, "t.json")
    assert code == 0
    assert json.loads(out.read_text())["shots_per_setting"] == expected


@pytest.mark.parametrize("scenario", [["witness"], ["lifetime", "--tau", "5"], ["rotate"],
                                      ["sweep"], ["budget"]],
                         ids=["witness", "lifetime", "rotate", "sweep", "budget"])
@pytest.mark.parametrize("flag", ["--tables-out", "--tables-in"])
def test_tables_flags_outside_tomography_exit_2(scenario, flag, tmp_path, capsys):
    tables = tmp_path / "t.jsonl"
    assert main([*scenario, flag, str(tables), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err
    assert not tables.exists()


@pytest.mark.parametrize("flag", ["--config", "--noise-file", "--tables-in"])
def test_undecodable_input_file_exit_2(flag, tmp_path):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["tomography", flag, str(path), "--out", str(tmp_path / "t.json")]) == 2


def test_verify_checks_under_python_O():
    script = (
        "import sys\n"
        "import onewaysim.cli as cli, onewaysim.mbqc as mbqc\n"
        "mbqc.branch_verify = lambda alpha, beta: (False, {})\n"
        "sys.exit(cli.main(['rotate', '--verify']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr


# ------------------------------------------------------------ config schema

# The CLI's option strings; the flags derived from ScenarioConfig must keep
# exactly these spellings.
PARSER_OPTION_STRINGS = {
    "-h", "--help", "--scenario", "--config", "--alpha", "--beta", "--theta",
    "--shots", "--seed", "--out", "--format", "--verify", "--noise-file",
    "--tables-in", "--tables-out", "--imbalance", "--spatial-white-noise",
    "--ideal", "--noiseless", "--calibrated", "--tau", "--osc-amp", "--osc-freq",
    "--envelope", "--storage-time", "--feedforward", "--no-feedforward", "--mode",
    "--per-branch", "--t-max", "--t-step", "--target-t1", "--target-f1",
    "--target-t2", "--target-f2", "--eom-response", "--optical-propagation",
    "--signal-processing", "--storage-before-first-readout", "--coherence-time",
}

# A non-default raw value for every non-boolean ScenarioConfig field.
RAW_FIELD_VALUES = {
    "scenario": "budget", "alpha": "3pi/4", "beta": "-0.5", "theta": "pi/8",
    "shots": "7", "seed": "11", "out": "a.json", "format": "csv",
    "noise_file": None, "tables_in": "t.jsonl", "tables_out": "u.jsonl",
    "imbalance": "0.5", "spatial_white_noise": "0.25", "tau": "5",
    "osc_amp": "0.1", "osc_freq": "2", "envelope": "exponential",
    "storage_time": "1.5", "mode": "rx", "t_max": "10", "t_step": "0.25",
    "target_t1": "2", "target_f1": "0.7", "target_t2": "12", "target_f2": "0.4",
    "eom_response": "1", "optical_propagation": "0.5", "signal_processing": "0.2",
    "storage_before_first_readout": "3", "coherence_time": "20",
}


def test_parser_keeps_option_strings():
    from onewaysim.cli import build_parser

    parser = build_parser()
    assert {s for a in parser._actions for s in a.option_strings} == PARSER_OPTION_STRINGS


def test_shared_parser_leaks_no_state(tmp_path, monkeypatch):
    import onewaysim.cli as cli

    cfg = tmp_path / "c.cfg"
    cfg.write_text("scenario=rotate\nalpha=pi/4\nshots=5\nfeedforward=false\n")
    argvs = [
        ["rotate", "--alpha", "pi/2", "--shots", "10", "--no-feedforward", "--seed", "3"],
        ["sweep", "--mode", "rx", "--per-branch", "--tau", "3", "--storage-time", "1"],
        ["--config", str(cfg), "--beta", "0.5"],
        ["--config", str(cfg)],
        ["witness"],
    ]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh.append(cli.parse_args(argv))
    monkeypatch.undo()
    assert [cli.parse_args(argv) for argv in argvs] == fresh
    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()


def test_parser_built_on_first_parse_not_at_import():
    script = ("import onewaysim.cli as cli\n"
              "assert cli._shared_parser.cache_info().currsize == 0\n"
              "cli.parse_args(['budget'])\n"
              "assert cli._shared_parser.cache_info().currsize == 1\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_flag_and_file_coerce_alike(tmp_path):
    from dataclasses import fields

    from onewaysim.cli import ScenarioConfig, parse_args

    noise_file = tmp_path / "empty.cfg"
    noise_file.write_text("")
    base = tmp_path / "base.cfg"
    base.write_text("scenario=witness\n")
    defaults = ScenarioConfig()
    for f in fields(ScenarioConfig):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            flag_argv = [f"--no-{flag[2:]}"] if f.default else [flag]
            raw = str(not f.default).lower()
        else:
            raw = RAW_FIELD_VALUES[f.name] or str(noise_file)
            flag_argv = [flag, raw]
        cfg = tmp_path / f"{f.name}.cfg"
        cfg.write_text(f"scenario=witness\n{f.name}={raw}\n")
        by_flag = parse_args(["--config", str(base)] + flag_argv)
        by_file = parse_args(["--config", str(cfg)])
        assert by_flag == by_file, f.name
        assert getattr(by_file, f.name) != getattr(defaults, f.name), f.name
    assert set(RAW_FIELD_VALUES) == {
        f.name for f in fields(ScenarioConfig) if not isinstance(f.default, bool)}


_FUZZ_VALUES = (
    st.sampled_from(["0", "-1", "1.5", "nan", "-inf", "inf", "pi/0", "3pi/4", "1e400",
                     "", "x", "true", "json", "rx", "gaussian", "witness", "rotate"])
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
    | st.integers(2**64, 2**70).map(str)
).filter(lambda t: not t.startswith(("-h", "--h")))
_FUZZ_SWITCHES = ["--verify", "--ideal", "--noiseless", "--calibrated", "--feedforward",
                  "--no-feedforward", "--per-branch"]
_FUZZ_OPTIONS = sorted(PARSER_OPTION_STRINGS - {"-h", "--help"} - set(_FUZZ_SWITCHES))
_FUZZ_ARGV = st.tuples(
    st.sampled_from(["witness", "lifetime", "tomography", "rotate", "sweep", "budget"]),
    st.lists(st.tuples(st.sampled_from(_FUZZ_OPTIONS), _FUZZ_VALUES), max_size=4),
    st.lists(st.sampled_from(_FUZZ_SWITCHES) | _FUZZ_VALUES, max_size=2),
).map(lambda parts: [parts[0]] + [t for pair in parts[1] for t in pair] + parts[2])
_FUZZ_KEYS = st.sampled_from(sorted(RAW_FIELD_VALUES) + ["verify", "feedforward", "bogus"])


@settings(max_examples=300, deadline=None)
@given(argv=_FUZZ_ARGV,
       entries=st.lists(st.tuples(_FUZZ_KEYS, _FUZZ_VALUES), max_size=6),
       extra=st.sampled_from(["", "# comment"]) | st.text(
           st.characters(blacklist_categories=("Cs",)), max_size=30))
def test_parse_args_fuzz(argv, entries, extra):
    import tempfile
    from pathlib import Path

    from onewaysim.cli import ScenarioConfig, parse_args

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        lines = [f"{k}={v}" for k, v in entries] + [extra]
        cfg.write_text("\n".join(lines), encoding="utf-8")
        try:
            config = parse_args(argv + ["--config", str(cfg)])
        except ConfigError:
            return
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert isinstance(config, ScenarioConfig)
    assert all(math.isfinite(v) for v in vars(config).values() if isinstance(v, float))
    assert 0 <= config.seed < 2**64


# ------------------------------------------------------------ JSON rendering

_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200)
    | st.floats() | st.floats().map(np.float64)
    | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
    | st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é✓\U0001F600", ""])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)
                      | st.dictionaries(st.integers() | st.booleans(), children)
                      | st.dictionaries(st.floats(), children)
                      | st.dictionaries(st.none(), children)),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_render_json_equals_json_dumps(value):
    assert _render_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("payload", [{}, {"b": [], "a": {}}, {"x": (1, [2.5, None])}])
def test_render_artifact_json_is_json_dumps(payload):
    assert render_artifact(payload, "json") == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    np.int64(3), {"a": [np.bool_(True)]}, (1j,), {"k": {1, 2}}, [b"x"], object(),
    {("t",): 1}, {"a": 1, 2: 3}, {None: 1, True: 2},
])
def test_render_json_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        _render_json(value)
    assert str(got.value) == str(expected.value)
