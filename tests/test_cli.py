from __future__ import annotations

import json
import subprocess
import sys

import pytest

import ofdmjrc


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "ofdmjrc", *args],
                          capture_output=True, text=True, cwd=cwd)


def _write_cfg(tmp_path, text=""):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_simulate_writes_trial_and_manifest(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    proc = _run("simulate", "--config", cfg, "--out", str(out), "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    trial = json.loads((out / "trial.json").read_text())
    assert trial["valid"] is True
    assert trial["decision"] in ("h0_false_target", "h1_real_target")
    assert trial["scenario"]["kind"] == "false"
    assert trial["seed"] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["master_seed"] == 2
    assert any(p.endswith("trial.json") for p in manifest["outputs"])


def test_manifest_version_is_package_version(tmp_path):
    out = tmp_path / "out"
    proc = _run("simulate", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == ofdmjrc.__version__


def test_simulate_reports_missing_config(tmp_path):
    proc = _run("simulate", "--config", str(tmp_path / "nope.cfg"))
    assert proc.returncode == 2
    assert "config not found" in proc.stderr


def test_override_beats_config_file(tmp_path):
    cfg = _write_cfg(tmp_path, "scenario.snr_db = 5\nscenario.r0_m = 150\n")
    out = tmp_path / "out"
    proc = _run("simulate", "--config", cfg, "--set", "scenario.snr_db=7",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    trial = json.loads((out / "trial.json").read_text())
    assert trial["scenario"]["snr_db"] == 7.0  # --set wins over the file
    assert trial["scenario"]["r0_m"] == 150.0  # file wins over defaults


def test_contradictory_scenario_is_rejected(tmp_path):
    cfg = _write_cfg(tmp_path)
    proc = _run("simulate", "--config", cfg,
                "--set", "scenario.kind=real", "--set", "scenario.f_cfo_hz=5e3")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_nan_scenario_value_is_rejected(tmp_path):
    out = tmp_path / "out"
    proc = _run("roc", "--set", "scenario.r0_m=nan", "--set", "mc.n_trials=2",
                "--out", str(out))
    assert proc.returncode == 2
    assert "r0_m must be finite" in proc.stderr
    assert not (out / "roc.csv").exists()


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, "scenario.warp_factor = 9\n")
    proc = _run("simulate", "--config", cfg)
    assert proc.returncode == 2
    assert "warp_factor" in proc.stderr


def test_dump_grids_writes_side_files(tmp_path):
    cfg = _write_cfg(tmp_path, "io.dump_grids = true\n")
    out = tmp_path / "out"
    proc = _run("simulate", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    for name in ("frame.csv", "sample_grid.csv", "sample_grid.bin",
                 "freq_grid.csv"):
        assert (out / name).exists(), name


def test_simulate_with_dumps_runs_the_front_half_once(tmp_path, monkeypatch,
                                                     capsys):
    import ofdmjrc.cli
    import ofdmjrc.montecarlo as mc

    frames = []
    draw = mc.generate_frame

    def counted(*args, **kwargs):
        frames.append(draw(*args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(mc, "generate_frame", counted)
    out = tmp_path / "out"
    rc = ofdmjrc.cli.main(["simulate", "--set", "io.dump_grids=true",
                           "--seed", "4", "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert len(frames) == 1
    assert (out / "frame.csv").exists()


# The path gain of a target this far away underflows to zero.
_LOST = ("--set", "scenario.r0_m=1e80")


def test_pipeline_failure_without_grids_exits_3(tmp_path):
    # at 9 dB there is no energy to calibrate the noise against
    out = tmp_path / "out"
    proc = _run("simulate", "--set", "io.dump_grids=true", *_LOST,
                "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr == ("error: cannot calibrate noise on an all-zero "
                           "grid at finite SNR\n")
    assert json.loads((out / "trial.json").read_text())["valid"] is False
    assert not (out / "frame.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert [p.rsplit("/", 1)[-1] for p in manifest["outputs"]] == ["trial.json"]
    proc = _run("rdmap", *_LOST, "--out", str(out))
    assert proc.returncode == 3
    assert "cannot calibrate noise" in proc.stderr
    assert not (out / "rdmap.csv").exists()


def test_a_range_too_short_for_a_finite_gain_exits_3(tmp_path):
    out = tmp_path / "out"
    proc = _run("simulate", "--set", "io.dump_grids=true",
                "--set", "scenario.r0_m=1e-200", "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr == ("error: range 1e-200 m is too short: "
                           "path loss gain is inf\n")


@pytest.mark.parametrize("setting, counts", [
    ("scenario.r0_m=1e-80", "(2 curves, 8 trials, 8 invalid)"),
    ("mc.snr_db_list=4000", "(1 curves, 4 trials, 4 invalid)")])
def test_roc_records_trials_beyond_float_range_as_invalid(tmp_path, setting,
                                                          counts):
    proc = _run("roc", "--set", setting, "--set", "mc.n_trials=2",
                "--set", "mc.genie=estimated", "--workers", "1",
                "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(counts + "\n")
    assert proc.stderr.startswith("warning: curve snr_db=")


def test_roc_reports_curves_without_valid_trials(tmp_path):
    out = tmp_path / "out"
    proc = _run("roc", *_LOST, "--set", "mc.n_trials=4", "--workers", "1",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("(4 curves, 32 trials, 32 invalid)\n")
    assert proc.stderr.splitlines() == [
        f"warning: curve snr_db={snr} genie={genie} has 0 valid "
        "false-target and 0 valid real-target trials"
        for genie in ("false", "true") for snr in ("9.0", "13.0")]
    rows = (out / "roc.csv").read_text().splitlines()[1:]
    assert rows and all(r.split(",")[3:5] == ["0.0", "0.0"] for r in rows)


def test_trial_failing_after_its_grids_still_dumps_them(tmp_path):
    # without noise the front half runs and peak extraction fails
    out = tmp_path / "out"
    proc = _run("simulate", "--set", "io.dump_grids=true", *_LOST,
                "--set", "scenario.snr_db=inf", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    trial = json.loads((out / "trial.json").read_text())
    assert trial["valid"] is False
    assert trial["error"] == "grid is identically zero; no peak to extract"
    assert trial["est_h0"] is None and trial["t_stat"] is None
    for name in ("frame.csv", "sample_grid.csv", "sample_grid.bin",
                 "freq_grid.csv"):
        assert (out / name).exists(), name


def test_rdmap_outputs_csv(tmp_path):
    cfg = _write_cfg(tmp_path, "ofdm.zero_pad = 2\n")
    out = tmp_path / "out"
    proc = _run("rdmap", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "rdmap.csv").read_text().splitlines()
    assert lines[0] == "delay_s,doppler_hz,magnitude"
    assert "peak" in proc.stdout


def test_roc_then_plot_round_trip(tmp_path):
    cfg = _write_cfg(tmp_path, "mc.n_trials = 6\nmc.snr_db_list = 9\n")
    out = tmp_path / "out"
    proc = _run("roc", "--config", cfg, "--out", str(out), "--workers", "2")
    assert proc.returncode == 0, proc.stderr
    csv_path = out / "roc.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("snr_db,genie,gamma,p_fa,p_d")

    plot = _run("plot", str(csv_path), "--out", str(out))
    assert plot.returncode == 0, plot.stderr
    svg = (out / "roc.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    assert "polyline" in svg
    # bottom-left data corner of the unit square in pixel coordinates
    assert "70.00,420.00" in svg


def test_plot_reports_missing_csv(tmp_path):
    proc = _run("plot", str(tmp_path / "nope.csv"), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "not found" in proc.stderr


def test_plot_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "roc.csv"
    bad.write_text(
        "snr_db,genie,gamma,p_fa,p_d,p_fa_lo,p_fa_hi,p_d_lo,p_d_hi,n_trials\n"
        "9.0,false,0.0,1.0,1.0,0.9,1.0,0.9,1.0,10\n"
        "9.0,false,0.1,not_a_number,1.0,0.9,1.0,0.9,1.0,10\n"
    )
    proc = _run("plot", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "row 3" in proc.stderr


def test_plot_rejects_empty_body(tmp_path):
    empty = tmp_path / "roc.csv"
    empty.write_text(
        "snr_db,genie,gamma,p_fa,p_d,p_fa_lo,p_fa_hi,p_d_lo,p_d_hi,n_trials\n")
    proc = _run("plot", str(empty), "--out", str(tmp_path))
    assert proc.returncode == 2


def test_roc_rejects_fewer_than_one_worker(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    proc = _run("roc", "--config", cfg, "--out", str(out), "--workers", "0")
    assert proc.returncode == 2
    assert proc.stderr == "error: workers must be >= 1, got 0\n"
    assert not out.exists()


def test_roc_rejects_a_negative_seed(tmp_path):
    out = tmp_path / "out"
    proc = _run("roc", "--seed", "-1", "--set", "mc.n_trials=2",
                "--out", str(out), "--workers", "1")
    assert proc.returncode == 2
    assert proc.stderr == "error: master_seed must be >= 0, got -1\n"
    assert not (out / "roc.csv").exists()


@pytest.mark.parametrize("key", ["detector.cfo_floor_hz",
                                 "detector.gamma_prime"])
def test_simulate_rejects_a_nan_detector_value(tmp_path, key):
    out = tmp_path / "out"
    proc = _run("simulate", "--set", f"{key}=nan", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {key.split('.')[1]} must not be NaN\n"
    assert not (out / "trial.json").exists()


def test_plot_rejects_a_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "roc.csv"
    bad.write_bytes(b"snr_db,genie\xff\xfe\n")
    proc = _run("plot", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {bad}: not UTF-8 text")
    assert "Traceback" not in proc.stderr


def test_simulate_rejects_a_config_that_is_not_utf8(tmp_path):
    bad = tmp_path / "run.cfg"
    bad.write_bytes(b"\xff\xfescenario.snr_db = 5\n")
    proc = _run("simulate", "--config", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {bad}: not UTF-8 text")
    assert "Traceback" not in proc.stderr


def test_roc_csv_identical_across_worker_counts(tmp_path):
    cfg = _write_cfg(tmp_path, "mc.n_trials = 5\nmc.snr_db_list = 9\n"
                               "mc.genie = estimated\n")
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    p1 = _run("roc", "--config", cfg, "--out", str(out1),
              "--seed", "11", "--workers", "1")
    p2 = _run("roc", "--config", cfg, "--out", str(out2),
              "--seed", "11", "--workers", "4")
    assert p1.returncode == 0 and p2.returncode == 0
    assert (out1 / "roc.csv").read_bytes() == (out2 / "roc.csv").read_bytes()


def test_cli_help_lists_subcommands():
    proc = _run("--help")
    assert proc.returncode == 0
    for sub in ("simulate", "rdmap", "roc", "plot"):
        assert sub in proc.stdout
