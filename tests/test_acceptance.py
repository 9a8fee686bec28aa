"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
quantities before asserting, so a full run doubles as a scoreboard.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from ofdmjrc import (
    ChannelGain,
    Decision,
    Estimates,
    MODE_AMPLITUDE,
    ObservationVector,
    Scenario,
    TargetKind,
    build_config,
    build_design_matrices,
    decide,
    estimate_h0,
    estimate_h1,
    extract_peak_observations,
    fast_time_dft,
    generate_frame,
    glrt_statistic,
    remove_known_symbols,
    roc_sweep,
    synth_target,
    synth_templates,
)
from ofdmjrc.waveform import C_LIGHT

import pytest

_MASTER_SEED = 20260816
_WORKERS = min(8, os.cpu_count() or 1)
# `python -m ofdmjrc` imports the package from this checkout's src
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
_SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH", "")) if p))

_BASE_FALSE = Scenario(kind=TargetKind.FALSE_TARGET, r0_m=100.0, v_mps=10.0,
                       f_cfo_hz=10e3, sigma_rcs_m2=1.0, snr_db=9.0, seed=0)


def _report(n: int, ok: bool, detail: str) -> str:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _noiseless_freq_grid(cfg, scenario, frame_seed=0):
    frame = generate_frame(cfg, seed=frame_seed)
    gain = ChannelGain(g=1.0, big_g=1.0, h_eff=1.0)
    grid = synth_target(cfg, scenario, frame, gain)
    return remove_known_symbols(fast_time_dft(grid, cfg), frame)


def test_criterion_1_noiseless_range_recovery(cfg):
    scenario = Scenario(kind=TargetKind.REAL_TARGET, r0_m=100.0, v_mps=0.0,
                        f_cfo_hz=0.0, sigma_rcs_m2=1.0, snr_db=np.inf, seed=0)
    start = time.perf_counter()
    fg = _noiseless_freq_grid(cfg, scenario)
    peaks = extract_peak_observations(fg, cfg)[0]
    obs = ObservationVector.from_peaks(peaks)
    est = estimate_h1(obs, build_design_matrices(cfg))
    elapsed = time.perf_counter() - start

    delay_err_ns = np.abs(peaks.delay_obs_s - 666.667e-9) * 1e9
    range_err_m = abs(est.r0_hat_m - 100.0)
    ok = (delay_err_ns.max() <= 0.5) and (range_err_m <= 0.1) and (elapsed < 1.0)
    line = _report(1, ok,
                   f"max delay err {delay_err_ns.max():.4f} ns (limit 0.5), "
                   f"range err {range_err_m:.2e} m (limit 0.1), "
                   f"runtime {elapsed * 1e3:.1f} ms (limit 1000)")
    assert ok, line


def test_criterion_2_noiseless_offset_recovery(cfg):
    scenario = replace(_BASE_FALSE, v_mps=0.0, snr_db=np.inf)
    fg = _noiseless_freq_grid(cfg, scenario)
    obs = ObservationVector.from_peaks(extract_peak_observations(fg, cfg)[0])
    dm = build_design_matrices(cfg)
    est0 = estimate_h0(obs, dm)
    est1 = estimate_h1(obs, dm)

    offset_err = abs(est0.f_cfo_hat_hz - 10e3)
    ghost_v = 10e3 * C_LIGHT / (2.0 * cfg.f_c_hz)
    bias_rel = abs(est1.v_hat_mps - ghost_v) / ghost_v
    ok = (offset_err <= 1.0) and (bias_rel <= 0.05)
    line = _report(2, ok,
                   f"offset err {offset_err:.2e} Hz (limit 1), ghost velocity "
                   f"{est1.v_hat_mps:.3f} vs {ghost_v:.3f} m/s "
                   f"({100 * bias_rel:.3f}% off, limit 5%)")
    assert ok, line


def test_criterion_3_models_coincide_without_offset(cfg):
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(100):
        r0 = float(rng.uniform(10.0, 400.0))
        v = float(rng.uniform(-80.0, 80.0))
        sigma = float(rng.uniform(0.1, 10.0))
        frame = generate_frame(cfg, seed=1000 + i)
        g = complex(rng.standard_normal(), rng.standard_normal())
        gain = ChannelGain(g=g, big_g=1.0, h_eff=g)
        fake = Scenario(kind=TargetKind.FALSE_TARGET, r0_m=r0, v_mps=v,
                        f_cfo_hz=0.0, sigma_rcs_m2=sigma, snr_db=9.0, seed=i)
        real = replace(fake, kind=TargetKind.REAL_TARGET)
        diff = np.abs(synth_target(cfg, fake, frame, gain).y
                      - synth_target(cfg, real, frame, gain).y)
        worst = max(worst, float(diff.max()))
    ok = worst == 0.0
    line = _report(3, ok,
                   f"max abs diff {worst!r} over 100 random scenarios (limit 0)")
    assert ok, line


def test_criterion_4_nested_fits_order_residuals(cfg):
    dm = build_design_matrices(cfg)
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(1000):
        f = np.concatenate([
            rng.uniform(0.0, cfg.t_sym_s, cfg.m_symbols),
            rng.normal(0.0, 50e3, cfg.k_active),
        ])
        obs = ObservationVector(f=f, n_delay=cfg.m_symbols,
                                n_doppler=cfg.k_active)
        r0 = estimate_h0(obs, dm).residual_norm
        r1 = estimate_h1(obs, dm).residual_norm
        if r1 < r0 - 1e-10 * max(1.0, r0):
            violations += 1
    ok = violations == 0
    line = _report(4, ok,
                   f"{violations} ordering violations over 1000 random "
                   f"observation vectors (limit 0)")
    assert ok, line


@pytest.fixture(scope="module")
def roc_data(cfg):
    curves = {}
    for genie in (False, True):
        for curve in roc_sweep(cfg, [9.0, 13.0], None, 500, genie=genie,
                               base_scenario=_BASE_FALSE,
                               master_seed=_MASTER_SEED, workers=_WORKERS):
            curves[(curve.snr_db, genie)] = curve
    return curves


def _pd_at(curve, p_fa_target: float) -> float:
    """Best detection probability at or below a false-alarm budget."""
    eligible = curve.p_d[curve.p_fa <= p_fa_target + 1e-12]
    return float(eligible.max()) if eligible.size else 0.0


def test_criterion_5_roc_shape_and_snr_dominance(roc_data):
    problems = []
    for (snr, genie), curve in roc_data.items():
        tag = f"{snr:g} dB {'genie' if genie else 'estimated'}"
        if not (curve.p_fa[0] == 1.0 and curve.p_d[0] == 1.0):
            problems.append(f"{tag}: missing (1,1) endpoint")
        if not (curve.p_fa[-1] == 0.0 and curve.p_d[-1] == 0.0):
            problems.append(f"{tag}: missing (0,0) endpoint")
        if np.any(np.diff(curve.p_fa) > 0) or np.any(np.diff(curve.p_d) > 0):
            problems.append(f"{tag}: rates not monotone along thresholds")
    for genie in (False, True):
        low = roc_data[(9.0, genie)]
        high = roc_data[(13.0, genie)]
        for p_fa in low.p_fa:
            if _pd_at(high, p_fa) < _pd_at(low, p_fa) - 1e-12:
                problems.append(
                    f"13 dB below 9 dB at P_FA={p_fa:.3f} "
                    f"({'genie' if genie else 'estimated'})")
                break
    ok = not problems
    line = _report(5, ok, "; ".join(problems) if problems else
                   "monotone, endpoints pinned, 13 dB dominates 9 dB "
                   "at every sampled false-alarm rate")
    assert ok, line


def test_criterion_6_side_information_gap(roc_data):
    samples = np.linspace(0.05, 0.3, 11)
    gaps = {}
    for snr in (9.0, 13.0):
        est = roc_data[(snr, False)]
        gen = roc_data[(snr, True)]
        gaps[snr] = np.array([_pd_at(gen, x) - _pd_at(est, x) for x in samples])
    in_band = np.all((gaps[9.0] >= -1e-12) & (gaps[9.0] <= 0.20))
    shrinks = gaps[13.0].max() < gaps[9.0].max()
    ok = bool(in_band and shrinks)
    line = _report(
        6, ok,
        f"9 dB gap range [{gaps[9.0].min():.4f}, {gaps[9.0].max():.4f}] "
        f"(band [0, 0.20]), 13 dB max gap {gaps[13.0].max():.4f} "
        f"{'<' if shrinks else '>='} 9 dB max gap {gaps[9.0].max():.4f}. "
        "Note: at these SNRs every curve is saturated (P_D = 1 at P_FA = 0) "
        "and the estimated-offset statistic matches the genie one to four "
        "to five digits, so both gaps are exactly zero and the "
        "strict-shrink clause cannot hold.")
    assert ok, line


def test_criterion_7_detector_invariances(cfg):
    est0 = Estimates(r0_hat_m=100.0, v_hat_mps=10.0, f_cfo_hat_hz=10e3,
                     residual_norm=0.0, hypothesis="h0")
    est1 = Estimates(r0_hat_m=100.0, v_hat_mps=10.0, f_cfo_hat_hz=None,
                     residual_norm=0.0, hypothesis="h1")
    tp = synth_templates(cfg, est0, est1)
    rng = np.random.default_rng(7)
    z = rng.standard_normal(tp.u0.size) + 1j * rng.standard_normal(tp.u0.size)

    base = glrt_statistic(z, tp, MODE_AMPLITUDE)
    scale = float(np.linalg.norm(z) ** 2)
    phase_err = max(abs(glrt_statistic(z * np.exp(1j * phi), tp, MODE_AMPLITUDE)
                        - base)
                    for phi in (0.1, 0.9, 2.2, 3.9, 5.6)) / scale

    base_decision = decide(base, 0.0).decision
    scale_ok = all(
        decide(glrt_statistic(a * z, tp, MODE_AMPLITUDE), 0.0).decision
        == base_decision
        for a in (1e-6, 1e-3, 1.0, 1e3, 1e6))

    tp_same = synth_templates(
        cfg, replace(est0, f_cfo_hat_hz=0.0), est1)
    t_same = glrt_statistic(z, tp_same, MODE_AMPLITUDE)

    ok = (phase_err <= 1e-12) and scale_ok and (t_same == 0.0)
    line = _report(7, ok,
                   f"phase sensitivity {phase_err:.2e} (limit 1e-12), "
                   f"scale-invariant decision {scale_ok}, identical-template "
                   f"statistic {t_same!r} (must be exactly 0.0)")
    assert ok, line


def test_criterion_8_parallel_csv_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("mc.n_trials = 40\nmc.snr_db_list = 9\nmc.genie = both\n")
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        proc = subprocess.run(
            [sys.executable, "-m", "ofdmjrc", "roc",
             "--config", str(cfg_path), "--out", str(out),
             "--seed", "77", "--workers", str(workers)],
            capture_output=True, text=True, env=_SRC_ENV)
        assert proc.returncode == 0, proc.stderr
        outputs[workers] = (out / "roc.csv").read_bytes()
    ok = outputs[1] == outputs[8]
    line = _report(8, ok,
                   f"serial and 8-worker ROC CSVs "
                   f"{'byte-identical' if ok else 'DIFFER'} "
                   f"({len(outputs[1])} bytes)")
    assert ok, line


def test_criterion_9_zero_offset_adversary_is_invisible(cfg):
    base = replace(_BASE_FALSE, f_cfo_hz=0.0)
    curve = roc_sweep(cfg, [9.0], None, 300, genie=False, base_scenario=base,
                      master_seed=_MASTER_SEED + 9, workers=_WORKERS)[0]
    off_diagonal = []
    for i in range(curve.gamma.size):
        on_diag = (curve.p_fa_lo[i] <= curve.p_d[i] <= curve.p_fa_hi[i]
                   or curve.p_d_lo[i] <= curve.p_fa[i] <= curve.p_d_hi[i]
                   or curve.p_d[i] == curve.p_fa[i])
        if not on_diag:
            off_diagonal.append(i)
    worst = float(np.abs(curve.p_d - curve.p_fa).max())
    ok = not off_diagonal
    line = _report(9, ok,
                   f"{len(off_diagonal)} of {curve.gamma.size} operating points "
                   f"off the diagonal (limit 0), max |P_D - P_FA| {worst:.4f}")
    assert ok, line
