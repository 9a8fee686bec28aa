from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest

import ofdmjrc.montecarlo as mc
from ofdmjrc import (
    MODE_AMPLITUDE,
    CalibrationError,
    ConfigurationError,
    Decision,
    FreqGrid,
    IllConditionedError,
    NoPeakError,
    PeakObservations,
    Scenario,
    SampleGrid,
    SingularityError,
    TargetKind,
    add_awgn,
    auto_gamma_grid,
    build_config,
    build_design_matrices,
    estimate_h0,
    extract_peak_observations,
    path_loss_gain,
    roc_sweep,
    run_batch,
    run_trial,
    trial_seed,
    wavelength_m,
    wilson_interval,
    write_roc_csv,
)

# `python -c` imports the package from this checkout's src
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
_SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH", "")) if p))

_FALSE = Scenario(kind=TargetKind.FALSE_TARGET, r0_m=100.0, v_mps=10.0,
                  f_cfo_hz=10e3, sigma_rcs_m2=1.0, snr_db=9.0, seed=3)
_REAL = Scenario(kind=TargetKind.REAL_TARGET, r0_m=100.0, v_mps=10.0,
                 f_cfo_hz=0.0, sigma_rcs_m2=1.0, snr_db=9.0, seed=3)


def test_run_trial_is_deterministic(cfg):
    a = run_trial(cfg, _FALSE)
    b = run_trial(cfg, _FALSE)
    assert a.valid and b.valid
    assert a.t_stat == b.t_stat
    assert a.est0.r0_hat_m == b.est0.r0_hat_m
    assert a.est1.v_hat_mps == b.est1.v_hat_mps
    assert a.outcome.decision == b.outcome.decision
    c = run_trial(cfg, replace(_FALSE, seed=4))
    assert c.t_stat != a.t_stat


def test_noiseless_trials_decide_correctly(cfg):
    false_clean = replace(_FALSE, snr_db=np.inf)
    real_clean = replace(_REAL, snr_db=np.inf)
    rec_f = run_trial(cfg, false_clean)
    rec_r = run_trial(cfg, real_clean)
    assert rec_f.outcome.decision is Decision.H0_FALSE_TARGET
    assert rec_f.t_stat < 0.0
    assert rec_r.outcome.decision is Decision.H1_REAL_TARGET
    assert rec_r.t_stat == 0.0


def test_genie_side_information_changes_conditioning_only(cfg):
    est = run_trial(cfg, _FALSE, genie=False)
    gen = run_trial(cfg, _FALSE, genie=True)
    # same trial randomness either way; only the offset plug-in differs
    assert est.seed == gen.seed
    assert est.est0.f_cfo_hat_hz == gen.est0.f_cfo_hat_hz
    assert np.isfinite(gen.t_stat)


def test_invalid_trials_are_recorded_not_raised(cfg, monkeypatch):
    import ofdmjrc.montecarlo as mc

    def _no_peak(fg, c):
        raise NoPeakError("grid is empty")

    monkeypatch.setattr(mc, "extract_peak_observations", _no_peak)
    rec = run_trial(cfg, _FALSE)
    assert not rec.valid
    assert rec.outcome is None
    assert np.isnan(rec.t_stat)
    assert "empty" in rec.error


def test_trial_seed_is_stable_and_collision_free():
    seen = set()
    for snr_idx in range(2):
        for kind_idx in range(2):
            for trial_idx in range(50):
                seen.add(trial_seed(7, snr_idx, kind_idx, trial_idx))
    assert len(seen) == 200
    assert trial_seed(7, 1, 0, 5) == trial_seed(7, 1, 0, 5)
    assert trial_seed(7, 1, 0, 5) != trial_seed(8, 1, 0, 5)


def test_wilson_interval_behaviour():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 50)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0.0 < hi < 0.15
    lo, hi = wilson_interval(50, 50)
    assert 0.85 < lo < 1.0 and hi == pytest.approx(1.0, abs=1e-12)
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.2366, abs=2e-3)
    assert hi == pytest.approx(0.7634, abs=2e-3)
    assert lo < 0.5 < hi


def test_auto_gamma_grid_shape():
    grid = auto_gamma_grid(np.array([-2.0, -0.5, 1.0]))
    assert grid.size == 81
    assert grid[0] == -np.inf and grid[-1] == np.inf
    assert grid[40] == 0.0
    assert np.all(np.diff(grid) > 0)
    # degenerate statistics still give a usable grid
    fallback = auto_gamma_grid(np.array([0.0, 0.0]))
    assert fallback.size == 81 and np.all(np.isfinite(fallback[1:-1]))


def _tiny_sweep(cfg, **kw):
    args = dict(snr_db_list=[9.0], gamma_grid=None, n_trials=8, genie=False,
                base_scenario=_FALSE, master_seed=123, workers=1)
    args.update(kw)
    return roc_sweep(cfg, **args)


def test_roc_curve_invariants(cfg):
    curve = _tiny_sweep(cfg)[0]
    assert curve.snr_db == 9.0
    assert curve.n_trials == 8
    assert curve.gamma[0] == -np.inf and curve.gamma[-1] == np.inf
    # -inf threshold accepts everything, +inf rejects everything
    assert curve.p_fa[0] == 1.0 and curve.p_d[0] == 1.0
    assert curve.p_fa[-1] == 0.0 and curve.p_d[-1] == 0.0
    assert np.all(np.diff(curve.p_fa) <= 0.0)
    assert np.all(np.diff(curve.p_d) <= 0.0)
    assert np.all((curve.p_fa_lo <= curve.p_fa) & (curve.p_fa <= curve.p_fa_hi))
    assert np.all((curve.p_d_lo <= curve.p_d) & (curve.p_d <= curve.p_d_hi))
    assert curve.n_invalid == 0
    assert curve.n_false_valid == 8 and curve.n_real_valid == 8


def test_roc_sweep_parallel_matches_serial(cfg):
    serial = _tiny_sweep(cfg, workers=1)[0]
    parallel = _tiny_sweep(cfg, workers=3)[0]
    np.testing.assert_array_equal(serial.gamma, parallel.gamma)
    np.testing.assert_array_equal(serial.p_fa, parallel.p_fa)
    np.testing.assert_array_equal(serial.p_d, parallel.p_d)


def test_roc_sweep_respects_explicit_grid(cfg):
    grid = np.array([-1.0, 0.0, 1.0])
    curve = _tiny_sweep(cfg, gamma_grid=grid)[0]
    np.testing.assert_array_equal(curve.gamma, grid)
    assert curve.p_fa.shape == (3,)


def test_roc_sweep_validates_arguments(cfg):
    with pytest.raises(ConfigurationError):
        _tiny_sweep(cfg, n_trials=0)
    with pytest.raises(ConfigurationError):
        _tiny_sweep(cfg, snr_db_list=[])
    with pytest.raises(ConfigurationError):
        _tiny_sweep(cfg, gamma_grid=np.array([]))


def test_write_roc_csv_schema(tmp_path, cfg):
    curves = _tiny_sweep(cfg, gamma_grid=np.array([-np.inf, 0.0, np.inf]))
    path = tmp_path / "roc.csv"
    write_roc_csv(path, curves)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("snr_db,genie,gamma,p_fa,p_d,"
                        "p_fa_lo,p_fa_hi,p_d_lo,p_d_hi,n_trials")
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "9.0"
    assert first[1] == "false"
    assert first[2] == "-inf"
    assert first[-1] == "8"
    # every float field parses back
    for line in lines[1:]:
        fields = line.split(",")
        float(fields[2])
        for v in fields[3:9]:
            assert 0.0 <= float(v) <= 1.0


def test_write_roc_csv_is_stable(tmp_path, cfg):
    curves = _tiny_sweep(cfg)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_roc_csv(a, curves)
    write_roc_csv(b, curves)
    assert a.read_bytes() == b.read_bytes()


# -- batches -----------------------------------------------------------------

_LARGE = dict(n_fft=256, k_active=200, n_pilot=24, m_symbols=32, zero_pad=4)


def _bits(rec):
    """Everything a record reports, floats as their exact bits."""
    def est(e):
        if e is None:
            return None
        return (e.r0_hat_m.hex(), e.v_hat_mps.hex(),
                None if e.f_cfo_hat_hz is None else e.f_cfo_hat_hz.hex(),
                e.residual_norm.hex(), e.hypothesis)
    decision = None if rec.outcome is None else rec.outcome.decision
    return (rec.valid, rec.error, rec.t_stat.hex(), decision,
            est(rec.est0), est(rec.est1))


def _mixed_scenarios(n, master_seed):
    """Both truths at -5 dB, 9 dB and without noise, each with its own seed."""
    return [replace((_FALSE, _REAL)[i % 2],
                    snr_db=(-5.0, 9.0, np.inf)[(i // 2) % 3],
                    seed=trial_seed(master_seed, 0, i % 2, i))
            for i in range(n)]


@pytest.mark.parametrize("numerology", ["default", "large"])
@pytest.mark.parametrize("genie", [False, True])
def test_records_do_not_depend_on_their_batch(numerology, genie):
    cfg = build_config(**({} if numerology == "default" else _LARGE))
    scenarios = _mixed_scenarios(13, master_seed=5)
    alone = [_bits(run_trial(cfg, sc, genie)) for sc in scenarios]
    assert all(b[0] for b in alone)
    assert any(b[2] == (0.0).hex() for b in alone)  # exact-zero statistics too
    for size in (2, 5, 13):
        batched = []
        for i in range(0, len(scenarios), size):
            batched += [_bits(r) for r in
                        run_batch(cfg, scenarios[i:i + size], genie)]
        assert batched == alone, f"batch size {size}"


@pytest.mark.parametrize("numerology", ["default", "large"])
@pytest.mark.parametrize("genie", [False, True])
def test_a_failed_trial_does_not_touch_its_batch(numerology, genie):
    cfg = build_config(**({} if numerology == "default" else _LARGE))
    good = _mixed_scenarios(4, master_seed=9)
    # the path gain underflows to zero: no energy to calibrate the noise
    # against at 9 dB, and no peak to find without noise
    lost = replace(_FALSE, r0_m=1e80)
    lost_clean = replace(lost, snr_db=np.inf)
    batch = [good[0], lost, good[1], good[2], lost_clean, good[3]]
    recs = run_batch(cfg, batch, genie)
    assert [r.valid for r in recs] == [True, False, True, True, False, True]
    with pytest.raises(CalibrationError) as calib:
        add_awgn(SampleGrid(y=np.zeros((cfg.m_symbols, cfg.n_fft))), 9.0, 0)
    assert recs[1].error == str(calib.value)
    no_peak = extract_peak_observations(
        FreqGrid(y_tilde=np.zeros((cfg.k_active, cfg.m_symbols))), cfg)[1]
    assert recs[4].error == str(no_peak[0])
    for sc, rec in zip(batch, recs):
        assert _bits(rec) == _bits(run_trial(cfg, sc, genie))


@pytest.mark.parametrize("genie", [False, True])
def test_a_range_too_short_for_a_finite_gain_stays_with_its_trial(cfg, genie):
    good = _mixed_scenarios(4, master_seed=13)
    for r0_m in (1e-200, 1e-80):
        with pytest.raises(SingularityError) as short:
            path_loss_gain(wavelength_m(cfg.f_c_hz), 1.0, r0_m)
        rec = run_trial(cfg, replace(_FALSE, r0_m=r0_m), genie)
        assert not rec.valid and rec.error == str(short.value)
    batch = [good[0], good[1], replace(_REAL, r0_m=1e-200), good[2], good[3]]
    recs = run_batch(cfg, batch, genie)
    assert [r.valid for r in recs] == [True, True, False, True, True]
    for sc, rec in zip(batch, recs):
        assert _bits(rec) == _bits(run_trial(cfg, sc, genie))


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
def test_an_snr_beyond_float_range_is_an_invalid_trial(cfg, snr_db):
    rec = run_trial(cfg, replace(_FALSE, snr_db=snr_db))
    assert not rec.valid
    assert rec.error.startswith(f"snr_db={snr_db} gives noise variance")


def test_an_unknown_mode_is_rejected_before_any_trial(cfg, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(mc, "_front_half", no_trial)
    for run in (lambda: _tiny_sweep(cfg, mode="bogus"),
                lambda: run_batch(cfg, [_FALSE, _REAL], mode="bogus"),
                lambda: run_trial(cfg, _FALSE, mode="bogus")):
        with pytest.raises(ConfigurationError,
                           match="unknown statistic mode 'bogus'"):
            run()


def test_ill_conditioned_config_invalidates_every_trial():
    # At a carrier this far above the band, the Doppler rows cannot tell
    # velocity from offset: the scaled h0 design has condition ~1.7e12.
    cfg = build_config(f_c_hz=4e18, v_max_mps=1e-6)
    dm = build_design_matrices(cfg)
    obs = PeakObservations(delay_obs_s=np.zeros(cfg.m_symbols),
                           dopp_obs_hz=np.zeros(cfg.k_active))
    with pytest.raises(IllConditionedError) as ill:
        estimate_h0(obs, dm)
    base = replace(_FALSE, v_mps=0.0)
    curves = roc_sweep(cfg, [-5.0, 9.0], None, 7, False, base_scenario=base,
                       master_seed=3)
    assert [c.n_invalid for c in curves] == [14, 14]
    assert all(c.n_false_valid == c.n_real_valid == 0 for c in curves)
    recs = run_batch(cfg, _mixed_scenarios(7, master_seed=3))
    assert all(not r.valid and r.error == str(ill.value) for r in recs)


# -- both estimation modes in one pass ----------------------------------------

def _curve_bits(curve):
    """Every field of a RocCurve, arrays as their raw bytes."""
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                 for v in (getattr(curve, f.name) for f in fields(curve)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("numerology", ["default", "large"])
def test_sweep_over_both_flags_equals_the_single_flag_sweeps(numerology,
                                                            workers):
    cfg = build_config(**({} if numerology == "default" else _LARGE))
    kw = dict(snr_db_list=[-5.0, 9.0], gamma_grid=None, n_trials=7,
              base_scenario=_FALSE, master_seed=21, workers=workers)
    both = roc_sweep(cfg, genie=(False, True), **kw)
    apart = roc_sweep(cfg, genie=False, **kw) + roc_sweep(cfg, genie=True, **kw)
    assert [(c.genie, c.snr_db) for c in both] == [
        (False, -5.0), (False, 9.0), (True, -5.0), (True, 9.0)]
    assert [_curve_bits(c) for c in both] == [_curve_bits(c) for c in apart]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("numerology", ["default", "large"])
def test_a_failed_trial_stays_alone_under_both_flags(numerology, workers):
    cfg = build_config(**({} if numerology == "default" else _LARGE))
    good = _mixed_scenarios(10, master_seed=17)
    lost = replace(_FALSE, r0_m=1e80)
    # the lost trials sit inside a batch at either batch size (31 and 2)
    scenarios = [*good[:3], lost, *good[3:7], replace(lost, snr_db=np.inf),
                 *good[7:]]
    flags = (False, True)
    together = mc._run_many(cfg, scenarios, flags, MODE_AMPLITUDE,
                            mc.DEFAULT_CFO_FLOOR_HZ, workers)
    for genie, recs in zip(flags, together):
        assert [r.genie for r in recs] == [genie] * len(scenarios)
        assert [r.valid for r in recs] == [sc.r0_m != 1e80 for sc in scenarios]
        assert [_bits(r) for r in recs] == [
            _bits(run_trial(cfg, sc, genie)) for sc in scenarios]


def test_a_whole_batch_failure_is_recorded_on_every_live_trial(cfg,
                                                               monkeypatch):
    scenarios = _mixed_scenarios(5, master_seed=13)
    scenarios.insert(2, replace(_FALSE, r0_m=1e-80))  # its front half fails
    own_error = run_trial(cfg, scenarios[2]).error
    templates = mc.synth_templates

    def genie_stack_fails(c, est0s, est1s):
        # only genie templates carry the true 10 kHz offset
        if np.size(est0s.r0_hat_m) > 1 and np.any(est0s.f_cfo_hat_hz == _FALSE.f_cfo_hz):
            raise NoPeakError("stack refused")
        return templates(c, est0s, est1s)

    frames = []
    draw = mc.generate_frame
    monkeypatch.setattr(mc, "generate_frame",
                        lambda *args: frames.append(args) or draw(*args))
    monkeypatch.setattr(mc, "synth_templates", genie_stack_fails)
    recs = mc._run_batch(cfg, scenarios, (False, True), MODE_AMPLITUDE,
                         mc.DEFAULT_CFO_FLOOR_HZ, 0.0)[0]
    assert len(frames) == len(scenarios)  # nothing reran
    for genie, flag in zip((False, True), recs):
        assert [r.genie for r in flag] == [genie] * len(scenarios)
        assert [r.error for r in flag] == ["stack refused"] * 2 + [own_error] + [
            "stack refused"] * 3
        assert not any(r.valid for r in flag)
    assert own_error.endswith("path loss gain is inf")


@pytest.mark.parametrize("numerology", ["default", "large"])
def test_a_batch_mixing_front_half_failures_runs_each_trial_once(numerology,
                                                                 monkeypatch):
    cfg = build_config(**({} if numerology == "default" else _LARGE))
    good = _mixed_scenarios(6, master_seed=23)
    batch = [good[0], replace(_FALSE, r0_m=1e-80), good[1],
             replace(_REAL, snr_db=np.inf), good[2],
             replace(_FALSE, snr_db=4000.0), good[3], good[4],
             replace(_REAL, r0_m=1e-80, snr_db=4000.0), good[5],
             replace(_FALSE, r0_m=1e80, snr_db=np.inf)]
    flags = (False, True)
    alone = [[_bits(run_trial(cfg, sc, g)) for sc in batch] for g in flags]
    frames = []
    draw = mc.generate_frame

    def counted(*args):
        frames.append(args)
        return draw(*args)

    monkeypatch.setattr(mc, "generate_frame", counted)
    recs = mc._run_batch(cfg, batch, flags, MODE_AMPLITUDE,
                         mc.DEFAULT_CFO_FLOOR_HZ, 0.0)[0]
    assert len(frames) == len(batch)  # no trial reran
    assert [[_bits(r) for r in flag] for flag in recs] == alone
    errors = [r.error for r in recs[0]]
    assert [e is None for e in errors] == [
        True, False, True, True, True, False, True, True, False, True, False]
    assert errors[1].endswith("path loss gain is inf")
    assert errors[5].startswith("snr_db=4000.0 gives noise variance")
    assert errors[8] == errors[1]
    assert errors[10] == "grid is identically zero; no peak to extract"


def test_a_genie_solver_failure_stays_with_its_flag_and_trial(cfg, monkeypatch):
    import ofdmjrc.estimator

    solver = ofdmjrc.estimator._genie_solver

    def refuse(c, f_cfo_hz):
        if f_cfo_hz == 20e3:
            raise IllConditionedError("refused", condition=np.inf)
        return solver(c, f_cfo_hz)

    monkeypatch.setattr(ofdmjrc.estimator, "_genie_solver", refuse)
    scenarios = _mixed_scenarios(6, master_seed=31)
    scenarios[2] = replace(scenarios[2], f_cfo_hz=20e3)
    flags = (False, True)
    frames = []
    draw = mc.generate_frame
    monkeypatch.setattr(mc, "generate_frame",
                        lambda *args: frames.append(args) or draw(*args))
    recs = mc._run_batch(cfg, scenarios, flags, MODE_AMPLITUDE,
                         mc.DEFAULT_CFO_FLOOR_HZ, 0.0)[0]
    assert len(frames) == len(scenarios)  # the batch did not rerun
    assert [[r.error for r in flag] for flag in recs] == [
        [None] * 6, [None, None, "refused", None, None, None]]
    assert [[_bits(r) for r in flag] for flag in recs] == [
        [_bits(run_trial(cfg, sc, g)) for sc in scenarios] for g in flags]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("genie", [False, True])
def test_a_huge_finite_path_gain_gives_the_estimates_of_a_normal_one(cfg,
                                                                     genie):
    # The pipeline is invariant to the gain's scale until the noise
    # calibration overflows (1e-78 m) or the gain itself does (1e-79 m).
    base = run_trial(cfg, replace(_FALSE, r0_m=1e-70), genie)
    for k in range(21):  # 1e-70 ... 1e-80, per half decade
        r0_m = 1e-70 * 10.0 ** (-0.5 * k)
        rec = run_trial(cfg, replace(_FALSE, r0_m=r0_m), genie)
        assert rec.valid == (k < 16), (r0_m, rec.error)
        if rec.valid:
            assert rec.outcome.decision is base.outcome.decision
            assert rec.est1.r0_hat_m == pytest.approx(base.est1.r0_hat_m,
                                                      rel=1e-9)
        else:
            assert rec.error.startswith(("snr_db=9.0 gives", "range ")), rec.error


def test_both_modes_run_each_front_half_and_peak_search_once(tmp_path,
                                                            monkeypatch):
    import ofdmjrc.cli

    calls = {"generate_frame": 0, "extract_peak_observations": 0}

    def counted(name):
        fn = getattr(mc, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mc, name, counted(name))
    rc = ofdmjrc.cli.main(["roc", "--set", "mc.genie=both",
                           "--set", "mc.snr_db_list=-5,9",
                           "--set", "mc.n_trials=5", "--workers", "1",
                           "--out", str(tmp_path)])
    assert rc == 0
    n_scenarios = 2 * 2 * 5
    size = mc.batch_size(build_config())
    assert calls == {"generate_frame": n_scenarios,
                     "extract_peak_observations": -(-n_scenarios // size)}


class _SpyPool(concurrent.futures.ProcessPoolExecutor):
    """A process pool that records its size and the items of each task."""

    sizes: list = []
    items: list = []

    def __init__(self, max_workers=None, **kwargs):
        self.sizes.append(max_workers)
        super().__init__(max_workers, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        tasks = list(iterables[0])
        self.items.extend(tasks)
        return super().map(fn, tasks, **kwargs)


@pytest.fixture
def no_kept_pool():
    """Close the pool parallel sweeps keep, before and after the test, so
    its sweeps fork their own pool and no later test inherits it."""
    mc._close_pool()
    yield
    mc._close_pool()


def test_the_pool_gets_one_worker_per_chunk_at_most_and_tasks_carry_scenarios(
        cfg, monkeypatch, no_kept_pool):
    monkeypatch.setattr(_SpyPool, "sizes", [])
    monkeypatch.setattr(_SpyPool, "items", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SpyPool)
    scenarios = _mixed_scenarios(2 * mc.batch_size(cfg), master_seed=31)
    flags = (False, True)
    serial = mc._run_many(cfg, scenarios, flags, MODE_AMPLITUDE,
                          mc.DEFAULT_CFO_FLOOR_HZ, 1)
    pooled = mc._run_many(cfg, scenarios, flags, MODE_AMPLITUDE,
                          mc.DEFAULT_CFO_FLOOR_HZ, 6)
    assert _SpyPool.sizes == [2]
    # each task is (cfg, chunk of scenarios, the rest of _run_batch's arguments)
    assert [len(chunk) for _, chunk, _ in _SpyPool.items] == [mc.batch_size(cfg)] * 2
    assert all(isinstance(sc, Scenario) for _, chunk, _ in _SpyPool.items
               for sc in chunk)
    assert [(c, run) for c, _, run in _SpyPool.items] == [
        (cfg, (flags, MODE_AMPLITUDE, mc.DEFAULT_CFO_FLOOR_HZ, 0.0))] * 2
    assert [[_bits(r) for r in recs] for recs in pooled] == \
        [[_bits(r) for r in recs] for recs in serial]
    # one chunk runs in this process, without a pool
    mc._run_many(cfg, scenarios[:3], flags, MODE_AMPLITUDE,
                 mc.DEFAULT_CFO_FLOOR_HZ, 6)
    assert _SpyPool.sizes == [2]


def test_records_do_not_depend_on_the_sweep_batch_size(cfg, monkeypatch):
    good = _mixed_scenarios(39, master_seed=41)
    scenarios = [*good[:17], replace(_FALSE, r0_m=1e80), *good[17:]]
    runs = []
    for size in (mc.batch_size(cfg), 1, 7):  # chunks: 2 x 20, 40 x 1, 6 x 6-7
        monkeypatch.setattr(mc, "batch_size", lambda _cfg, size=size: size)
        runs.append([[_bits(r) for r in recs] for recs in mc._run_many(
            cfg, scenarios, (False, True), MODE_AMPLITUDE,
            mc.DEFAULT_CFO_FLOOR_HZ, 1)])
    assert [[b[0] for b in recs] for recs in runs[0]] == \
        [[sc.r0_m != 1e80 for sc in scenarios]] * 2
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_sweep_chunks_differ_by_at_most_one_and_ignore_the_worker_count(
        cfg, monkeypatch, no_kept_pool):
    monkeypatch.setattr(_SpyPool, "sizes", [])
    monkeypatch.setattr(_SpyPool, "items", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SpyPool)
    monkeypatch.setattr(mc, "batch_size", lambda _cfg: 7)
    serial, run_batch = [], mc._run_batch

    def spy(cfg, scenarios, *rest):
        serial.append(len(scenarios))
        return run_batch(cfg, scenarios, *rest)

    monkeypatch.setattr(mc, "_run_batch", spy)
    scenarios = _mixed_scenarios(16, master_seed=43)
    for workers in (1, 2):
        mc._run_many(cfg, scenarios, (False,), MODE_AMPLITUDE,
                     mc.DEFAULT_CFO_FLOOR_HZ, workers)
    assert serial == [len(chunk) for _, chunk, _ in _SpyPool.items] == [5, 5, 6]


def _worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _sweep_bits(cfg, scenarios, workers):
    return [[_bits(r) for r in recs] for recs in mc._run_many(
        cfg, scenarios, (False, True), MODE_AMPLITUDE, mc.DEFAULT_CFO_FLOOR_HZ,
        workers)]


def test_sweeps_of_one_size_reuse_the_workers_and_another_size_replaces_them(
        cfg, no_kept_pool):
    scenarios = _mixed_scenarios(3 * mc.batch_size(cfg), master_seed=47)
    serial = _sweep_bits(cfg, scenarios, 1)
    assert _worker_pids() == set()
    assert _sweep_bits(cfg, scenarios, 2) == serial
    pids = _worker_pids()
    assert len(pids) == 2
    assert _sweep_bits(cfg, scenarios, 2) == serial
    assert _worker_pids() == pids
    assert _sweep_bits(cfg, scenarios, 3) == serial
    assert len(_worker_pids()) == 3 and not _worker_pids() & pids
    assert not any(_alive(pid) for pid in pids)


def test_a_sweep_after_a_kept_worker_is_killed_matches_the_serial_records(
        cfg, no_kept_pool):
    scenarios = _mixed_scenarios(2 * mc.batch_size(cfg), master_seed=53)
    serial = _sweep_bits(cfg, scenarios, 1)
    assert _sweep_bits(cfg, scenarios, 2) == serial
    victim = min(_worker_pids())
    os.kill(victim, signal.SIGKILL)
    assert _sweep_bits(cfg, scenarios, 2) == serial
    assert victim not in _worker_pids() and len(_worker_pids()) == 2


# the fork of a pool by one thread while the other sweeps is the point here
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_sweeps_of_two_sizes_from_two_threads_take_turns_on_the_pool(
        cfg, no_kept_pool):
    scenarios = _mixed_scenarios(3 * mc.batch_size(cfg), master_seed=61)
    serial = _sweep_bits(cfg, scenarios, 1)
    runs = {}

    def sweeps(workers):
        runs[workers] = [_sweep_bits(cfg, scenarios, workers) for _ in range(4)]

    threads = [threading.Thread(target=sweeps, args=(w,)) for w in (2, 3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert runs == {2: [serial] * 4, 3: [serial] * 4}


_SWEEP_CODE = (
    "import os, signal, sys\n"
    "from ofdmjrc import Scenario, TargetKind, build_config, roc_sweep\n"
    "def sweep(workers):\n"
    "    return [(c.gamma.tobytes(), c.p_fa.tobytes(), c.p_d.tobytes()) for c in\n"
    "            roc_sweep(build_config(), [9.0], None, 40, (False, True),\n"
    "                      Scenario(kind=TargetKind.FALSE_TARGET), workers=workers)]\n")


def test_a_child_forked_after_a_parallel_sweep_forks_its_own_pool():
    """The child's copy of the kept pool has no manager thread; a sweep on
    it would wait forever (the alarm ends such a child with -SIGALRM).
    stderr is not checked: the child's multiprocessing exit hook reports
    the parent's workers, which it lists as children but cannot join."""
    code = _SWEEP_CODE + (
        "serial = sweep(1)\n"
        "assert sweep(2) == serial\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(60)\n"
        "    sys.exit(0 if sweep(2) == serial else 3)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), sweep(2) == serial)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_SRC_ENV, timeout=180)
    assert (proc.returncode, proc.stdout) == (0, "0 True\n")


# A module that outlives the last garbage collection, here held from sys,
# has its globals cleared after concurrent.futures.process's; an executor
# freed only then runs its weakref callback on that cleared module.
@pytest.mark.parametrize("keep", ["", "import ofdmjrc.montecarlo\n"
                                      "sys.kept = ofdmjrc.montecarlo\n"],
                         ids=["plain", "montecarlo-outlives-gc"])
def test_interpreter_exit_stops_the_kept_workers_and_prints_nothing(keep):
    code = _SWEEP_CODE + keep + (
        "import multiprocessing\n"
        "sweep(2)\n"
        "print(*sorted(p.pid for p in multiprocessing.active_children()))\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=_SRC_ENV, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


@pytest.mark.parametrize("numerology", ["default", "large"])
def test_a_serial_sweep_takes_no_cpu_beside_its_own_thread(numerology):
    """Process CPU time counts every thread, the thread clock only the
    caller's; a step that borrowed a BLAS thread would split them."""
    cfg = build_config(**({} if numerology == "default" else _LARGE))
    kw = dict(snr_db_list=[-5.0, 9.0], gamma_grid=None, genie=(False, True),
              base_scenario=_FALSE, master_seed=59, workers=1)
    roc_sweep(cfg, n_trials=4, **kw)  # per-config caches and lazy imports
    process, thread = time.process_time(), time.thread_time()
    roc_sweep(cfg, n_trials=60 if numerology == "default" else 8, **kw)
    process, thread = time.process_time() - process, time.thread_time() - thread
    assert process <= 1.25 * thread


@pytest.mark.parametrize("workers", [0, -2])
def test_roc_sweep_rejects_fewer_than_one_worker(cfg, workers):
    with pytest.raises(ConfigurationError, match="workers"):
        _tiny_sweep(cfg, workers=workers)


def test_roc_sweep_rejects_a_negative_master_seed(cfg):
    with pytest.raises(ConfigurationError, match="master_seed"):
        _tiny_sweep(cfg, master_seed=-1)


def test_nan_detector_values_are_rejected_before_any_trial(cfg):
    with pytest.raises(ConfigurationError, match="cfo_floor_hz must not be NaN"):
        _tiny_sweep(cfg, cfo_floor_hz=float("nan"))
    with pytest.raises(ConfigurationError, match="cfo_floor_hz must not be NaN"):
        run_batch(cfg, [_FALSE], cfo_floor_hz=float("nan"))
    with pytest.raises(ConfigurationError, match="gamma_prime must not be NaN"):
        run_trial(cfg, _FALSE, gamma_prime=float("nan"))
    # infinite thresholds are the exact (1,1) and (0,0) operating points
    for gamma_prime in (-np.inf, np.inf):
        assert run_trial(cfg, _FALSE, gamma_prime=gamma_prime).valid


def test_a_floor_above_every_offset_gives_only_zero_statistics(cfg):
    tiny = np.nextafter(0.0, 1.0)
    grid = [-tiny, tiny]
    curve = _tiny_sweep(cfg, gamma_grid=grid, cfo_floor_hz=1e9)[0]
    # every statistic is >= -tiny and < tiny: exactly zero
    assert curve.p_fa.tolist() == [1.0, 0.0]
    assert curve.p_d.tolist() == [1.0, 0.0]
    # with the default floor the false targets keep nonzero statistics
    curve = _tiny_sweep(cfg, gamma_grid=grid)[0]
    assert curve.p_fa.tolist() != [1.0, 0.0]
