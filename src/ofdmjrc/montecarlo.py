"""Trial orchestration, threshold sweeps, and ROC aggregation.

One trial runs the full pipeline: draw a frame, draw the channel,
synthesize the target grid, add calibrated noise, extract peak
observations, fit both hypotheses, rebuild templates, and score the
statistic. Trials are pure functions of (config, scenario), with all
randomness derived from scenario.seed, so any worker schedule produces
identical results.

Batches: run_batch runs several trials through one pass. Each trial
draws its frame, gain and noise from its own three RNG substreams, and
its noise and fits are its own; synthesis, FFTs, symbol removal, peak
extraction, conditioning, templates and statistics run once per batch
on a leading trial axis, using only operations whose per-trial bits do
not depend on the rest of the batch, so every record is bit for bit
what its scenario gets alone; run_trial is a batch of one. A trial
that fails is recorded invalid with the message it gets alone: every
error of a trial's own, a grid with no peak included, stays with that
trial, and nothing reruns.
roc_sweep cuts its trial list by position into near-equal batches (see
_run_many), so the batches do not depend on the worker count either.

Estimation modes: a batch can be scored under several genie flags; the
conditioning, statistics and decisions then run over every (flag,
trial) pair, the rest once. roc_sweep scores every trial under all its
flags in one pass and one worker pool.

Template conditioning: the raw fits are kept verbatim in the record,
but the templates are built from the bounded copies that
estimator.bounded_fits makes of them. A pair whose bounded h0 geometry
is the h1 one with a zero offset has identical templates, so its
statistic is exactly 0.0 and is set without building them.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    Scenario,
    TargetKind,
    add_awgn,
    draw_channel_gain,
    path_loss_gain,
    synth_target,
    wavelength_m,
)
from .detector import (
    MODE_AMPLITUDE,
    GlrtOutcome,
    check_mode,
    decide,
    glrt_statistic,
    synth_templates,
)
from .errors import ConfigurationError, OfdmJrcError
from .estimator import (
    Estimates,
    bounded_fits,
    build_design_matrices,
    estimate_h0,
    estimate_h1,
)
from .grids import FreqGrid, SampleGrid
from .rdmap import _WORKING_VALUES  # sizes batch_size's trial grids
from .rdmap import extract_peak_observations, fast_time_dft, remove_known_symbols
from .waveform import FrameSymbols, OfdmConfig, generate_frame

DEFAULT_CFO_FLOOR_HZ = 1.0
WILSON_Z = 1.959963984540054  # two-sided 95%
ROC_HEADER = "snr_db,genie,gamma,p_fa,p_d,p_fa_lo,p_fa_hi,p_d_lo,p_d_hi,n_trials"


@dataclass(frozen=True)
class TrialRecord:
    """Everything one trial produced, or the error that stopped it."""

    scenario: Scenario
    genie: bool
    truth: TargetKind
    seed: int
    est0: Estimates | None
    est1: Estimates | None
    t_stat: float
    outcome: GlrtOutcome | None
    valid: bool = True
    error: str | None = None


@dataclass(frozen=True)
class RocCurve:
    """One threshold sweep at a fixed SNR and estimation mode.

    Thresholds ascend; p_fa and p_d are non-increasing along them.
    n_trials is the requested count per truth side; the valid counts
    actually used for the rates (and the Wilson intervals) follow.
    """

    snr_db: float
    genie: bool
    gamma: np.ndarray
    p_fa: np.ndarray
    p_d: np.ndarray
    p_fa_lo: np.ndarray
    p_fa_hi: np.ndarray
    p_d_lo: np.ndarray
    p_d_hi: np.ndarray
    n_trials: int
    n_false_valid: int
    n_real_valid: int
    n_invalid: int


def wilson_interval(successes, n, z: float = WILSON_Z):
    """Wilson score interval for a binomial proportion; (0, 1) when n == 0."""
    k = np.asarray(successes, dtype=np.float64)
    if n == 0:
        shape = np.broadcast(k).shape
        return np.zeros(shape), np.ones(shape)
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    lo = np.clip(center - half, 0.0, 1.0)
    hi = np.clip(center + half, 0.0, 1.0)
    return lo, hi


def trial_seed(master_seed: int, snr_idx: int, kind_idx: int,
               trial_idx: int) -> int:
    """Counter-based per-trial seed, independent of execution order.

    The spawn key encodes (snr index, truth side, trial index) but not
    the genie flag, so genie and estimated runs see common random
    numbers: up to the fits they are the same trial, which is why
    roc_sweep runs it once and scores it under both flags.
    """
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(snr_idx, kind_idx, trial_idx))
    return int(ss.generate_state(1, np.uint64)[0])


def batch_size(cfg: OfdmConfig) -> int:
    """Most trials per run_batch call in a sweep: the most whose grids,
    B * k_active * m_symbols values, fit in rdmap._WORKING_VALUES."""
    return max(1, _WORKING_VALUES // (cfg.k_active * cfg.m_symbols))


def _front_half(cfg: OfdmConfig, scenarios):
    """Per trial in scenarios, its (frame, noisy) or the error its own
    steps raised; each draws from its own three RNG substreams of
    scenario.seed, and the synthesis runs once for the batch."""
    fronts, draws = [None] * len(scenarios), []
    for row, sc in enumerate(scenarios):
        frame_ss, gain_ss, noise_ss = np.random.SeedSequence(sc.seed).spawn(3)
        try:
            frame = generate_frame(cfg, np.random.default_rng(frame_ss))
            big_g = path_loss_gain(wavelength_m(cfg.f_c_hz), sc.sigma_rcs_m2, sc.r0_m)
            draws.append((row, frame, draw_channel_gain(
                big_g, sc, cfg, np.random.default_rng(gain_ss)), noise_ss))
        except OfdmJrcError as exc:
            fronts[row] = exc
    rows, frames, gains, noise_ss = zip(*draws) if draws else ((), (), (), ())
    grids = synth_target(cfg, [scenarios[r] for r in rows], FrameSymbols(x=np.reshape(
        [f.x for f in frames], (len(rows), cfg.k_active, cfg.m_symbols))), gains).y
    for row, frame, y, ss in zip(rows, frames, grids, noise_ss):
        try:
            fronts[row] = frame, add_awgn(SampleGrid(y=y), scenarios[row].snr_db,
                                          np.random.default_rng(ss))
        except OfdmJrcError as exc:
            fronts[row] = exc
    return fronts


def trial_grids(cfg: OfdmConfig, scenario: Scenario):
    """Frame, noisy sample grid and symbol-removed grid of one trial.

    The grids run_batch scores for this scenario, bit for bit, without
    scoring them; the rdmap export uses it.
    """
    front = _front_half(cfg, [scenario])[0]
    if isinstance(front, Exception):
        raise front
    frame, noisy = front
    return frame, noisy, remove_known_symbols(fast_time_dft(noisy, cfg), frame)


def _score(cfg, fg, scenarios, flags, mode, cfo_floor_hz, gamma_prime):
    """Per flag in flags, (est0, est1, t_stat, outcome) for each trial
    stacked in fg, or the error of its own peaks, fits, genie re-solve or
    decision. Only the fits run per trial; the templates and statistics
    skip the (flag, trial) pairs whose statistic is exactly zero."""
    peaks, no_peak = extract_peak_observations(fg, cfg)
    dm = build_design_matrices(cfg)
    # per trial: (est0, est1), or the error of its peaks or fits
    fits = [no_peak.get(row) for row in range(len(scenarios))]
    for row in [row for row, fit in enumerate(fits) if fit is None]:
        try:
            fits[row] = estimate_h0(peaks.take(row), dm), estimate_h1(peaks.take(row), dm)
        except OfdmJrcError as exc:
            fits[row] = exc
    # pair p is trial pairs[p][1] under flags[pairs[p][0]]
    pairs = [(f, row) for f in range(len(flags))
             for row, fit in enumerate(fits) if not isinstance(fit, Exception)]
    raw = [Estimates.stack([fits[row][i] for _, row in pairs], hyp)
           for i, hyp in enumerate(("h0", "h1"))]
    cfo = [scenarios[row].f_cfo_hz if flags[f] else np.nan for f, row in pairs]
    b0, b1, errors = bounded_fits(cfg, peaks.take([row for _, row in pairs]), *raw,
                                  cfo, cfo_floor_hz)
    # equal geometry and a zero offset: identical templates, T exactly 0
    zero = ((b0.f_cfo_hat_hz == 0.0) & (b0.r0_hat_m == b1.r0_hat_m)
            & (b0.v_hat_mps == b1.v_hat_mps))
    todo = [p for p in (~zero).nonzero()[0].tolist() if p not in errors]
    t_stats = np.zeros(len(pairs))
    t_stats[todo] = glrt_statistic(fg.vectorized()[[pairs[p][1] for p in todo]],
                                   synth_templates(cfg, b0.take(todo), b1.take(todo)), mode)
    per_flag = [list(fits) for _ in flags]
    for p, ((f, row), t) in enumerate(zip(pairs, t_stats.tolist())):
        try:
            per_flag[f][row] = errors[p] if p in errors else (
                *fits[row], t, decide(t, gamma_prime, mode))
        except OfdmJrcError as exc:
            per_flag[f][row] = exc
    return per_flag


def _record(scenario: Scenario, genie: bool, result) -> TrialRecord:
    failed = isinstance(result, Exception)
    est0, est1, t_stat, outcome = (None, None, float("nan"), None) if failed else result
    return TrialRecord(scenario=scenario, genie=genie, truth=scenario.kind,
                       seed=scenario.seed, est0=est0, est1=est1, t_stat=t_stat,
                       outcome=outcome, valid=not failed,
                       error=str(result) if failed else None)


def _check_detector(mode: str, cfo_floor_hz: float, gamma_prime: float) -> None:
    """An unknown mode fails every statistic, a NaN floor never snaps an
    offset to zero, a NaN threshold fails every decision; +-inf are legal."""
    check_mode(mode)
    for name, value in (("cfo_floor_hz", cfo_floor_hz), ("gamma_prime", gamma_prime)):
        if np.isnan(value):
            raise ConfigurationError(f"{name} must not be NaN")


def _run_batch(cfg, scenarios, flags, mode, cfo_floor_hz, gamma_prime):
    """run_batch's records under each flag in flags, plus each trial's
    front half (see _front_half) and the live trials' stacked
    symbol-removed grid (None if it was not made).

    A trial is live once its front half has run. Every per-trial error is
    reported with its trial; an error a whole-batch stage still raises is
    a fault of the batch, recorded on every live trial under every flag.
    """
    _check_detector(mode, cfo_floor_hz, gamma_prime)
    fronts = _front_half(cfg, scenarios)
    live = [i for i, front in enumerate(fronts) if not isinstance(front, Exception)]
    fg, scored = None, [[] for _ in flags]
    try:
        if live:
            noisy = SampleGrid(y=np.stack([fronts[i][1].y for i in live]))
            frames = FrameSymbols(x=np.stack([fronts[i][0].x for i in live]))
            fg = remove_known_symbols(fast_time_dft(noisy, cfg), frames)
            scored = _score(cfg, fg, [scenarios[i] for i in live], flags, mode,
                            cfo_floor_hz, gamma_prime)
    except OfdmJrcError as exc:
        scored = [[exc] * len(live) for _ in flags]
    records = []
    for genie, out in zip(flags, scored):
        by_trial = dict(zip(live, out))
        records.append([_record(sc, genie, by_trial.get(i, fronts[i]))
                        for i, sc in enumerate(scenarios)])
    return records, fronts, fg


def run_batch(cfg: OfdmConfig, scenarios, genie: bool = False,
              mode: str = MODE_AMPLITUDE,
              cfo_floor_hz: float = DEFAULT_CFO_FLOOR_HZ,
              gamma_prime: float = 0.0) -> list[TrialRecord]:
    """Run the full pipeline once per scenario; one record each, in order.

    Each record is bit for bit what the scenario gets in a batch of its
    own. Pipeline failures (ill-conditioned fits, missing peaks,
    calibration problems) are caught and recorded as an invalid trial
    rather than raised, and never touch the other trials of the batch.
    """
    return _run_batch(cfg, list(scenarios), (genie,), mode, cfo_floor_hz,
                      gamma_prime)[0][0]


def run_trial(cfg: OfdmConfig, scenario: Scenario, genie: bool = False,
              mode: str = MODE_AMPLITUDE,
              cfo_floor_hz: float = DEFAULT_CFO_FLOOR_HZ,
              gamma_prime: float = 0.0) -> TrialRecord:
    """Run the full pipeline once: run_batch on a batch of one."""
    return run_batch(cfg, [scenario], genie, mode, cfo_floor_hz, gamma_prime)[0]


def run_trial_with_grids(cfg: OfdmConfig, scenario: Scenario,
                         genie: bool = False, mode: str = MODE_AMPLITUDE,
                         cfo_floor_hz: float = DEFAULT_CFO_FLOOR_HZ,
                         gamma_prime: float = 0.0):
    """run_trial's record and the (frame, noisy, fg) it scored, from one
    pass; the grids are None when the trial failed before fg existed."""
    records, fronts, fg = _run_batch(cfg, [scenario], (genie,), mode,
                                     cfo_floor_hz, gamma_prime)
    if fg is None:
        return records[0][0], None
    return records[0][0], (*fronts[0], FreqGrid(y_tilde=fg.y_tilde[0]))


_POOL = None  # (pid, size, executor): the pool parallel sweeps reuse; see _pooled
_LOCK = threading.Lock()  # held by the sweep that uses or replaces _POOL


def _worker_batch(task) -> list[list[TrialRecord]]:
    return _run_batch(task[0], task[1], *task[2])[0]


def usable_cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin_worker(cpus) -> None:
    """Pool initializer: pin this worker to the next CPU queued in cpus."""
    os.sched_setaffinity(0, {cpus.get()})


def _new_pool(size: int):
    """A pool of size workers. A pool with a worker for every usable CPU
    is pinned where the platform can: worker i runs only on CPU i
    (round-robin) of them. A smaller pool is left to the scheduler."""
    allowed = usable_cpus()
    if size < len(allowed) or not hasattr(os, "sched_setaffinity"):
        return concurrent.futures.ProcessPoolExecutor(size)
    import multiprocessing
    cpus = multiprocessing.SimpleQueue()
    for i in range(size):
        cpus.put(allowed[i % len(allowed)])
    return concurrent.futures.ProcessPoolExecutor(size, initializer=_pin_worker,
                                                  initargs=(cpus,))


@atexit.register
def _close_pool() -> None:
    global _POOL
    if _POOL is not None and _POOL[0] == os.getpid():
        _POOL[2].shutdown()
    _POOL = None


def _pooled(tasks, size: int, per_call: int) -> list:
    """_worker_batch of each task, in order, on the kept pool of size
    workers (see _new_pool), one sweep at a time. A pool of another size,
    or one a forked child copied (its manager thread stayed in the
    parent), is replaced. A broken pool is dropped: a kept one (a worker
    died since the last sweep) gives way to a fresh one; a fresh one raises."""
    global _POOL
    with _LOCK:
        kept = _POOL is not None and _POOL[:2] == (os.getpid(), size)
        for fresh in ((False, True) if kept else (True,)):
            if fresh:
                _close_pool()
                _POOL = os.getpid(), size, _new_pool(size)
            try:
                return list(_POOL[2].map(_worker_batch, tasks, chunksize=per_call))
            except concurrent.futures.process.BrokenProcessPool:
                _close_pool()
                if fresh:
                    raise


def _run_many(cfg: OfdmConfig, scenarios, flags, mode: str,
              cfo_floor_hz: float, workers: int) -> list[list[TrialRecord]]:
    """Records of every scenario under each flag, run in the fewest chunks
    of at most batch_size(cfg), cut by position into sizes within one of
    each other, so the batches never depend on the worker count. Several
    chunks and workers run on one pool of min(workers, chunks) processes,
    kept for later sweeps of that size (see _pooled); a task carries its
    cfg, so the workers' per-config caches last across sweeps."""
    n = -(-len(scenarios) // batch_size(cfg))
    cuts = [len(scenarios) * i // n for i in range(n + 1)]
    chunks = [scenarios[a:b] for a, b in zip(cuts, cuts[1:])]
    run = (flags, mode, cfo_floor_hz, 0.0)
    workers = min(workers, len(chunks))
    if workers <= 1:
        batches = [_run_batch(cfg, c, *run)[0] for c in chunks]
    else:
        batches = _pooled([(cfg, c, run) for c in chunks], workers,
                          max(1, len(chunks) // (workers * 4)))
    return [[rec for batch in batches for rec in batch[f]]
            for f in range(len(flags))]


def auto_gamma_grid(t_stats: np.ndarray, n_per_side: int = 39) -> np.ndarray:
    """Symmetric log-spaced threshold grid bracketing the observed statistics.

    Spans both signs over eleven decades below the largest magnitude,
    with exact 0 in the middle and -inf/+inf endpoints pinning the (1,1)
    and (0,0) operating points. Default size 2*39 + 3 = 81.
    """
    t = np.asarray(t_stats, dtype=np.float64)
    t = t[np.isfinite(t)]
    scale = float(np.max(np.abs(t))) if t.size else 0.0
    if scale == 0.0:
        scale = 1.0
    mags = np.logspace(0.5, -11.5, n_per_side)
    neg = -scale * mags
    pos = scale * mags[::-1]
    return np.concatenate([[-np.inf], neg, [0.0], pos, [np.inf]])


def roc_sweep(cfg: OfdmConfig, snr_db_list, gamma_grid, n_trials: int,
              genie, base_scenario: Scenario | None = None,
              master_seed: int = 0, mode: str = MODE_AMPLITUDE,
              cfo_floor_hz: float = DEFAULT_CFO_FLOOR_HZ,
              workers: int = 1) -> list[RocCurve]:
    """Monte Carlo threshold sweep: one RocCurve per genie flag and SNR.

    genie is one flag or a sequence of them; curves come out flag-major,
    SNRs in order within each flag. Per SNR, n_trials false-target trials
    and n_trials real-target trials are run once and scored under every
    flag; every threshold then reuses the cached statistics, so the whole
    grid costs one pipeline pass per trial. gamma_grid=None picks a grid
    automatically from the statistics. base_scenario supplies the fixed
    geometry (range, velocity, offset, cross section); its kind, snr,
    offset, and seed are overridden per trial.
    """
    flags = (genie,) if np.ndim(genie) == 0 else tuple(genie)
    snr_db_list = [float(s) for s in snr_db_list]
    if not snr_db_list:
        raise ConfigurationError("snr_db_list must not be empty")
    if n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if master_seed < 0:
        raise ConfigurationError(f"master_seed must be >= 0, got {master_seed}")
    _check_detector(mode, cfo_floor_hz, 0.0)
    if gamma_grid is not None:
        gamma_grid = np.asarray(gamma_grid, dtype=np.float64)
        if gamma_grid.size == 0:
            raise ConfigurationError("gamma_grid must not be empty")
        gamma_grid = np.sort(gamma_grid)
    if base_scenario is None:
        base_scenario = Scenario(kind=TargetKind.FALSE_TARGET)

    scenarios = []
    for snr_idx, snr in enumerate(snr_db_list):
        for kind_idx, kind in enumerate((TargetKind.FALSE_TARGET,
                                         TargetKind.REAL_TARGET)):
            f_cfo = base_scenario.f_cfo_hz if kind is TargetKind.FALSE_TARGET else 0.0
            for trial_idx in range(n_trials):
                seed = trial_seed(master_seed, snr_idx, kind_idx, trial_idx)
                scenarios.append(replace(base_scenario, kind=kind,
                                         f_cfo_hz=f_cfo, snr_db=snr, seed=seed))
    curves = []
    for genie, records in zip(flags, _run_many(cfg, scenarios, flags, mode,
                                               cfo_floor_hz, workers)):
        for snr_idx, snr in enumerate(snr_db_list):
            # Records run snr -> truth side -> trial, n_trials per side.
            start = 2 * snr_idx * n_trials
            false_recs = records[start:start + n_trials]
            real_recs = records[start + n_trials:start + 2 * n_trials]
            t_false = np.array([r.t_stat for r in false_recs if r.valid])
            t_real = np.array([r.t_stat for r in real_recs if r.valid])
            n_invalid = 2 * n_trials - t_false.size - t_real.size
            gamma = (gamma_grid if gamma_grid is not None
                     else auto_gamma_grid(np.concatenate([t_false, t_real])))
            k_fa = (t_false[None, :] >= gamma[:, None]).sum(axis=1)
            k_d = (t_real[None, :] >= gamma[:, None]).sum(axis=1)
            nf, nr = t_false.size, t_real.size
            p_fa = k_fa / nf if nf else np.zeros(gamma.size)
            p_d = k_d / nr if nr else np.zeros(gamma.size)
            fa_lo, fa_hi = wilson_interval(k_fa, nf)
            d_lo, d_hi = wilson_interval(k_d, nr)
            curves.append(RocCurve(
                snr_db=snr, genie=genie, gamma=gamma,
                p_fa=p_fa, p_d=p_d,
                p_fa_lo=fa_lo, p_fa_hi=fa_hi, p_d_lo=d_lo, p_d_hi=d_hi,
                n_trials=n_trials, n_false_valid=nf, n_real_valid=nr,
                n_invalid=n_invalid,
            ))
    return curves


def write_roc_csv(path, curves) -> None:
    """CSV with one row per (curve, threshold); floats use repr for
    lossless round trips, so identical sweeps produce identical bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ROC_HEADER + "\n")
        for c in curves:
            genie = "true" if c.genie else "false"
            for i in range(c.gamma.size):
                vals = [c.snr_db, c.gamma[i], c.p_fa[i], c.p_d[i],
                        c.p_fa_lo[i], c.p_fa_hi[i], c.p_d_lo[i], c.p_d_hi[i]]
                s = [repr(float(v)) for v in vals]
                fh.write(f"{s[0]},{genie},{s[1]},{s[2]},{s[3]},"
                         f"{s[4]},{s[5]},{s[6]},{s[7]},{c.n_trials}\n")
