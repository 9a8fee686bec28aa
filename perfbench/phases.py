"""Measurement phases of one benchmark run, and the checks on their outputs.

Each phase drives ofdmjrc in-process, through the CLI entry point
``ofdmjrc.cli.main`` or the public ``run_trial``, and checks what it
produced before a number is reported. A failed check is recorded as a
gate; the run then reports ``"correct": false`` and exits non-zero.

Timings leave out the time the virtual machine's host takes the CPUs away
(steal), which on a shared host varies by tens of percent from minute to
minute. A step that runs in the calling thread is timed by that thread's
CPU clock. A step that spans processes (the worker pool, a fresh
interpreter) is timed as wall time less the steal the kernel counted per
CPU meanwhile.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ofdmjrc import TargetKind, cli, configio, montecarlo

from tracing import Tracer, patched

# Every sweep is the paper's operating point plus one unsaturated SNR:
# at -5 dB the estimated-mode ROC is far from perfect, so a quality
# regression moves its AUC; at 9 dB every curve is saturated.
SNRS = (-5.0, 9.0)
CFO_SNR_DB = 9.0
ROC_SETS = ("mc.snr_db_list=-5,9", "mc.genie=both")
ROC_HEADER = "snr_db,genie,gamma,p_fa,p_d,p_fa_lo,p_fa_hi,p_d_lo,p_d_hi,n_trials"
PLOT_TRIALS = 2
MIN_ROUNDS = 8
# The latency tail is p90, not p99. Even on the thread's CPU clock, p99
# moved about 20% between runs on a shared machine, close to the largest
# bound the benchmark may set; p90 moved about 5%.
TAIL_PERCENTILE = 90.0
WARM_TRIALS = 2  # untimed at the start of each latency block
REPLAY_SHARE = 0.7  # of --seconds in the traced run; sweeps and exports follow

# Names run_trial looks up in ofdmjrc.montecarlo for each pipeline stage.
STAGES = ("generate_frame", "draw_channel_gain", "synth_target", "add_awgn",
          "fast_time_dft", "remove_known_symbols", "extract_peak_observations",
          "build_design_matrices", "estimate_h0", "estimate_h1",
          "synth_templates", "glrt_statistic", "decide")
# Names the simulate, rdmap and plot commands look up in ofdmjrc.cli.
EXPORT_CALLS = ("run_trial", "_pipeline_grids", "write_frame_csv",
                "write_grid_csv", "write_grid_bin", "_write_freq_csv",
                "range_doppler_map", "write_rdmap_csv", "parse_roc_csv",
                "render_roc_svg", "write_manifest")
_SEED_TAGS = {"sweep": 1, "latency": 2, "export": 3, "plot": 4, "replay": 5,
              "setup": 6, "warm": 7}

SETUP_CODE = """\
import json, sys
import ofdmjrc
cfg = ofdmjrc.build_config(**json.loads(sys.argv[1]))
sc = ofdmjrc.Scenario(kind=ofdmjrc.TargetKind.FALSE_TARGET, seed=int(sys.argv[2]))
sys.exit(0 if ofdmjrc.run_trial(cfg, sc).valid else 1)
"""


@dataclass
class Run:
    """State of one benchmark run: inputs, counters and gate results."""

    root: Path
    work: Path
    workload: object  # run.Workload
    seed: int
    seconds: float
    smoke: bool
    workers: int
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    gates: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def __post_init__(self):
        self.sets = [f"ofdm.{k}={v}" for k, v in self.workload.ofdm.items()]
        self.cfg_map = configio.resolve_config(None, self.sets)
        self.cfg = configio.ofdm_config_from(self.cfg_map)
        self.base = configio.scenario_from(self.cfg_map)
        self.mode = configio.detector_mode_from(self.cfg_map)
        self.cfo_floor = self.cfg_map["detector.cfo_floor_hz"]
        self.rep_trials = 2 if self.smoke else self.workload.rep_trials

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one check; repeats of a name are tallied as passed/total."""
        tally = self.gates.setdefault(name, [0, 0, ""])
        tally[0] += bool(ok)
        tally[1] += 1
        if not ok or not tally[2]:
            tally[2] = detail

    @property
    def correct(self) -> bool:
        return all(passed == total for passed, total, _ in self.gates.values())

    def seed_for(self, tag: str, rep: int) -> int:
        ss = np.random.SeedSequence([self.seed, _SEED_TAGS[tag], rep])
        return int(ss.generate_state(1)[0])

    def run_trial(self, scenario, genie, fn=None):
        return (fn or montecarlo.run_trial)(self.cfg, scenario, genie,
                                            self.mode, self.cfo_floor)


def _set_args(sets) -> list[str]:
    return [a for s in sets for a in ("--set", s)]


def _steal_s() -> float:
    """Seconds the host has taken from this machine's CPUs, summed over them."""
    with open("/proc/stat", encoding="ascii") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


@dataclass
class Elapsed:
    """Time a block took: ``cpu`` on the calling thread's CPU clock, and
    ``unstolen``, wall time less the mean steal per CPU."""

    cpu: float = 0.0
    unstolen: float = 0.0


@contextlib.contextmanager
def timed():
    took = Elapsed()
    steal0, wall0, cpu0 = _steal_s(), time.perf_counter(), time.thread_time()
    yield took
    took.cpu = time.thread_time() - cpu0
    took.unstolen = (time.perf_counter() - wall0
                     - (_steal_s() - steal0) / os.cpu_count())


def run_cli(run: Run, argv: list[str]) -> Elapsed:
    """One in-process `ofdmjrc` command and the time it took."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with timed() as took:
            rc = cli.main(argv)
    run.attempted += 1
    if rc != 0:
        run.failed += 1
        run.failures[f"cli {argv[0]} exit {rc}"] += 1
        run.gate(f"ofdmjrc {argv[0]} exits 0", False,
                 f"exit {rc}: {err.getvalue().strip()}")
    return took


@contextlib.contextmanager
def captured_curves(curves: list):
    """Keep the RocCurves `ofdmjrc roc` computes, for their invalid counts."""
    sweep = cli.roc_sweep

    def keep(*args, **kwargs):
        out = sweep(*args, **kwargs)
        curves.extend(out)
        return out

    cli.roc_sweep = keep
    try:
        yield
    finally:
        cli.roc_sweep = sweep


# -- ROC sweeps -------------------------------------------------------------

@dataclass
class RocRep:
    seconds: float  # thread CPU time at 1 worker, unstolen wall time above
    trials: int
    csv: bytes


def check_roc_csv(run: Run, data: bytes, n_trials: int, what: str) -> dict:
    """Schema and shape gates on one roc.csv; returns points per curve."""
    lines = data.decode("utf-8").splitlines()
    curves: dict[tuple[float, str], list[tuple[float, float]]] = {}
    ok = bool(lines) and lines[0] == ROC_HEADER
    for line in lines[1:]:
        f = line.split(",")
        ok = ok and len(f) == 10 and int(f[9]) == n_trials
        if ok:
            curves.setdefault((float(f[0]), f[1]), []).append(
                (float(f[3]), float(f[4])))
    want = {(s, g) for s in SNRS for g in ("false", "true")}
    ok = ok and set(curves) == want
    ok = ok and len({len(p) for p in curves.values()}) == 1
    for pts in curves.values():
        p_fa = [p[0] for p in pts]
        p_d = [p[1] for p in pts]
        ok = ok and pts[0] == (1.0, 1.0) and pts[-1] == (0.0, 0.0)
        ok = ok and all(np.diff(p_fa) <= 0) and all(np.diff(p_d) <= 0)
    run.gate(f"{what} roc.csv schema and ROC shape", ok,
             f"{len(lines) - 1} rows")
    return curves


def roc_auc(points) -> float:
    """Trapezoidal area under (p_fa, p_d) points."""
    pts = sorted(points)
    return float(sum((b[0] - a[0]) * (a[1] + b[1]) / 2.0
                     for a, b in zip(pts, pts[1:])))


def roc_rep(run: Run, master: int, workers: int, n_trials: int,
            tracer: Tracer | None = None) -> RocRep:
    """One `ofdmjrc roc` at the workload's numerology; invalid trials count
    as failed."""
    out = run.work / f"roc-{master}-w{workers}"
    argv = ["roc", *_set_args([*run.sets, *ROC_SETS, f"mc.n_trials={n_trials}"]),
            "--seed", str(master), "--workers", str(workers), "--out", str(out)]
    curves: list = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(patched(cli, ("roc_sweep", "write_roc_csv"),
                                        tracer))
            stack.enter_context(tracer.span(f"cli.roc_w{workers}"))
        stack.enter_context(captured_curves(curves))
        took = run_cli(run, argv)
    trials = sum(2 * c.n_trials for c in curves)
    invalid = sum(c.n_invalid for c in curves)
    run.attempted += trials
    run.failed += invalid
    if invalid:
        run.failures["roc_sweep invalid trial (RocCurve gives no class)"] += invalid
    csv_path = out / "roc.csv"
    data = csv_path.read_bytes() if csv_path.is_file() else b""
    shutil.rmtree(out, ignore_errors=True)
    return RocRep(seconds=took.cpu if workers == 1 else took.unstolen,
                  trials=trials, csv=data)


def sweep_pair(run: Run, master: int, tracer: Tracer | None = None):
    """The same `ofdmjrc roc` serially and at nproc workers; the two
    roc.csv files must be byte-identical."""
    serial = roc_rep(run, master, 1, run.rep_trials, tracer)
    parallel = roc_rep(run, master, run.workers, run.rep_trials, tracer)
    run.gate(f"serial and {run.workers}-worker roc.csv byte-identical",
             serial.csv and serial.csv == parallel.csv, f"seed {master}")
    return serial, parallel


# -- closed-loop trial latency ----------------------------------------------

def trial_mix(run: Run, tag: str, i: int):
    """Scenario i of the sweep's mix: SNR, truth side and mode cycle with i."""
    snr_idx, kind_idx, genie = i % 2, (i // 2) % 2, bool((i // 4) % 2)
    false_side = kind_idx == 0
    sc = replace(run.base,
                 kind=TargetKind.FALSE_TARGET if false_side else TargetKind.REAL_TARGET,
                 f_cfo_hz=run.base.f_cfo_hz if false_side else 0.0,
                 snr_db=SNRS[snr_idx],
                 seed=montecarlo.trial_seed(run.seed_for(tag, 0), snr_idx,
                                            kind_idx, i))
    return sc, genie


def classify_failure(run: Run, scenario, genie) -> str:
    """Exception class of an invalid trial, from a traced re-run."""
    tracer = Tracer()
    with patched(montecarlo, STAGES, tracer):
        run.run_trial(scenario, genie)
    raised = [s for s in tracer.spans if s.error]
    if raised:
        return f"{raised[0].error} in {raised[0].name}"
    return "raised in run_trial's own code"


def latency_block(run: Run, lat_us: list, cfo_err: list, n: int) -> None:
    """n more run_trial calls from one caller in a closed loop. The loop
    is warmed first, since the round's other steps leave caches cold."""
    warm_up(run, WARM_TRIALS)
    first = len(lat_us)
    mix = [trial_mix(run, "latency", i) for i in range(first, first + n)]
    for sc, genie in mix:
        t0 = time.thread_time_ns()
        rec = run.run_trial(sc, genie)
        lat_us.append((time.thread_time_ns() - t0) / 1e3)
        if not rec.valid:
            run.failed += 1
            run.failures[classify_failure(run, sc, genie)] += 1
        elif sc.kind is TargetKind.FALSE_TARGET and sc.snr_db == CFO_SNR_DB:
            cfo_err.append(abs(rec.est0.f_cfo_hat_hz - sc.f_cfo_hz))
    run.attempted += n


# -- CLI export -------------------------------------------------------------

def _csv_rows(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    head, _, _ = data.partition(b"\n")
    return head.decode("utf-8"), data.count(b"\n") - 1


def check_export(run: Run, out: Path, seed: int) -> None:
    """Every export file exists with its header and row count, and
    trial.json reports what run_trial computes for the same scenario."""
    cfg = run.cfg
    k, m, n, zp = cfg.k_active, cfg.m_symbols, cfg.n_fft, cfg.zero_pad
    expect = {
        "frame.csv": ("k,m,re,im", k * m),
        "sample_grid.csv": ("m,n,re,im", m * n),
        "freq_grid.csv": ("k,m,re,im", k * m),
        "rdmap.csv": ("delay_s,doppler_hz,magnitude", n * zp * m * zp),
    }
    bad = []
    for name, (header, rows) in expect.items():
        path = out / name
        got = _csv_rows(path) if path.is_file() else ("missing", 0)
        if got != (header, rows):
            bad.append(f"{name}: {got} != {(header, rows)}")
    grid_bin = out / "sample_grid.bin"
    if not grid_bin.is_file() or grid_bin.stat().st_size != 8 + 8 * m * n:
        bad.append("sample_grid.bin size")
    svg = out / "roc.svg"
    if not svg.is_file() or b"</svg>" not in svg.read_bytes():
        bad.append("roc.svg")
    if not (out / "manifest.json").is_file():
        bad.append("manifest.json")
    trial_path = out / "trial.json"
    if trial_path.is_file():
        trial = json.loads(trial_path.read_text(encoding="utf-8"))
        rec = montecarlo.run_trial(
            cfg, configio.scenario_from(run.cfg_map, seed=seed), False,
            run.mode, run.cfo_floor, run.cfg_map["detector.gamma_prime"])
        if not (trial["valid"] and rec.valid and trial["t_stat"] == rec.t_stat):
            bad.append("trial.json t_stat differs from run_trial")
    else:
        bad.append("trial.json")
    run.gate("export outputs (headers, row counts, trial.json)", not bad,
             "; ".join(bad))


def make_plot_input(run: Run) -> Path:
    """A small roc.csv for `ofdmjrc plot`, made once per run, untimed."""
    rep = roc_rep(run, run.seed_for("plot", 0), 1, PLOT_TRIALS)
    check_roc_csv(run, rep.csv, PLOT_TRIALS, "plot input")
    path = run.work / "plot-input.csv"
    path.write_bytes(rep.csv)
    return path


def export_rep(run: Run, r: int, roc_csv: Path,
               tracer: Tracer | None = None) -> tuple[float, int]:
    """simulate (with grid dumps), rdmap, plot; returns (seconds, bytes)."""
    out = run.work / f"export-{r}"
    seed = run.seed_for("export", r)
    common = [*_set_args([*run.sets, "io.dump_grids=true"]),
              "--seed", str(seed), "--out", str(out)]
    commands = (["simulate", *common], ["rdmap", *common],
                ["plot", str(roc_csv), "--out", str(out)])
    total = 0.0
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(patched(cli, EXPORT_CALLS, tracer))
        for argv in commands:
            with tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext():
                total += run_cli(run, argv).cpu
    check_export(run, out, seed)
    nbytes = sum(p.stat().st_size for p in out.iterdir())
    shutil.rmtree(out)
    return total, nbytes


# -- set-up and memory ------------------------------------------------------

def setup_once(run: Run, r: int) -> float:
    """Wall time of a fresh interpreter importing ofdmjrc, building the
    workload's config and running a first trial."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(run.root / "src"), env.get("PYTHONPATH", "")) if p)
    argv = [sys.executable, "-c", SETUP_CODE, json.dumps(run.workload.ofdm),
            str(run.seed_for("setup", r))]
    with timed() as took:
        proc = subprocess.run(argv, cwd=run.root, env=env, capture_output=True,
                              text=True, timeout=150)
    run.attempted += 1
    if proc.returncode != 0:
        run.failed += 1
        run.failures[f"set-up exit {proc.returncode}"] += 1
    run.gate("fresh-interpreter set-up exits 0", proc.returncode == 0,
             proc.stderr.strip()[-300:])
    return took.unstolen


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def warm_up(run: Run, n: int = 8) -> None:
    """Untimed trials: fill caches and finish lazy imports before timing."""
    for i in range(n):
        run.run_trial(*trial_mix(run, "replay", 10**6 + i))


# -- the untraced run: end-to-end metrics -----------------------------------

def measure(run: Run) -> dict:
    """Rounds of serial sweep, parallel sweep, latency block, export and
    set-up, repeated until --seconds have passed and the latency sample
    is full. Interleaving spreads every metric over the whole run, so a
    slow spell on a shared machine does not land on one metric alone."""
    roc_csv = make_plot_input(run)
    warm_up(run)
    # On roc-large-grid the first sweep pair of a process runs about 10%
    # slower than later ones; it is checked but not timed.
    sweep_pair(run, run.seed_for("warm", 0))
    serial, parallel, exports, setups, aucs = [], [], [], [], []
    lat_us: list[float] = []
    cfo_err: list[float] = []
    block = 24 if run.smoke else run.workload.latency_block
    t_end = time.perf_counter() + run.seconds
    r = 0
    while r < (1 if run.smoke else MIN_ROUNDS) or time.perf_counter() < t_end:
        s, p = sweep_pair(run, run.seed_for("sweep", r))
        serial.append(s.trials / s.seconds)
        parallel.append(p.trials / p.seconds)
        curves = check_roc_csv(run, s.csv, run.rep_trials, "serial")
        if (SNRS[0], "false") in curves:
            aucs.append(roc_auc(curves[(SNRS[0], "false")]))
        latency_block(run, lat_us, cfo_err, block)
        for _ in range(1 if run.smoke else run.workload.exports_per_round):
            exports.append(export_rep(run, len(exports), roc_csv))
        setups.append(setup_once(run, r))
        r += 1
    beyond = len(lat_us) * (1.0 - TAIL_PERCENTILE / 100.0)
    run.gate("closed loop has false-target trials at 9 dB", len(cfo_err) > 0)
    run.gate("at least 10 latency samples beyond the tail percentile",
             run.smoke or beyond >= 10, f"{beyond:.0f}")
    # The highest percentile with 10 samples beyond it is shown for
    # reference only; it has no bound (see TAIL_PERCENTILE).
    p99_q = min(99.0, 100.0 * (1.0 - 10.0 / len(lat_us)))
    run.info.update({
        "rounds": r, "trials_per_rep": s.trials,
        "latency_samples": len(lat_us),
        f"trial_p{p99_q:g}_us (no bound)": float(np.percentile(lat_us, p99_q)),
        "cfo_err_samples": len(cfo_err), "export_reps": len(exports)})
    run.samples.update({
        "setup_s": setups, "trials_per_s": serial,
        "trials_per_s_parallel": parallel, "trial_us": lat_us,
        "export_s": [e[0] for e in exports], "auc_estimated": aucs,
        "cfo_err_hz": cfo_err})
    # Some rounds run up to 1.7x faster than the rest, in spells of a few
    # seconds when the host's other load lets up. The quartile on the slow
    # side stays with the common rounds until such spells fill three
    # quarters of a run; the median jumps once they fill half.
    return {
        "setup_s": statistics.median(setups),
        "trials_per_s": float(np.percentile(serial, 25)),
        "trials_per_s_parallel": float(np.percentile(parallel, 25)),
        "trial_p50_us": float(np.percentile(lat_us, 50)),
        "trial_p90_us": float(np.percentile(lat_us, TAIL_PERCENTILE)),
        "export_s": float(np.percentile([e[0] for e in exports], 75)),
        "peak_rss_mb": peak_rss_mb(),
        "auc_estimated": float(np.mean(aucs)) if aucs else float("nan"),
        "cfo_err_hz_p50":
            float(np.median(cfo_err)) if cfo_err else float("nan"),
    }


# -- the traced run: per-layer metrics --------------------------------------

def _bits(est):
    if est is None:
        return None
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in (est.r0_hat_m, est.v_hat_mps, est.f_cfo_hat_hz,
                           est.residual_norm, est.hypothesis))


def replay_phase(run: Run, tracer: Tracer, budget: float) -> dict:
    """Traced and untraced run_trial on the same scenarios, alternating
    which goes first. Stage spans come from wrapping the names run_trial
    calls; the captured estimate_h0/estimate_h1 results must equal both
    records' est0/est1 bit for bit."""
    traced_trial = tracer.wrap("montecarlo.run_trial", montecarlo.run_trial)
    untraced_us, trial_spans, mismatched, missing = [], [], 0, 0
    min_pairs = 8 if run.smoke else 50
    t_end = time.perf_counter() + budget
    i = 0
    while i < min_pairs or time.perf_counter() < t_end:
        sc, genie = trial_mix(run, "replay", i)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.trial = i
                first = len(tracer.spans)
                with patched(montecarlo, STAGES, tracer,
                             keep=("estimate_h0", "estimate_h1")):
                    rec_t = run.run_trial(sc, genie, traced_trial)
            else:
                t0 = time.thread_time_ns()
                rec_u = run.run_trial(sc, genie)
                untraced_us.append((time.thread_time_ns() - t0) / 1e3)
        trial_spans.append(first)
        kids = [s for s in tracer.spans[first + 1:] if s.parent == first]
        fits = {s.name.rsplit(".", 1)[-1]: s.result for s in kids if s.result}
        for s in kids:
            s.result = None
        run.attempted += 2
        if not rec_t.valid or not rec_u.valid:
            run.failed += (not rec_t.valid) + (not rec_u.valid)
            run.failures[classify_failure(run, sc, genie)] += 1
            mismatched += rec_t.error != rec_u.error
        else:
            missing += len(kids) != len(STAGES)
            mismatched += not (
                _bits(fits.get("estimate_h0")) == _bits(rec_t.est0)
                == _bits(rec_u.est0)
                and _bits(fits.get("estimate_h1")) == _bits(rec_t.est1)
                == _bits(rec_u.est1)
                and rec_t.t_stat.hex() == rec_u.t_stat.hex())
        i += 1
    run.gate("traced replay estimate_h0/h1 equal run_trial est0/est1 bitwise",
             mismatched == 0, f"{mismatched}/{i} trials differ")
    run.gate("every valid traced trial has one span per stage", missing == 0,
             f"{missing}/{i} trials")
    run.info["replay_trials"] = i
    tracer.trial = -1

    spans = tracer.spans
    own = tracer.self_us()
    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.us)
    trial_us = [spans[j].us for j in trial_spans]
    overhead_us = [own[j] for j in trial_spans]
    layer_self: Counter = Counter()
    for s, t in zip(spans, own):
        if s.trial >= 0:
            layer_self[s.name.split(".")[0]] += t
    total = sum(trial_us)
    run.info["replay_self_share_by_layer"] = {
        k: v / total for k, v in layer_self.most_common()}
    p50 = {name: float(np.median(v)) for name, v in by_name.items()}
    stage_names = [n for n in p50 if n != "montecarlo.run_trial"]
    metrics = {f"{n}_us": p50[n] for n in stage_names}
    run_p50 = float(np.median(trial_us))
    over_p50 = float(np.median(overhead_us))
    metrics.update({
        "montecarlo.run_trial_us": run_p50,
        "montecarlo.trial_overhead_us": over_p50,
        "montecarlo.refine_share":
            p50["rdmap.extract_peak_observations"] / run_p50,
        "trace.overhead_us": run_p50 - float(np.median(untraced_us)),
        "trace.accounted_share":
            (sum(p50[n] for n in stage_names) + over_p50) / run_p50,
    })
    return metrics


def trace(run: Run) -> tuple[dict, Tracer]:
    """The traced replay, then one traced sweep pair and traced exports."""
    tracer = Tracer()
    roc_csv = make_plot_input(run)
    warm_up(run)
    metrics = replay_phase(run, tracer, run.seconds * REPLAY_SHARE)
    first = len(tracer.spans)
    serial, parallel = sweep_pair(run, run.seed_for("sweep", 0), tracer)
    exports = [export_rep(run, r, roc_csv, tracer)
               for r in range(1 if run.smoke else 3)]
    later = tracer.spans[first:]

    def p50_s(name, parent=None):
        return float(np.median([
            s.us / 1e6 for s in later if s.name == name
            and (parent is None or tracer.spans[s.parent].name == parent)]))

    metrics.update({
        "montecarlo.roc_sweep_s": p50_s("montecarlo.roc_sweep", "cli.roc_w1"),
        "montecarlo.write_roc_csv_s": p50_s("montecarlo.write_roc_csv"),
        "montecarlo.parallel_efficiency":
            serial.seconds / (parallel.seconds * run.workers),
        "rdmap.range_doppler_map_us": p50_s("rdmap.range_doppler_map") * 1e6,
        "rdmap.write_rdmap_csv_s": p50_s("rdmap.write_rdmap_csv"),
        "channel.write_grid_csv_s": p50_s("channel.write_grid_csv"),
        "waveform.write_frame_csv_s": p50_s("waveform.write_frame_csv"),
        "cli.write_freq_csv_s": p50_s("cli._write_freq_csv"),
        "svgplot.render_roc_svg_s": p50_s("svgplot.render_roc_svg"),
        "cli.simulate_s": p50_s("cli.simulate"),
        "cli.rdmap_s": p50_s("cli.rdmap"),
        "cli.plot_s": p50_s("cli.plot"),
        "cli.output_bytes": float(statistics.median(e[1] for e in exports)),
    })
    return metrics, tracer
