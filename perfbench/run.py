"""Benchmark for ofdmjrc: ROC-sweep throughput, trial latency, export time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roc-default --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics listed in BENCHMARK.json;
--trace 1 runs the separate traced replay and reports the per-layer
metrics. --smoke shrinks every trial count for a quick check. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 1 when any correctness
gate fails. perfbench/README.md describes the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

LIMITS = ("shared machine; no CPU pinning; no file-cache dropping; only the "
          "benchmark's own process and its children are measured; timings "
          "leave out host steal but not the host's other effects on a CPU")


@dataclass(frozen=True)
class Workload:
    """One input set: numerology plus the size of one measurement round.

    ofdm holds build_config keyword arguments. rep_trials is mc.n_trials
    of one `ofdmjrc roc`, which then runs 2 modes x 2 SNRs x 2 truth
    sides x rep_trials trials. Each round also runs latency_block
    closed-loop trials and exports_per_round export sequences.
    """

    ofdm: dict
    rep_trials: int
    latency_block: int
    exports_per_round: int


# A round takes a few seconds; a run has at least 8 rounds, and each
# timing metric is the median or percentile over all of them.
WORKLOADS = {
    # The paper's operating point and the CLI default: refinement and
    # per-trial constant work dominate a trial. Two export sequences a
    # round give export_s, dominated by the per-element CSV writers, its
    # own share of the run.
    "roc-default": Workload(ofdm={}, rep_trials=25, latency_block=200,
                            exports_per_round=2),
    # Synthesis, FFT and template cost grow with the grid while the
    # per-trial constant work becomes negligible.
    "roc-large-grid": Workload(
        ofdm={"n_fft": 256, "k_active": 200, "n_pilot": 24, "m_symbols": 32,
              "zero_pad": 4},
        rep_trials=5, latency_block=50, exports_per_round=1),
}


def _import_package():
    """Import ofdmjrc from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "ofdmjrc"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: {pkg} not found; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import ofdmjrc

    if Path(ofdmjrc.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported ofdmjrc from {ofdmjrc.__file__}, "
                 f"not from {pkg}")
    return ofdmjrc


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return proc.stdout.strip() or f"unavailable ({proc.stderr.strip()})"


def provenance(ofdmjrc, workers: int) -> dict:
    import numpy as np
    from ofdmjrc import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ofdmjrc": ofdmjrc.__version__,
        "git_revision": _git_revision(),
        "nproc": workers,
        "backend": "numba" if getattr(_kernels, "NUMBA_ENABLED", False)
                   else "numpy",
        "machine": platform.machine(),
        "limits": LIMITS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trial counts, for a quick check")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ofdmjrc = _import_package()
    sys.path.insert(0, str(HERE))
    import phases

    workers = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    run = phases.Run(root=ROOT, work=work, workload=WORKLOADS[args.workload],
                     seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                     workers=workers)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            values, tracer = phases.trace(run)
            tracer.dump(OUT / f"{stem}-spans.jsonl")
            listed = spec["per_layer"]
        else:
            values = phases.measure(run)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in listed if m["name"] not in values]
    run.gate("every listed metric measured", not missing, ", ".join(missing))
    metrics = {m["name"]: {"value": values.get(m["name"], float("nan")),
                           "unit": m["unit"]} for m in listed}
    correct = run.correct
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    prov = provenance(ofdmjrc, workers)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for m in listed:
        print(f"  {m['name']:<36} {values.get(m['name'], float('nan')):>16.6g} "
              f"{m['unit']:<6} ({m['better']} is better)")
    print(f"  failed_frac {run.failed}/{run.attempted} = "
          f"{run.failed / max(run.attempted, 1):.6g}  by class: "
          f"{dict(run.failures) or 'none'}")
    for key, value in run.info.items():
        print(f"  {key}: {value}")
    for name, (passed, total, detail) in run.gates.items():
        print(f"  gate {'ok  ' if passed == total else 'FAIL'} {name} "
              f"({passed}/{total}{'; ' + detail if detail else ''})")
    print(f"  provenance: {json.dumps(prov)}")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "smoke": args.smoke, "result": result, "info": run.info,
                   "failures": dict(run.failures),
                   "gates": run.gates, "samples": run.samples,
                   "provenance": prov}, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
