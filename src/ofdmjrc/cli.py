"""Command-line front end: simulate | rdmap | roc | plot.

Exit codes: 0 success, 2 configuration/usage problems (bad config keys,
missing files, malformed CSV), 3 runtime pipeline failures. The commands
raise; main maps ConfigurationError to 2 and any other OfdmJrcError to 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from .channel import write_grid_bin, write_grid_csv
from .configio import (
    detector_mode_from,
    genie_flags_from,
    make_manifest,
    ofdm_config_from,
    resolve_config,
    scenario_from,
    snr_list_from,
    write_manifest,
)
from .errors import ConfigurationError, OfdmJrcError, PipelineError
from .grids import write_cells_csv
from .montecarlo import roc_sweep, run_trial_with_grids, write_roc_csv
# perfbench's traced export run wraps these names in this module; simulate
# gets its record and grids from run_trial_with_grids in one pass.
from .montecarlo import run_trial
from .montecarlo import trial_grids as _pipeline_grids
from .rdmap import range_doppler_map, resolution_summary, write_rdmap_csv
from .svgplot import parse_roc_csv, render_roc_svg
from .waveform import active_subcarriers, write_frame_csv


def _check_config_path(config_path):
    if config_path is not None and not os.path.isfile(config_path):
        raise ConfigurationError(f"config not found: {config_path}")


def _trial_dict(rec):
    out = {
        "scenario": {
            "kind": rec.scenario.kind.value,
            "r0_m": rec.scenario.r0_m,
            "v_mps": rec.scenario.v_mps,
            "f_cfo_hz": rec.scenario.f_cfo_hz,
            "sigma_rcs_m2": rec.scenario.sigma_rcs_m2,
            "snr_db": rec.scenario.snr_db,
        },
        "seed": rec.seed,
        "genie": rec.genie,
        "truth": rec.truth.value,
        "valid": rec.valid,
        "error": rec.error,
        "t_stat": rec.t_stat if rec.valid and math.isfinite(rec.t_stat) else None,
        "est_h0": None if rec.est0 is None else asdict(rec.est0),
        "est_h1": None if rec.est1 is None else asdict(rec.est1),
    }
    if rec.outcome is not None:
        out["decision"] = rec.outcome.decision.value
        out["threshold"] = rec.outcome.threshold
        out["mode"] = rec.outcome.mode
    return out


def _write_freq_csv(path, y_tilde) -> None:
    """Symbol-removed grid as CSV rows k,m,re,im; k is the row position."""
    write_cells_csv(path, "k,m,re,im", range(y_tilde.shape[0]),
                    range(y_tilde.shape[1]), y_tilde.real, y_tilde.imag)


def cmd_simulate(config_path, overrides=(), out_dir=".", seed: int = 0) -> None:
    """Run one trial and write its record (plus optional grid dumps)."""
    _check_config_path(config_path)
    cfg_map = resolve_config(config_path, overrides)
    cfg = ofdm_config_from(cfg_map)
    scenario = scenario_from(cfg_map, seed=seed)
    mode = detector_mode_from(cfg_map)
    rec, grids = run_trial_with_grids(
        cfg, scenario, genie=False, mode=mode,
        cfo_floor_hz=cfg_map["detector.cfo_floor_hz"],
        gamma_prime=cfg_map["detector.gamma_prime"])
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    trial_path = os.path.join(out_dir, "trial.json")
    with open(trial_path, "w", encoding="utf-8") as fh:
        json.dump(_trial_dict(rec), fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(trial_path)
    if cfg_map["io.dump_grids"]:
        if grids is None:
            raise PipelineError(rec.error)
        frame, noisy, fg = grids
        frame_path = os.path.join(out_dir, "frame.csv")
        write_frame_csv(frame_path, frame, active_subcarriers(cfg))
        grid_csv = os.path.join(out_dir, "sample_grid.csv")
        write_grid_csv(grid_csv, noisy)
        grid_bin = os.path.join(out_dir, "sample_grid.bin")
        write_grid_bin(grid_bin, noisy)
        freq_csv = os.path.join(out_dir, "freq_grid.csv")
        _write_freq_csv(freq_csv, fg.y_tilde)
        outputs += [frame_path, grid_csv, grid_bin, freq_csv]
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest_path,
                   make_manifest("simulate", cfg_map, seed, outputs))
    if rec.valid:
        print(f"decision: {rec.outcome.decision.value} "
              f"(t_stat={rec.t_stat:.6g}); wrote {trial_path}")
    else:
        print(f"trial invalid: {rec.error}; wrote {trial_path}")


def cmd_rdmap(config_path, overrides=(), out_dir=".", seed: int = 0) -> None:
    """Write the zero-padded range-Doppler map for one scenario draw."""
    _check_config_path(config_path)
    cfg_map = resolve_config(config_path, overrides)
    cfg = ofdm_config_from(cfg_map)
    scenario = scenario_from(cfg_map, seed=seed)
    _, _, fg = _pipeline_grids(cfg, scenario)
    rdm = range_doppler_map(fg, cfg)
    os.makedirs(out_dir, exist_ok=True)
    map_path = os.path.join(out_dir, "rdmap.csv")
    write_rdmap_csv(map_path, rdm)
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest_path,
                   make_manifest("rdmap", cfg_map, seed, [map_path]))
    peak = rdm.peak()
    print(f"peak at delay={peak[0]:.4g} s, doppler={peak[1]:.4g} Hz; "
          f"wrote {map_path}")
    for key, value in resolution_summary(cfg).items():
        print(f"{key} = {value:.6g}")


def cmd_roc(config_path, out_csv, overrides=(), seed: int = 0,
            workers: int = 1) -> None:
    """Run the configured ROC sweep and write the CSV plus a manifest."""
    _check_config_path(config_path)
    cfg_map = resolve_config(config_path, overrides)
    cfg = ofdm_config_from(cfg_map)
    base = scenario_from(cfg_map, seed=0)
    mode = detector_mode_from(cfg_map)
    snrs = snr_list_from(cfg_map)
    n_trials = int(cfg_map["mc.n_trials"])
    curves = []
    for genie in genie_flags_from(cfg_map):
        curves += roc_sweep(cfg, snrs, None, n_trials, genie,
                            base_scenario=base, master_seed=seed,
                            mode=mode,
                            cfo_floor_hz=cfg_map["detector.cfo_floor_hz"],
                            workers=workers)
    out_dir = os.path.dirname(os.path.abspath(out_csv))
    os.makedirs(out_dir, exist_ok=True)
    write_roc_csv(out_csv, curves)
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest_path,
                   make_manifest("roc", cfg_map, seed, [out_csv]))
    total = sum(2 * c.n_trials for c in curves)
    print(f"wrote {out_csv} ({len(curves)} curves, {total} trials)")


def cmd_plot(csv_path, out_svg) -> None:
    """Render a ROC CSV to an SVG plot."""
    if not os.path.isfile(csv_path):
        raise ConfigurationError(f"csv not found: {csv_path}")
    groups = parse_roc_csv(csv_path)
    out_dir = os.path.dirname(os.path.abspath(out_svg))
    os.makedirs(out_dir, exist_ok=True)
    render_roc_svg(out_svg, groups)
    print(f"wrote {out_svg} ({len(groups)} curves)")


def _add_common(parser: argparse.ArgumentParser, workers: bool = False) -> None:
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (unsigned 64-bit)")
    parser.add_argument("--out", default=".", help="output directory")
    if workers:
        parser.add_argument("--workers", type=int,
                            default=os.cpu_count() or 1,
                            help="parallel worker processes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ofdmjrc",
        description="OFDM joint radar-communication simulator: single "
                    "trials, range-Doppler maps, ROC sweeps, and plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trial")
    _add_common(p_sim)

    p_map = sub.add_parser("rdmap", help="export a range-Doppler map")
    _add_common(p_map)

    p_roc = sub.add_parser("roc", help="run a Monte Carlo ROC sweep")
    _add_common(p_roc, workers=True)

    p_plot = sub.add_parser("plot", help="render a ROC CSV to SVG")
    p_plot.add_argument("csv", help="ROC CSV produced by the roc command")
    p_plot.add_argument("--out", default=".", help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cmd_simulate(args.config, args.overrides, args.out, args.seed)
        elif args.command == "rdmap":
            cmd_rdmap(args.config, args.overrides, args.out, args.seed)
        elif args.command == "roc":
            cmd_roc(args.config, os.path.join(args.out, "roc.csv"),
                    args.overrides, args.seed, args.workers)
        else:
            cmd_plot(args.csv, os.path.join(args.out, "roc.svg"))
    except OfdmJrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
