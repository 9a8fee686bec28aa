"""The names perfbench swaps to time each stage must stay where it looks.

perfbench/phases.py times a trial's stages by replacing module-level
names in ofdmjrc.montecarlo and ofdmjrc.cli with wrappers. A refactor
that stops looking a stage up by that name, calls it twice, or drops a
name from the CLI breaks the traced benchmark without failing anything
else, so the names are read from perfbench's own source and checked
here.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import ofdmjrc.cli
import ofdmjrc.montecarlo as mc
from ofdmjrc import Scenario, TargetKind, run_trial
from ofdmjrc.svgplot import parse_roc_csv

_PHASES = Path(__file__).resolve().parents[1] / "perfbench" / "phases.py"


def _phases_tuple(name: str) -> tuple[str, ...]:
    """Value of the module-level tuple `name` in perfbench/phases.py."""
    for node in ast.parse(_PHASES.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {_PHASES}")


STAGES = _phases_tuple("STAGES")
EXPORT_CALLS = _phases_tuple("EXPORT_CALLS")
ROC_SETS = _phases_tuple("ROC_SETS")


def test_perfbench_lists_the_thirteen_stages():
    assert len(STAGES) == 13 and len(set(STAGES)) == 13


@pytest.mark.parametrize("genie", [False, True])
def test_run_trial_calls_each_stage_once_by_its_module_name(cfg, monkeypatch,
                                                            genie):
    calls = {name: 0 for name in STAGES}
    results = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            results[name] = fn(*args, **kwargs)
            return results[name]
        return wrapper

    for name in STAGES:
        monkeypatch.setattr(mc, name, counted(name, getattr(mc, name)))
    sc = Scenario(kind=TargetKind.FALSE_TARGET, snr_db=9.0, seed=11)
    rec = run_trial(cfg, sc, genie)
    assert rec.valid, rec.error
    assert calls == {name: 1 for name in STAGES}
    # the record carries the very estimates the traced fits returned
    assert rec.est0 is results["estimate_h0"]
    assert rec.est1 is results["estimate_h1"]
    for est in (rec.est0, rec.est1):
        assert type(est.r0_hat_m) is float
        assert type(est.v_hat_mps) is float
        assert type(est.residual_norm) is float
    assert type(rec.est0.f_cfo_hat_hz) is float
    assert type(rec.t_stat) is float


def test_cli_binds_every_name_the_export_trace_wraps():
    missing = [name for name in (*EXPORT_CALLS, "roc_sweep", "write_roc_csv")
               if not callable(getattr(ofdmjrc.cli, name, None))]
    assert not missing


def test_roc_returns_every_curve_from_one_sweep_call(tmp_path, monkeypatch,
                                                    capsys):
    # perfbench counts a sweep's trials from the curves cli.roc_sweep
    # returns; a second call, or curves missing from it, would make its
    # trials_per_s read double, half or zero.
    assert "mc.genie=both" in ROC_SETS
    calls = []
    sweep = ofdmjrc.cli.roc_sweep

    def kept(*args, **kwargs):
        calls.append(sweep(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(ofdmjrc.cli, "roc_sweep", kept)
    sets = (*ROC_SETS, "mc.n_trials=3")
    argv = ["roc", *(a for s in sets for a in ("--set", s)),
            "--workers", "1", "--out", str(tmp_path)]
    assert ofdmjrc.cli.main(argv) == 0
    assert len(calls) == 1
    curves = calls[0]
    in_csv = parse_roc_csv(tmp_path / "roc.csv")
    assert sorted((c.snr_db, str(c.genie).lower()) for c in curves) == sorted(
        in_csv)
    assert len(curves) == len(in_csv) == 4
    printed = re.search(r"\((\d+) curves, (\d+) trials, (\d+) invalid\)",
                        capsys.readouterr().out)
    assert printed and int(printed[1]) == len(curves)
    assert int(printed[2]) == sum(2 * c.n_trials for c in curves) == 4 * 2 * 3
    assert int(printed[3]) == sum(c.n_invalid for c in curves)
