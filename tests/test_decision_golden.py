"""Decisions on fixed trials, checked against a committed golden file.

tests/decision_golden.json holds (valid, decision, t_stat) for 8 trials
per truth side at -5 and 9 dB on the default and the 256-FFT numerology,
scored in genie and estimated mode. It was recorded before the phasor
kernels moved from one complex exp per element to integer powers of one
phasor per row, so it pins what that change may move: validity and
decisions not at all, exact-zero statistics not at all, and every other
statistic by at most a relative 1e-6.

Running this file as a script rewrites the golden file from the current
code; do that only in a change that means to move decisions.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import ofdmjrc.montecarlo as mc
from ofdmjrc import MODE_AMPLITUDE, Scenario, TargetKind, build_config, trial_seed

GOLDEN = Path(__file__).with_name("decision_golden.json")
NUMEROLOGIES = {
    "default": {},
    "large": dict(n_fft=256, k_active=200, n_pilot=24, m_symbols=32, zero_pad=4),
}
SNRS_DB = (-5.0, 9.0)
N_PER_SIDE = 8
MASTER_SEED = 909
FLAGS = (False, True)  # estimated, genie


def _records(numerology):
    """One row per (genie flag, SNR, truth side, trial), as the sweep runs them."""
    cfg = build_config(**NUMEROLOGIES[numerology])
    base = Scenario(kind=TargetKind.FALSE_TARGET)
    scenarios = []
    for snr_idx, snr in enumerate(SNRS_DB):
        for kind_idx, kind in enumerate((TargetKind.FALSE_TARGET,
                                         TargetKind.REAL_TARGET)):
            f_cfo = base.f_cfo_hz if kind is TargetKind.FALSE_TARGET else 0.0
            for i in range(N_PER_SIDE):
                scenarios.append(replace(
                    base, kind=kind, f_cfo_hz=f_cfo, snr_db=snr,
                    seed=trial_seed(MASTER_SEED, snr_idx, kind_idx, i)))
    per_flag = mc._run_many(cfg, scenarios, FLAGS, MODE_AMPLITUDE,
                            mc.DEFAULT_CFO_FLOOR_HZ, 1)
    return [{"genie": genie, "snr_db": r.scenario.snr_db,
             "truth": r.truth.value, "seed": r.seed, "valid": r.valid,
             "decision": r.outcome.decision.value if r.valid else None,
             "t_stat": r.t_stat if r.valid else None}
            for genie, recs in zip(FLAGS, per_flag) for r in recs]


@pytest.mark.parametrize("numerology", sorted(NUMEROLOGIES))
def test_decisions_match_the_golden_file(numerology):
    want = json.loads(GOLDEN.read_text())[numerology]
    got = _records(numerology)
    assert len(got) == len(want) == 2 * len(SNRS_DB) * 2 * N_PER_SIDE
    for g, w in zip(got, want):
        key = {k: w[k] for k in ("genie", "snr_db", "truth", "seed")}
        assert {k: g[k] for k in key} == key
        assert (g["valid"], g["decision"]) == (w["valid"], w["decision"]), key
        if w["t_stat"] == 0.0:
            assert g["t_stat"] == 0.0, key
        elif w["t_stat"] is not None:
            assert g["t_stat"] == pytest.approx(w["t_stat"], rel=1e-6), key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({n: _records(n) for n in sorted(NUMEROLOGIES)},
                                 indent=1) + "\n")
