from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
import pytest

import ofdmjrc.montecarlo as mc
from ofdmjrc import MODE_AMPLITUDE, Scenario, TargetKind, _kernels, build_config, detector

_C = 299_792_458.0
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _random_args(seed, n_fft=16, m_symbols=4):
    rng = np.random.default_rng(seed)
    k_idx = np.array([-3, -2, -1, 1, 2, 3])
    x = rng.standard_normal((k_idx.size, m_symbols)) \
        + 1j * rng.standard_normal((k_idx.size, m_symbols))
    delta_f = 312.5e3
    t_sym = 1.0 / delta_f
    h_eff = complex(rng.standard_normal(), rng.standard_normal())
    tau0 = rng.uniform(0.0, t_sym / 4)
    v = rng.uniform(-50.0, 50.0)
    f_cfo = rng.uniform(-20e3, 20e3)
    return (x, k_idx, n_fft, m_symbols, delta_f, t_sym,
            h_eff, tau0, v, f_cfo, 5e9, _C)


def _synth_grid_loop(x, k_idx, n_fft, m_symbols, delta_f, t_sym,
                     h_eff, tau0, v, f_cfo, f_c, c_light):
    """Per-element evaluation of the received-grid model, sampled at n/f_s."""
    f_s = n_fft * delta_f
    slow_freq = (f_c + f_cfo) * (2.0 * v / c_light) + f_cfo
    two_v_c = 2.0 * v / c_light
    out = np.empty((m_symbols, n_fft), np.complex128)
    for m in range(m_symbols):
        mt = m * t_sym
        slow = cmath.exp(2j * math.pi * slow_freq * mt)
        for n in range(n_fft):
            acc = 0.0 + 0.0j
            for q, k in enumerate(k_idx):
                ph = 2.0 * math.pi * k * delta_f * (n / f_s - tau0 + two_v_c * mt)
                acc += x[q, m] * cmath.exp(1j * ph)
            out[m, n] = h_eff / math.sqrt(n_fft) * slow * acc
    return out


def test_numpy_synthesis_matches_reference_loop():
    for seed in range(5):
        args = _random_args(seed)
        fast = _kernels.synth_grid(*args)
        slow = _synth_grid_loop(*args)
        np.testing.assert_allclose(fast, slow, rtol=1e-9)


@pytest.mark.parametrize("top", [201, 32])
def test_tone_powers_match_exp(top):
    theta = np.random.default_rng(top).uniform(-np.pi, np.pi, 64)
    want = np.exp(1j * theta[:, None] * np.arange(1, top + 1))
    got = _kernels.tone_powers(np.exp(1j * theta), top)
    assert got.shape == (64, top)
    assert np.abs(got - want).max() <= 1e-12


def _exp_synth_grid(x, k_idx, n_fft, m_symbols, delta_f, t_sym,
                    h_eff, tau0, v, f_cfo, f_c, c_light):
    """The synthesis formula with one complex exp per element."""
    m_t = np.arange(m_symbols, dtype=np.float64) * t_sym
    shift = (2.0 * v / c_light) * m_t - tau0
    phase_km = np.exp(2j * np.pi * np.outer(k_idx * delta_f, shift))  # [k, m]
    buf = np.zeros((m_symbols, n_fft), dtype=np.complex128)
    buf[:, k_idx % n_fft] = (x * phase_km).T
    y = np.fft.ifft(buf, axis=1, norm="forward")
    f_slow = (f_c + f_cfo) * (2.0 * v / c_light) + f_cfo
    slow = np.exp(2j * np.pi * f_slow * m_t)
    return y * (slow * (h_eff / np.sqrt(n_fft)))[:, None]


def test_power_synthesis_matches_the_exp_formula_on_the_large_grid():
    # n_fft 256, 200 active subcarriers around DC, 32 symbols
    k_idx = np.r_[-100:0, 1:101]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (k_idx.size, 32)))
        args = (x, k_idx, 256, 32, 312.5e3, 1.0 / 312.5e3,
                complex(*rng.standard_normal(2)), rng.uniform(1e-7, 3e-6),
                rng.uniform(-100.0, 100.0), rng.uniform(-20e3, 20e3), 5e9, _C)
        # compared on the active bins, each of modulus |h_eff|/16; a time
        # sample can be a near-cancelling sum of them
        got, want = (np.fft.fft(y, axis=1)[:, k_idx % 256]
                     for y in (_kernels.synth_grid(*args), _exp_synth_grid(*args)))
        np.testing.assert_allclose(got, want, rtol=1e-12)


def _power(rows, coef, sign, x):
    ph = np.exp(1j * sign * 2 * np.pi * np.asarray(x)[:, None] * coef[None, :])
    s = (rows * ph).sum(axis=1)
    return s.real ** 2 + s.imag ** 2


def _golden_oracle(rows, coef, sign, x0, half, n_iter=80):
    """Golden-section maximization of the tone power in each bracket."""
    a, b = x0 - half, x0 + half
    for _ in range(n_iter):
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        take = _power(rows, coef, sign, c) > _power(rows, coef, sign, d)
        a, b = np.where(take, a, c), np.where(take, d, b)
    return 0.5 * (a + b)


_STEP = 0.17


def _tone_problem(f0, sign=1.0):
    powers = np.arange(3, 27)
    rows = np.exp(-1j * sign * 2 * np.pi * f0 * powers * _STEP)[None, :]
    return rows, powers


def test_refinement_finds_a_planted_tone():
    f0 = 0.3173
    rows, powers = _tone_problem(f0)
    got = _kernels.refine_tones(rows, powers, _STEP, 1.0, np.array([0.3]),
                                np.array([0.05]), 1e-9)
    assert got[0] == pytest.approx(f0, abs=1e-10)


def test_refinement_respects_search_direction():
    f0 = -0.21
    rows, powers = _tone_problem(f0, sign=-1.0)
    got = _kernels.refine_tones(rows, powers, _STEP, -1.0, np.array([-0.2]),
                                np.array([0.05]), 1e-9)
    assert got[0] == pytest.approx(f0, abs=1e-10)


def test_refinement_climbs_out_of_a_convex_flank():
    # x0 sits where the main lobe is convex, so the first step is to the
    # bracket edge past the peak and Newton finishes from there
    powers = np.arange(16)
    rows = np.exp(-1j * 2 * np.pi * 0.3 * powers)[None, :]
    got = _kernels.refine_tones(rows, powers, 1.0, 1.0, np.array([0.34]),
                                np.array([0.05]), 1e-9)
    assert got[0] == pytest.approx(0.3, abs=1e-10)


def _noisy_peaks(seed, powers=np.arange(16), n_rows=40, pad=16, noise=0.5):
    """Noisy tones over integer powers with brackets of one padded bin
    around the coarse peak."""
    rng = np.random.default_rng(seed)
    f_true = rng.uniform(0.0, 1.0, n_rows)
    rows = np.exp(1j * 2 * np.pi * f_true[:, None] * powers[None, :])
    rows = rows + noise * (rng.standard_normal(rows.shape)
                           + 1j * rng.standard_normal(rows.shape))
    # rows carry e^{+j2pi f p}, so they peak under the sign -1 objective
    # zero-padded spectrum of the rows laid on powers shifted to start at 0
    n = int(powers.max() - powers.min()) + 1
    spectrum = np.zeros((n_rows, n * pad), np.complex128)
    spectrum[:, powers - powers.min()] = rows
    spectrum = np.fft.fft(spectrum, axis=1)
    x0 = np.argmax(np.abs(spectrum), axis=1) / (n * pad)
    half = np.full(n_rows, 1.0 / (n * pad))
    return rows, powers, x0, half


# gapped signed powers as in the delay rows (subcarriers around an empty DC)
_GAPPED = np.r_[-8:0, 1:9]


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-3])
def test_newton_agrees_with_golden_section(rel_tol):
    for seed, powers in itertools.product(range(4), (np.arange(16), _GAPPED)):
        rows, powers, x0, half = _noisy_peaks(seed, powers)
        got = _kernels.refine_tones(rows, powers, 1.0, -1.0, x0, half, rel_tol)
        want = _golden_oracle(rows, powers.astype(float), -1.0, x0, half)
        assert np.all(np.abs(got - want) <= rel_tol * 2.0 * half)


def test_refinement_stays_in_bracket_and_never_loses_power():
    rng = np.random.default_rng(3)
    # pure noise rows and off-peak brackets, where Newton has no peak to find
    rows = rng.standard_normal((50, 12)) + 1j * rng.standard_normal((50, 12))
    powers = np.sort(rng.choice(np.arange(-20, 40), 12, replace=False))
    step = 0.075
    x0 = rng.uniform(-1.0, 1.0, 50)
    half = rng.uniform(0.01, 0.3, 50)
    for sign in (1.0, -1.0):
        got = _kernels.refine_tones(rows, powers, step, sign, x0, half, 1e-6)
        assert np.all(got >= x0 - half) and np.all(got <= x0 + half)
        assert np.all(_power(rows, powers * step, sign, got)
                      >= _power(rows, powers * step, sign, x0))


def test_all_zero_row_returns_a_finite_value():
    rows = np.zeros((2, 8), np.complex128)
    rows[1] = np.exp(-2j * np.pi * 0.1 * np.arange(8))
    with np.errstate(all="raise"):
        got = _kernels.refine_tones(rows, np.arange(8), 1.0, 1.0,
                                    np.array([0.4, 0.1]),
                                    np.array([0.05, 0.05]), 1e-6)
    assert np.all(np.isfinite(got))
    assert 0.35 <= got[0] <= 0.45
    assert got[1] == pytest.approx(0.1, abs=1e-7)


def test_each_row_stops_on_its_own():
    # a row that starts on its peak stops after one step; the flank rows
    # around it need several, and must not move it any further
    powers = np.arange(16)
    flank = np.exp(-1j * 2 * np.pi * 0.3 * powers)
    on_peak = np.exp(-1j * 2 * np.pi * 0.1 * powers)
    rows = np.stack([flank, on_peak, flank * 0.5j, on_peak])
    x0 = np.array([0.34, 0.1 + 1e-7, 0.26, 0.1 + 1e-7])
    half = np.full(4, 0.05)
    stacked = _kernels.refine_tones(rows, powers, 1.0, 1.0, x0, half, 1e-6)
    for i in range(4):
        alone = _kernels.refine_tones(rows[i:i + 1], powers, 1.0, 1.0,
                                      x0[i:i + 1], half[i:i + 1], 1e-6)
        assert alone[0].hex() == stacked[i].hex(), i
    for seed in range(3):
        rows, powers, x0, half = _noisy_peaks(seed)
        stacked = _kernels.refine_tones(rows, powers, 1.0, -1.0, x0, half, 1e-9)
        alone = [_kernels.refine_tones(rows[i:i + 1], powers, 1.0, -1.0,
                                       x0[i:i + 1], half[i:i + 1], 1e-9)[0]
                 for i in range(rows.shape[0])]
        assert [a.hex() for a in alone] == [s.hex() for s in stacked]


class _CountingNumpy:
    """numpy, with the elements of every complex exp counted."""

    def __init__(self):
        self.complex_exp = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        out = np.exp(x, *args, **kwargs)
        if np.iscomplexobj(out):
            self.complex_exp += np.size(out)
        return out


def test_a_trial_takes_fewer_complex_exps_than_grid_cells(monkeypatch):
    # one exp per grid cell and Newton step was the cost before the
    # phasors became integer powers of one phasor per row
    cfg = build_config(n_fft=256, k_active=200, n_pilot=24, m_symbols=32,
                       zero_pad=4)
    counting = _CountingNumpy()
    monkeypatch.setattr(_kernels, "np", counting)
    monkeypatch.setattr(detector, "np", counting)
    scenarios = [Scenario(kind=kind, f_cfo_hz=f, seed=seed)
                 for seed, (kind, f) in enumerate([(TargetKind.FALSE_TARGET, 10e3),
                                                   (TargetKind.REAL_TARGET, 0.0)])]
    records = mc._run_batch(cfg, scenarios, (False, True), MODE_AMPLITUDE,
                            mc.DEFAULT_CFO_FLOOR_HZ, 0.0)[0]
    assert all(r.valid for recs in records for r in recs)
    per_trial = counting.complex_exp / len(scenarios)
    assert 0 < per_trial < cfg.k_active * cfg.m_symbols
