from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from ofdmjrc import _kernels

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


def _tone_problem(f0, sign=1.0):
    coef = np.linspace(0.5, 4.5, 24)
    rows = np.exp(-1j * sign * 2 * np.pi * f0 * coef)[None, :]
    return rows, coef


def test_refinement_finds_a_planted_tone():
    f0 = 0.3173
    rows, coef = _tone_problem(f0)
    got = _kernels.refine_tones(rows, coef, 1.0, np.array([0.3]),
                                np.array([0.05]), 1e-9)
    assert got[0] == pytest.approx(f0, abs=1e-10)


def test_refinement_respects_search_direction():
    f0 = -0.21
    rows, coef = _tone_problem(f0, sign=-1.0)
    got = _kernels.refine_tones(rows, coef, -1.0, np.array([-0.2]),
                                np.array([0.05]), 1e-9)
    assert got[0] == pytest.approx(f0, abs=1e-10)


def test_refinement_climbs_out_of_a_convex_flank():
    # x0 sits where the main lobe is convex, so the first step is to the
    # bracket edge past the peak and Newton finishes from there
    coef = np.arange(16.0)
    rows = np.exp(-1j * 2 * np.pi * 0.3 * coef)[None, :]
    got = _kernels.refine_tones(rows, coef, 1.0, np.array([0.34]),
                                np.array([0.05]), 1e-9)
    assert got[0] == pytest.approx(0.3, abs=1e-10)


def _noisy_peaks(seed, n_rows=40, n_coef=16, pad=16, noise=0.5):
    """Noisy tones with brackets of one padded bin around the coarse peak."""
    rng = np.random.default_rng(seed)
    coef = np.arange(n_coef, dtype=np.float64)
    f_true = rng.uniform(0.0, 1.0, n_rows)
    rows = np.exp(1j * 2 * np.pi * f_true[:, None] * coef[None, :])
    rows = rows + noise * (rng.standard_normal(rows.shape)
                           + 1j * rng.standard_normal(rows.shape))
    # rows carry e^{+j2pi f c}, so they peak under the sign -1 objective
    spectrum = np.fft.fft(rows, n=n_coef * pad, axis=1)
    x0 = np.argmax(np.abs(spectrum), axis=1) / (n_coef * pad)
    half = np.full(n_rows, 1.0 / (n_coef * pad))
    return rows, coef, x0, half


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-3])
def test_newton_agrees_with_golden_section(rel_tol):
    for seed in range(4):
        rows, coef, x0, half = _noisy_peaks(seed)
        got = _kernels.refine_tones(rows, coef, -1.0, x0, half, rel_tol)
        want = _golden_oracle(rows, coef, -1.0, x0, half)
        assert np.all(np.abs(got - want) <= rel_tol * 2.0 * half)


def test_refinement_stays_in_bracket_and_never_loses_power():
    rng = np.random.default_rng(3)
    # pure noise rows and off-peak brackets, where Newton has no peak to find
    rows = rng.standard_normal((50, 12)) + 1j * rng.standard_normal((50, 12))
    coef = rng.uniform(0.1, 3.0, 12)
    x0 = rng.uniform(-1.0, 1.0, 50)
    half = rng.uniform(0.01, 0.3, 50)
    for sign in (1.0, -1.0):
        got = _kernels.refine_tones(rows, coef, sign, x0, half, 1e-6)
        assert np.all(got >= x0 - half) and np.all(got <= x0 + half)
        assert np.all(_power(rows, coef, sign, got)
                      >= _power(rows, coef, sign, x0))


def test_all_zero_row_returns_a_finite_value():
    rows = np.zeros((2, 8), np.complex128)
    rows[1] = np.exp(-2j * np.pi * 0.1 * np.arange(8))
    with np.errstate(all="raise"):
        got = _kernels.refine_tones(rows, np.arange(8.0), 1.0,
                                    np.array([0.4, 0.1]),
                                    np.array([0.05, 0.05]), 1e-6)
    assert np.all(np.isfinite(got))
    assert 0.35 <= got[0] <= 0.45
    assert got[1] == pytest.approx(0.1, abs=1e-7)


def test_each_row_stops_on_its_own():
    # a row that starts on its peak stops after one step; the flank rows
    # around it need several, and must not move it any further
    coef = np.arange(16.0)
    flank = np.exp(-1j * 2 * np.pi * 0.3 * coef)
    on_peak = np.exp(-1j * 2 * np.pi * 0.1 * coef)
    rows = np.stack([flank, on_peak, flank * 0.5j, on_peak])
    x0 = np.array([0.34, 0.1 + 1e-7, 0.26, 0.1 + 1e-7])
    half = np.full(4, 0.05)
    stacked = _kernels.refine_tones(rows, coef, 1.0, x0, half, 1e-6)
    for i in range(4):
        alone = _kernels.refine_tones(rows[i:i + 1], coef, 1.0, x0[i:i + 1],
                                      half[i:i + 1], 1e-6)
        assert alone[0].hex() == stacked[i].hex(), i
    for seed in range(3):
        rows, coef, x0, half = _noisy_peaks(seed)
        stacked = _kernels.refine_tones(rows, coef, -1.0, x0, half, 1e-9)
        alone = [_kernels.refine_tones(rows[i:i + 1], coef, -1.0, x0[i:i + 1],
                                       half[i:i + 1], 1e-9)[0]
                 for i in range(rows.shape[0])]
        assert [a.hex() for a in alone] == [s.hex() for s in stacked]
