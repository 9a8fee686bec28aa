"""Numerical hot paths: received-grid synthesis and tone-peak refinement.

Both are plain numpy. synth_grid places each subcarrier's symbols on its
DFT bin and takes one inverse FFT per symbol, which is exact because the
sample rate is n_fft * delta_f. refine_tones runs a few Newton steps on
the closed-form derivatives of the tone power inside a bracket around
each coarse peak, stopping each row on its own. The per-element
synthesis loop and a golden-section search live in tests/test_kernels.py
as the oracles for both.
"""

from __future__ import annotations

import numpy as np

# From a zero-padded coarse peak Newton converges in two to four steps;
# the cap bounds the work on rows with no peak to converge to.
_NEWTON_MAX_STEPS = 8


def _slow_time_freq(f_c, f_cfo, v, c_light):
    """Symbol-to-symbol phase advance rate: Doppler on the offset carrier plus the offset itself."""
    return (f_c + f_cfo) * (2.0 * v / c_light) + f_cfo


def synth_grid(x, k_idx, n_fft, m_symbols, delta_f, t_sym,
               h_eff, tau0, v, f_cfo, f_c, c_light):
    """Received sample grid y[m, n] for one delayed, Doppler-shifted echo.

    y[m,n] = (h/sqrt(N)) sum_k x[k,m] e^{j2pi k n/N}
             * e^{j2pi k delta_f ((2v/c) m t_sym - tau0)} * e^{j2pi f_slow m t_sym}

    k_idx holds distinct integer subcarrier indices with |k| < n_fft; bin
    k lands at k mod n_fft of each symbol's inverse FFT.
    """
    x = np.asarray(x, dtype=np.complex128)
    k_idx = np.asarray(k_idx)
    m_t = np.arange(m_symbols, dtype=np.float64) * t_sym
    two_pi = 2.0 * np.pi
    shift = (2.0 * v / c_light) * m_t - tau0  # [m]
    phase_km = np.exp(1j * two_pi * np.outer(k_idx * delta_f, shift))  # [k, m]
    buf = np.zeros((m_symbols, n_fft), dtype=np.complex128)
    buf[:, k_idx % n_fft] = (x * phase_km).T
    y = np.fft.ifft(buf, axis=1, norm="forward")
    slow = np.exp(1j * two_pi * _slow_time_freq(f_c, f_cfo, v, c_light) * m_t)
    return y * (slow * (h_eff / np.sqrt(n_fft)))[:, None]


def refine_tones(rows, coef, sign, x0, half, rel_tol):
    """Newton ascent of P(x) = |S(x)|^2, S(x) = sum_l rows[b,l] e^{j sign 2pi x coef[l]}.

    rows: complex [B, L]; coef: float [L]; x0, half: float [B] bracket
    centers and half-widths. Each row stays in [x0 - half, x0 + half];
    where P is not concave the step goes uphill to the bracket edge. Each
    row stops on its own once its next step is at most rel_tol of its
    bracket width, or after a fixed number of steps, and later steps
    evaluate only the rows still moving; so a row's result does not
    depend on the other rows of the call. A row whose final power is
    below the power at x0 returns x0.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    w = (float(sign) * 2.0 * np.pi) * np.asarray(coef, dtype=np.float64)
    jw = 1j * w
    x0 = np.asarray(x0, dtype=np.float64)
    half = np.asarray(half, dtype=np.float64)
    lo, hi = x0 - half, x0 + half
    width = 2.0 * half
    # S' and S'' are S with rows scaled by j*w and by -w^2
    weighted = rows[:, None, :] * np.array([np.ones_like(w), jw, -(w * w)])  # [B, 3, L]

    x = x0.copy()
    p = np.empty(x0.shape)
    live = np.arange(x0.size)  # rows still moving
    for n_step in range(_NEWTON_MAX_STEPS):
        xl = x[live]
        s, s1, s2 = (weighted[live] @ np.exp(xl[:, None] * jw)[:, :, None])[:, :, 0].T
        p[live] = s.real * s.real + s.imag * s.imag
        if n_step == 0:
            p0 = p.copy()
        if n_step == _NEWTON_MAX_STEPS - 1:
            break
        sc = s.conj()
        # P' and P'' without their common factor 2
        grad = (sc * s1).real
        curv = (s1 * s1.conj()).real + (sc * s2).real
        concave = curv < 0.0
        step = np.where(concave, grad / np.where(concave, -curv, 1.0),
                        np.sign(grad) * width[live])
        x_new = np.minimum(np.maximum(xl + step, lo[live]), hi[live])
        moving = np.abs(x_new - xl) > rel_tol * width[live]
        live = live[moving]
        if live.size == 0:
            break
        x[live] = x_new[moving]
    return np.where(p >= p0, x, x0)
