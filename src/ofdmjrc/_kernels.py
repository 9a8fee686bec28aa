"""Numerical hot paths: received-grid synthesis and tone-peak refinement.

Both are plain numpy. synth_grid places each subcarrier's symbols on its
DFT bin and takes one inverse FFT per symbol, which is exact because the
sample rate is n_fft * delta_f. refine_tones runs a few Newton steps on
the closed-form derivatives of the tone power inside a bracket around
each coarse peak, stopping each row on its own. Their phasors, and the
detector's, are integer powers z^1 .. z^top of one phasor per row
(tone_powers): one complex exp per row and one cumulative product, each
power within about top * eps of its exp value. tests/test_kernels.py
holds a per-element synthesis loop and a golden-section search as oracles."""

from __future__ import annotations

import numpy as np

# From a zero-padded coarse peak Newton converges in two to four steps;
# the cap bounds the work on rows with no peak to converge to.
_NEWTON_MAX_STEPS = 8


def tone_powers(z, top):
    """z^1 .. z^top along a new last axis, by one cumulative product."""
    powers = np.full((*np.shape(z), top), np.asarray(z)[..., None], np.complex128)
    return powers.cumprod(axis=-1, out=powers)


def grid_phasors(k_idx, delta_f, m_t, tau, v, f_cfo, f_c, c_light):
    """e^{j2pi(k delta_f ((2v/c) m_t - tau) + f_slow m_t)} over [..., m, k],
    f_slow = (f_c + f_cfo)(2v/c) + f_cfo, with m_t [m] and the rest
    broadcasting against it; z^k is z^(k - k0 + 1) times z^(k0 - 1)."""
    two_v_c = 2.0 * v / c_light
    shift, k0 = two_v_c * m_t - tau, int(k_idx.min())
    z = np.exp(2j * np.pi * delta_f * shift)
    slow = np.exp(2j * np.pi * (((f_c + f_cfo) * two_v_c + f_cfo) * m_t
                                + delta_f * (k0 - 1) * shift))
    return slow[..., None] * tone_powers(z, int(k_idx.max()) - k0 + 1)[..., k_idx - k0]


def synth_grid(x, k_idx, n_fft, m_symbols, delta_f, t_sym,
               h_eff, tau0, v, f_cfo, f_c, c_light):
    """Received sample grid y[m, n] for one delayed, Doppler-shifted echo.

    y[m,n] = (h/sqrt(N)) sum_k x[k,m] e^{j2pi k n/N}
             * e^{j2pi k delta_f ((2v/c) m t_sym - tau0)} * e^{j2pi f_slow m t_sym}

    k_idx holds distinct integer subcarrier indices with |k| < n_fft; bin
    k lands at k mod n_fft of each symbol's inverse FFT.
    """
    k_idx = np.asarray(k_idx)
    m_t = np.arange(m_symbols, dtype=np.float64) * t_sym
    phasors = grid_phasors(k_idx, delta_f, m_t, tau0, v, f_cfo, f_c, c_light)
    buf = np.zeros((m_symbols, n_fft), dtype=np.complex128)
    buf[:, k_idx % n_fft] = np.asarray(x, dtype=np.complex128).T * phasors
    return np.fft.ifft(buf, axis=1, norm="forward") * (h_eff / np.sqrt(n_fft))


def refine_tones(rows, powers, step, sign, x0, half, rel_tol):
    """Newton ascent of P(x) = |S(x)|^2, S(x) = sum_l rows[b,l] z^powers[l],
    z = e^{j sign 2pi x step}.

    rows: complex [B, L]; powers: distinct integers [L]; step: float;
    x0, half: float [B] bracket centers and half-widths. Each row stays in
    [x0 - half, x0 + half]; where P is not concave the step goes uphill to
    the bracket edge. Each row stops on its own once its next step is at
    most rel_tol of its bracket width, or after a fixed number of steps,
    and later steps evaluate only the rows still moving; so a row's result
    does not depend on the other rows of the call. A row whose final
    power is below the power at x0 returns x0. The powers are shifted to
    1..top, which leaves P, P' and P'' as they are, so each step takes one
    exp per row and its phasors are within about top * eps.
    """
    q = np.asarray(powers) - np.min(powers)  # columns on the exponents 1..top
    top = int(q.max()) + 1
    w_step = float(sign) * 2.0 * np.pi * float(step)
    w = w_step * np.arange(1.0, top + 1.0)
    x0 = np.asarray(x0, dtype=np.float64)
    half = np.asarray(half, dtype=np.float64)
    lo, hi = x0 - half, x0 + half
    width = 2.0 * half
    # S' and S'' weight the terms of S by j*w and by -w^2
    weights = np.stack([np.ones_like(w), 1j * w, -(w * w)], axis=-1)  # [top, 3]
    dense = np.zeros((top, x0.size), dtype=np.complex128)
    dense[q] = np.asarray(rows).T
    dense = dense.T  # [B, top], cut to the live rows as rows stop

    x = x0.copy()
    p = np.empty(x0.shape)
    live = np.arange(x0.size)  # rows still moving
    for n_step in range(_NEWTON_MAX_STEPS):
        xl = x[live]
        terms = tone_powers(np.exp(xl * (1j * w_step)), top) * dense
        s, s1, s2 = (terms[:, None, :] @ weights)[:, 0].T
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
        dx = np.where(concave, grad / np.where(concave, -curv, 1.0),
                      np.sign(grad) * width[live])
        x_new = np.minimum(np.maximum(xl + dx, lo[live]), hi[live])
        moving = np.abs(x_new - xl) > rel_tol * width[live]
        live = live[moving]
        if live.size == 0:
            break
        x[live] = x_new[moving]
        dense = dense[moving]
    return np.where(p >= p0, x, x0)
