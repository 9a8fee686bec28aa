"""Generic numerics, plain numpy and blind to the OFDM config.

tone_powers builds z^1 .. z^top from one phasor per row by a cumulative
product, each power within about top * eps of its exp value; refine_tones
and waveform.grid_phasors build their phasors with it. refine_tones runs
a few Newton steps on the closed-form derivatives of the tone power in a
bracket around each coarse peak, stopping each row on its own; its
oracle in tests/test_kernels.py is a golden-section search."""

from __future__ import annotations

import numpy as np

# From a zero-padded coarse peak Newton converges in two to four steps;
# the cap bounds the work on rows with no peak to converge to.
_NEWTON_MAX_STEPS = 8


def tone_powers(z, top):
    """z^1 .. z^top along a new last axis, by one cumulative product."""
    powers = np.full((*np.shape(z), top), np.asarray(z)[..., None], np.complex128)
    return powers.cumprod(axis=-1, out=powers)


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
