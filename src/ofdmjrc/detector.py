"""Template reconstruction, test statistic, and threshold decision.

Both hypotheses predict the symbol-removed grid up to one unknown
complex gain: a phase-only structure set by the estimated geometry and,
under the false-target hypothesis, the estimated carrier frequency
offset. The detector rebuilds both unit-norm templates, correlates them
against the vectorized grid, and compares.

Two statistic modes exist. The default "amplitude" mode uses
|u1^H z|^2 - |u0^H z|^2, which is the likelihood ratio after maximizing
over the unknown complex gain under each hypothesis; it is exactly
invariant to a global phase of z, which matters because the channel
phase is uniformly random. The "real_part" mode uses
Re(u1^H z) - Re(u0^H z); it presumes the gain is known, positive, and
real, and is kept for comparison only. Larger statistic favors the
real-target hypothesis in both modes.

synth_templates and glrt_statistic also take the estimates and grids of
several trials, stacked on a leading axis, and return one row per
trial; each row is bit for bit what that trial gets alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EstimationSetupError, PipelineError
from .estimator import Estimates
from .waveform import C_LIGHT, OfdmConfig, grid_phasors

MODE_AMPLITUDE = "amplitude"
MODE_REAL_PART = "real_part"
_MODES = (MODE_AMPLITUDE, MODE_REAL_PART)


class Decision(enum.Enum):
    H0_FALSE_TARGET = "h0_false_target"
    H1_REAL_TARGET = "h1_real_target"


@dataclass(frozen=True)
class TemplatePair:
    """Unit-norm hypothesis templates over the vectorized grid z[..., k + m*K]."""

    u0: np.ndarray
    u1: np.ndarray


@dataclass(frozen=True)
class GlrtOutcome:
    """One thresholded detection: statistic, threshold, decision, mode."""

    t_stat: float
    threshold: float
    decision: Decision
    mode: str


def _templates(cfg: OfdmConfig, r0_m, v_mps, f_cfo_hz) -> np.ndarray:
    """Unit-norm phase templates, one row per entry of the parameter
    vectors, ordering z[k + m*K].

    Element (k, m) carries e^{j2pi(k delta_f(-tau + (2v/c) m t_sym) + f_slow m t_sym)}
    with tau = 2 r0/c, from the channel synthesizer's phase model, so a
    noiseless grid with matching parameters is collinear with its template.
    """
    r0_m, v_mps, f_cfo_hz = (np.asarray(a, dtype=np.float64)[:, None]
                             for a in (r0_m, v_mps, f_cfo_hz))
    u = grid_phasors(cfg, 2.0 * r0_m / C_LIGHT, v_mps, f_cfo_hz).reshape(len(r0_m), -1)
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def synth_templates(cfg: OfdmConfig, est0: Estimates, est1: Estimates) -> TemplatePair:
    """Rebuild both hypothesis templates from their estimates.

    est0 must carry an offset estimate; est1's offset is pinned to zero
    regardless of its fields. Identical geometry with a zero offset in
    est0 yields element-wise identical templates. est0 and est1 may also
    be stacks of B fits (see Estimates); the templates then carry a
    leading trial axis [B, n], and B may be zero.
    """
    if est0.f_cfo_hat_hz is None:
        raise EstimationSetupError(
            "false-target estimates must carry an offset estimate"
        )
    n = np.size(est1.r0_hat_m)
    if n == 0:  # nothing to build: skip the phasor, norm and stacking work
        return TemplatePair(*[np.empty((0, cfg.m_symbols * cfg.k_active), np.complex128)] * 2)
    params = np.array([(est1.r0_hat_m, est1.v_hat_mps, np.zeros_like(est0.f_cfo_hat_hz)),
                       (est0.r0_hat_m, est0.v_hat_mps, est0.f_cfo_hat_hz)], dtype=np.float64)
    u = _templates(cfg, *params.reshape(2, 3, -1).swapaxes(0, 1).reshape(3, -1))
    u1, u0 = u[:n], u[n:]
    return TemplatePair(u0=u0, u1=u1) if np.ndim(est0.r0_hat_m) else TemplatePair(u0[0], u1[0])


def check_mode(mode: str) -> None:
    """Raise ConfigurationError unless mode is one of the statistic modes."""
    if mode not in _MODES:
        raise ConfigurationError(f"unknown statistic mode {mode!r}; "
                                 f"expected one of {_MODES}")


def glrt_statistic(z: np.ndarray, tp: TemplatePair,
                   mode: str = MODE_AMPLITUDE):
    """Correlate z against both templates and difference the scores.

    amplitude: T = |u1^H z|^2 - |u0^H z|^2; real_part: T = Re(u1^H z) - Re(u0^H z).
    A float for one grid z [n]; an array of one statistic per row for
    stacked grids z [B, n], B possibly zero.
    """
    check_mode(mode)
    z = np.asarray(z)
    if z.ndim not in (1, 2) or z.shape != tp.u0.shape or z.shape != tp.u1.shape:
        raise PipelineError(
            f"vectorized grid shape {z.shape} does not match templates "
            f"{tp.u0.shape}, {tp.u1.shape}"
        )
    if z.size == 0:
        return np.zeros(0)
    c0 = (tp.u0.conj() * z).sum(axis=-1)
    c1 = (tp.u1.conj() * z).sum(axis=-1)
    if mode == MODE_AMPLITUDE:
        t = (c1.real * c1.real + c1.imag * c1.imag
             - (c0.real * c0.real + c0.imag * c0.imag))
    else:
        t = c1.real - c0.real
    return float(t) if z.ndim == 1 else t


def decide(t_stat: float, gamma_prime: float,
           mode: str = MODE_AMPLITUDE) -> GlrtOutcome:
    """Threshold the statistic; the real-target decision wins ties.

    Declaring for the real target at t_stat == gamma_prime makes the
    zero-statistic case (identical templates, e.g. a zero-offset fit)
    resolve to the real-target decision, and makes gamma_prime = -inf /
    +inf exact (1,1) / (0,0) operating points. gamma_prime may be
    infinite; t_stat must be a number.
    """
    if math.isnan(t_stat) or math.isnan(gamma_prime):
        raise PipelineError("statistic and threshold must not be NaN")
    dec = Decision.H1_REAL_TARGET if t_stat >= gamma_prime else Decision.H0_FALSE_TARGET
    return GlrtOutcome(t_stat=float(t_stat), threshold=float(gamma_prime),
                       decision=dec, mode=mode)
