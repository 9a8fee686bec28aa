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
several trials at once and return one row per trial; each row is bit
for bit what that trial gets alone.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigurationError, EstimationSetupError, PipelineError
from .estimator import Estimates
from .waveform import C_LIGHT, OfdmConfig, grid_constants

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
    with tau = 2 r0/c, from the channel synthesizer's phasor kernel, so a
    noiseless grid with matching parameters is collinear with its template.
    """
    consts = cfg.cached(grid_constants)
    r0_m, v_mps, f_cfo_hz = (np.asarray(a, dtype=np.float64)[:, None]
                             for a in (r0_m, v_mps, f_cfo_hz))
    u = _kernels.grid_phasors(consts.k_idx, cfg.delta_f_hz, consts.m_t_s,
                              2.0 * r0_m / C_LIGHT, v_mps, f_cfo_hz,
                              cfg.f_c_hz, C_LIGHT).reshape(r0_m.shape[0], -1)
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def synth_templates(cfg: OfdmConfig, est0, est1) -> TemplatePair:
    """Rebuild both hypothesis templates from their estimates.

    est0 must carry an offset estimate; est1's offset is pinned to zero
    regardless of its fields. Identical geometry with a zero offset in
    est0 yields element-wise identical templates. est0 and est1 may also
    be equal-length sequences of Estimates, one pair per trial; the
    templates then carry a leading trial axis.
    """
    batch = isinstance(est0, Sequence)
    e0s, e1s = (est0, est1) if batch else ([est0], [est1])
    if any(e.f_cfo_hat_hz is None for e in e0s):
        raise EstimationSetupError(
            "false-target estimates must carry an offset estimate"
        )
    ests = [*e1s, *e0s]
    u = _templates(cfg, [e.r0_hat_m for e in ests], [e.v_hat_mps for e in ests],
                   [0.0] * len(e1s) + [e.f_cfo_hat_hz for e in e0s])
    u1, u0 = u[:len(e1s)], u[len(e1s):]
    return TemplatePair(u0=u0, u1=u1) if batch else TemplatePair(u0=u0[0], u1=u1[0])


def glrt_statistic(z: np.ndarray, tp: TemplatePair,
                   mode: str = MODE_AMPLITUDE):
    """Correlate z against both templates and difference the scores.

    amplitude: T = |u1^H z|^2 - |u0^H z|^2; real_part: T = Re(u1^H z) - Re(u0^H z).
    A float for one grid z [n]; an array of one statistic per row for
    stacked grids z [B, n].
    """
    if mode not in _MODES:
        raise ConfigurationError(f"unknown statistic mode {mode!r}; "
                                 f"expected one of {_MODES}")
    z = np.asarray(z)
    if z.ndim not in (1, 2) or z.shape != tp.u0.shape or z.shape != tp.u1.shape:
        raise PipelineError(
            f"vectorized grid shape {z.shape} does not match templates "
            f"{tp.u0.shape}, {tp.u1.shape}"
        )
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
