"""Joint linear least-squares estimation of range, velocity, and offset.

The input is one trial's rdmap.PeakObservations, as a row of
extract_peak_observations' peaks holds it. Its refined observations are
linear in the unknowns once the tiny velocity-offset cross term is
dropped: each per-symbol delay obeys (2/c)*R - (2/c)*m*t_sym*v, and
each per-subcarrier Doppler obeys (2/c)*(f_c + k*delta_f)*v + f_cfo.
Stacking the delays over the Dopplers gives one overdetermined real
system f, solved under either hypothesis:

  false-target fit (h0):  f ~ A2 @ [R, v] + a1 * f_cfo
  real-target fit  (h1):  f ~ A2 @ [R, v]

The h0 model nests the h1 model, so its residual norm can never exceed
the h1 one on the same observations.

Velocity is identified almost entirely by the Doppler rows: the delay
slope per symbol, 2*v*t_sym/c, is around 2e-13 s at vehicular speeds,
far below the delay refinement accuracy. The column scaling inside the
solver keeps this disparity from poisoning the factorization.

The designs depend on the configuration alone, so build_design_matrices
factors each one once per config: its condition number and its
column-scaled pseudo-inverse are kept, and each fit is then a matvec.

Template conditioning (bounded_fits): the templates are built from
bounded copies of the raw fits. Fitted under h1, a false target absorbs
its offset into velocity (about 300 m/s per 10 kHz at 5 GHz), so the
velocity is clamped to +-v_max and the range re-solved from the delay
rows, where it is the only other unknown. The h0 offset is the genie's
true value, or the Doppler-row residual against that bounded geometry,
snapped to zero below cfo_floor_hz. A zero offset gives h0 the h1
geometry, so the templates coincide and the statistic is exactly zero:
the zero-offset adversary is indistinguishable by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationSetupError, IllConditionedError
from .rdmap import PeakObservations
from .waveform import C_LIGHT, OfdmConfig, grid_constants

COND_LIMIT = 1.0e12


class ScaledLs:
    """Column-scaled least squares for one design matrix, factored once.

    Columns are scaled to unit max magnitude before factoring, so the
    condition number reflects geometry, not the huge unit disparity
    between seconds and hertz. solve raises IllConditionedError, carrying
    the number, when the scaled condition number is above COND_LIMIT
    (including zero columns); otherwise it applies the scaled
    pseudo-inverse and recomputes the residual from the unscaled system.
    """

    def __init__(self, a: np.ndarray):
        self.a = np.asarray(a, dtype=np.float64)
        scale = np.max(np.abs(self.a), axis=0)
        self.scale = np.where(scale > 0.0, scale, 1.0)
        a_s = self.a / self.scale
        self.cond = float(np.linalg.cond(a_s))
        self.pinv = np.linalg.pinv(a_s)

    def solve(self, f: np.ndarray) -> tuple[np.ndarray, float]:
        """(theta, residual 2-norm) for observations f."""
        if not np.isfinite(self.cond) or self.cond > COND_LIMIT:
            raise IllConditionedError(
                f"scaled design condition number {self.cond:.3e} exceeds "
                f"{COND_LIMIT:.0e}",
                condition=self.cond,
            )
        theta = (self.pinv @ f) / self.scale
        resid = f - self.a @ theta
        return theta, float(np.linalg.norm(resid))


@dataclass(frozen=True)
class DesignMatrices:
    """Columns of the stacked linear model, with each fit's solver.

    a2: [n_obs, 2] geometry block (range column, velocity column).
    a1: [n_obs] offset indicator, zero on delay rows, one on Doppler rows.
        The velocity-offset cross term it omits is below 1e-3 Hz for
        vehicular speeds and plausible offsets, and is ignored throughout.
    h0: ScaledLs of [a2, a1], the false-target fit [R, v, f_cfo].
    h1: ScaledLs of a2, the real-target fit [R, v].
    """

    a2: np.ndarray
    a1: np.ndarray
    h0: ScaledLs = field(init=False, repr=False, compare=False)
    h1: ScaledLs = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h0", ScaledLs(np.column_stack([self.a2, self.a1])))
        object.__setattr__(self, "h1", ScaledLs(self.a2))


@functools.cache
def build_design_matrices(cfg: OfdmConfig) -> DesignMatrices:
    """Design blocks for m_symbols delay rows plus k_active Doppler rows.

    Delay rows: [2/c, -(2/c)*m*t_sym]; Doppler rows: [0, (2/c)*(f_c + k*delta_f)].
    OfdmConfig ensures at least 2 of each, so both designs have full column
    rank. Built and factored once per config; later calls return the same object.
    """
    m = np.arange(cfg.m_symbols, dtype=np.float64)
    two_c = 2.0 / C_LIGHT
    delay_rows = np.column_stack([
        np.full(cfg.m_symbols, two_c),
        -two_c * m * cfg.t_sym_s,
    ])
    dopp_rows = np.column_stack([
        np.zeros(cfg.k_active),
        grid_constants(cfg).v_coef,
    ])
    a2 = np.vstack([delay_rows, dopp_rows])
    a1 = np.concatenate([np.zeros(cfg.m_symbols), np.ones(cfg.k_active)])
    return DesignMatrices(a2=a2, a1=a1)


@dataclass(frozen=True)
class Estimates:
    """One least-squares fit: parameters plus its residual 2-norm.

    f_cfo_hat_hz is None for the real-target fit, where the offset is
    pinned to zero by hypothesis. A stack of B fits holds [B] arrays.
    """

    r0_hat_m: float
    v_hat_mps: float
    f_cfo_hat_hz: float | None
    residual_norm: float
    hypothesis: str

    @classmethod
    def stack(cls, fits, hypothesis: str) -> "Estimates":
        """Single fits of one hypothesis as one stack."""
        r, v, f, res = np.array([(e.r0_hat_m, e.v_hat_mps, e.f_cfo_hat_hz, e.residual_norm)
                                 for e in fits], dtype=np.float64).reshape(-1, 4).T
        return cls(r, v, None if hypothesis == "h1" else f, res, hypothesis)

    def take(self, rows) -> "Estimates":
        """The fits at rows of a stack."""
        return Estimates(*(a[rows] if isinstance(a, np.ndarray) else a
                           for a in vars(self).values()))


def _observations(peaks: PeakObservations, dm: DesignMatrices) -> np.ndarray:
    """One trial's delays then Dopplers as one vector, checked against dm."""
    d = np.asarray(peaks.delay_obs_s, dtype=np.float64).ravel()
    p = np.asarray(peaks.dopp_obs_hz, dtype=np.float64).ravel()
    if d.size == 0 or p.size == 0:
        raise EstimationSetupError("need at least one delay and one Doppler observation, "
                                   f"got {d.size} and {p.size}")
    f = np.concatenate([d, p])
    if not np.all(np.isfinite(f)):
        raise EstimationSetupError("observations must be finite")
    if dm.a2.shape != (f.size, 2) or dm.a1.shape != (f.size,):
        raise EstimationSetupError(
            f"design matrices sized for {dm.a1.shape[0]} observations, got {f.size}")
    return f


def estimate_h0(peaks: PeakObservations, dm: DesignMatrices) -> Estimates:
    """Three-parameter fit [R, v, f_cfo] under the false-target hypothesis."""
    theta, rnorm = dm.h0.solve(_observations(peaks, dm))
    return Estimates(r0_hat_m=float(theta[0]), v_hat_mps=float(theta[1]),
                     f_cfo_hat_hz=float(theta[2]), residual_norm=rnorm,
                     hypothesis="h0")


def estimate_h1(peaks: PeakObservations, dm: DesignMatrices) -> Estimates:
    """Two-parameter fit [R, v] under the real-target hypothesis (no offset)."""
    theta, rnorm = dm.h1.solve(_observations(peaks, dm))
    return Estimates(r0_hat_m=float(theta[0]), v_hat_mps=float(theta[1]),
                     f_cfo_hat_hz=None, residual_norm=rnorm,
                     hypothesis="h1")


@functools.cache
def _genie_solver(cfg: OfdmConfig, f_cfo_hz: float) -> ScaledLs:
    """Geometry fit [R, v] with the offset known exactly, including the
    otherwise-dropped velocity-offset cross term in the v column."""
    a = build_design_matrices(cfg).a2.copy()
    a[cfg.m_symbols:, 1] = (2.0 / C_LIGHT) * (
        cfg.f_c_hz + f_cfo_hz + grid_constants(cfg).k_hz)
    return ScaledLs(a)


def _bounded(cfg: OfdmConfig, f_delay, r_m, v_mps):
    """(R, v) with v clamped to +-v_max and, where it moved, R re-solved
    from the delay rows f_delay [B, n_delay]."""
    v = np.minimum(np.maximum(v_mps, -cfg.v_max_mps), cfg.v_max_mps)
    r = (0.5 * C_LIGHT) * ((f_delay + (2.0 * v / C_LIGHT)[:, None]
                            * grid_constants(cfg).m_t_s).sum(axis=-1) / f_delay.shape[-1])
    return np.where(v == v_mps, r_m, r), v


def bounded_fits(cfg: OfdmConfig, peaks: PeakObservations, est0: Estimates,
                 est1: Estimates, genie_cfo_hz,
                 cfo_floor_hz: float) -> tuple[Estimates, Estimates, dict]:
    """(est0, est1, errors): the copies the templates are built from (see
    the module docstring), and by row the IllConditionedError of each
    failed genie re-solve, whose est0 geometry is NaN. Row b of the B
    stacked peaks ([B, m_symbols] and [B, k_active]) has fit b of each
    stack and the known offset genie_cfo_hz[b] (NaN: estimate it)."""
    f_delay, f_dopp = peaks.delay_obs_s, peaks.dopp_obs_hz
    r1, v1 = _bounded(cfg, f_delay, est1.r0_hat_m, est1.v_hat_mps)
    f = ((f_dopp - v1[:, None] * grid_constants(cfg).v_coef)
         .sum(axis=-1) / f_dopp.shape[-1]) / (1.0 + 2.0 * v1 / C_LIGHT)
    f = np.where(np.abs(f) < cfo_floor_hz, 0.0, f)
    genie = np.asarray(genie_cfo_hz, dtype=np.float64)
    known = ~np.isnan(genie)
    f = np.where(known, genie, f) + 0.0  # + 0.0: a zero of either sign is +0.0
    r0, v0, errors = r1.copy(), v1.copy(), {}
    rows = (known & (genie != 0.0)).nonzero()[0].tolist()
    if rows:  # re-solve the geometry with the known nonzero offset removed
        rhs = np.concatenate([f_delay[rows], f_dopp[rows] - f[rows, None]], axis=-1)
        theta = np.full((len(rows), 2), np.nan)
        for i, row in enumerate(rows):
            try:
                theta[i] = _genie_solver(cfg, float(f[row])).solve(rhs[i])[0]
            except IllConditionedError as exc:
                errors[row] = exc
        r0[rows], v0[rows] = _bounded(cfg, f_delay[rows], *theta.T)
    return (Estimates(r0, v0, f, est0.residual_norm, est0.hypothesis),
            Estimates(r1, v1, est1.f_cfo_hat_hz, est1.residual_norm, est1.hypothesis),
            errors)
