"""Joint linear least-squares estimation of range, velocity, and offset.

The refined peak observations are linear in the unknowns once the tiny
velocity-offset cross term is dropped: each per-symbol delay obeys
(2/c)*R - (2/c)*m*t_sym*v, and each per-subcarrier Doppler obeys
(2/c)*(f_c + k*delta_f)*v + f_cfo. Stacking both blocks gives one
overdetermined real system solved under either hypothesis:

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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EstimationSetupError, IllConditionedError
from .rdmap import PeakObservations
from .waveform import C_LIGHT, OfdmConfig, grid_constants

COND_LIMIT = 1.0e12


@dataclass(frozen=True)
class ObservationVector:
    """Stacked real observations: n_delay delays (s) then n_doppler Dopplers (Hz)."""

    f: np.ndarray
    n_delay: int
    n_doppler: int

    @classmethod
    def from_peaks(cls, peaks: PeakObservations) -> "ObservationVector":
        d = np.asarray(peaks.delay_obs_s, dtype=np.float64).ravel()
        p = np.asarray(peaks.dopp_obs_hz, dtype=np.float64).ravel()
        if d.size == 0 or p.size == 0:
            raise EstimationSetupError(
                f"need at least one delay and one Doppler observation, "
                f"got {d.size} and {p.size}"
            )
        f = np.concatenate([d, p])
        if not np.all(np.isfinite(f)):
            raise EstimationSetupError("observations must be finite")
        return cls(f=f, n_delay=int(d.size), n_doppler=int(p.size))


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


def _design_matrices(cfg: OfdmConfig) -> DesignMatrices:
    if cfg.m_symbols < 2 or cfg.k_active < 2:
        raise EstimationSetupError(
            "need at least 2 symbols and 2 active subcarriers for full "
            f"column rank, got {cfg.m_symbols} and {cfg.k_active}"
        )
    m = np.arange(cfg.m_symbols, dtype=np.float64)
    two_c = 2.0 / C_LIGHT
    delay_rows = np.column_stack([
        np.full(cfg.m_symbols, two_c),
        -two_c * m * cfg.t_sym_s,
    ])
    dopp_rows = np.column_stack([
        np.zeros(cfg.k_active),
        cfg.cached(grid_constants).v_coef,
    ])
    a2 = np.vstack([delay_rows, dopp_rows])
    a1 = np.concatenate([np.zeros(cfg.m_symbols), np.ones(cfg.k_active)])
    return DesignMatrices(a2=a2, a1=a1)


def build_design_matrices(cfg: OfdmConfig) -> DesignMatrices:
    """Design blocks for m_symbols delay rows plus k_active Doppler rows.

    Delay rows: [2/c, -(2/c)*m*t_sym]; Doppler rows: [0, (2/c)*(f_c + k*delta_f)].
    Built and factored once per config; later calls return the same object.
    """
    return cfg.cached(_design_matrices)


@dataclass(frozen=True)
class Estimates:
    """One least-squares fit: parameters plus its residual 2-norm.

    f_cfo_hat_hz is None for the real-target fit, where the offset is
    pinned to zero by hypothesis.
    """

    r0_hat_m: float
    v_hat_mps: float
    f_cfo_hat_hz: float | None
    residual_norm: float
    hypothesis: str


def _check_lengths(obs: ObservationVector, dm: DesignMatrices) -> None:
    n = obs.n_delay + obs.n_doppler
    if dm.a2.shape != (n, 2) or dm.a1.shape != (n,):
        raise EstimationSetupError(
            f"design matrices sized for {dm.a1.shape[0]} observations, "
            f"got {n}"
        )


def estimate_h0(obs: ObservationVector, dm: DesignMatrices) -> Estimates:
    """Three-parameter fit [R, v, f_cfo] under the false-target hypothesis."""
    _check_lengths(obs, dm)
    theta, rnorm = dm.h0.solve(obs.f)
    return Estimates(r0_hat_m=float(theta[0]), v_hat_mps=float(theta[1]),
                     f_cfo_hat_hz=float(theta[2]), residual_norm=rnorm,
                     hypothesis="h0")


def estimate_h1(obs: ObservationVector, dm: DesignMatrices) -> Estimates:
    """Two-parameter fit [R, v] under the real-target hypothesis (no offset)."""
    _check_lengths(obs, dm)
    theta, rnorm = dm.h1.solve(obs.f)
    return Estimates(r0_hat_m=float(theta[0]), v_hat_mps=float(theta[1]),
                     f_cfo_hat_hz=None, residual_norm=rnorm,
                     hypothesis="h1")


def _genie_solver(cfg: OfdmConfig, f_cfo_hz: float) -> ScaledLs:
    """Geometry fit [R, v] with the offset known exactly, including the
    otherwise-dropped velocity-offset cross term in the v column."""
    a = build_design_matrices(cfg).a2.copy()
    a[cfg.m_symbols:, 1] = (2.0 / C_LIGHT) * (
        cfg.f_c_hz + f_cfo_hz + cfg.cached(grid_constants).k_hz)
    return ScaledLs(a)


def _bounded(cfg: OfdmConfig, obs: ObservationVector, r_m, v_mps):
    """(R, v) with v clamped to +-v_max and, if it moved, R re-solved."""
    v = float(np.clip(v_mps, -cfg.v_max_mps, cfg.v_max_mps))
    if v == v_mps:
        return float(r_m), v
    m_t = cfg.cached(grid_constants).m_t_s
    return float(0.5 * C_LIGHT * np.mean(
        obs.f[:obs.n_delay] + (2.0 * v / C_LIGHT) * m_t)), v


def bounded_fits(cfg: OfdmConfig, obs: ObservationVector, est0: Estimates,
                 est1: Estimates, genie_cfo_hz: float | None,
                 cfo_floor_hz: float) -> tuple[Estimates, Estimates]:
    """The (est0, est1) copies the templates are built from; see the
    module docstring. genie_cfo_hz is the known offset, or None to
    estimate it from the Doppler rows."""
    r1, v1 = _bounded(cfg, obs, est1.r0_hat_m, est1.v_hat_mps)
    r0, v0, f = r1, v1, genie_cfo_hz
    if f is None:
        resid = obs.f[obs.n_delay:] - v1 * cfg.cached(grid_constants).v_coef
        f = float(np.mean(resid) / (1.0 + 2.0 * v1 / C_LIGHT))
        f = 0.0 if abs(f) < cfo_floor_hz else f
    elif f != 0.0:
        rhs = obs.f.copy()
        rhs[obs.n_delay:] -= f
        theta, _ = cfg.cached(_genie_solver, float(f)).solve(rhs)
        r0, v0 = _bounded(cfg, obs, theta[0], theta[1])
    # "or 0.0": a zero offset of either sign becomes +0.0
    return (replace(est0, r0_hat_m=r0, v_hat_mps=v0, f_cfo_hat_hz=float(f) or 0.0),
            replace(est1, r0_hat_m=r1, v_hat_mps=v1))
