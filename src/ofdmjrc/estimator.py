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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationSetupError, IllConditionedError
from .rdmap import PeakObservations
from .waveform import C_LIGHT, OfdmConfig, active_subcarriers

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


@dataclass(frozen=True)
class DesignMatrices:
    """Columns of the stacked linear model.

    a2: [n_obs, 2] geometry block (range column, velocity column).
    a1: [n_obs] offset indicator, zero on delay rows, one on Doppler rows.
        The velocity-offset cross term it omits is below 1e-3 Hz for
        vehicular speeds and plausible offsets, and is ignored throughout.
    """

    a2: np.ndarray
    a1: np.ndarray

    def h1_matrix(self) -> np.ndarray:
        """Design for the real-target fit (no offset column)."""
        return self.a2

    def h0_matrix(self) -> np.ndarray:
        """Design for the false-target fit, parameter order [R, v, f_cfo]."""
        return np.column_stack([self.a2, self.a1])


def build_design_matrices(cfg: OfdmConfig) -> DesignMatrices:
    """Design blocks for m_symbols delay rows plus k_active Doppler rows.

    Delay rows: [2/c, -(2/c)*m*t_sym]; Doppler rows: [0, (2/c)*(f_c + k*delta_f)].
    """
    if cfg.m_symbols < 2 or cfg.k_active < 2:
        raise EstimationSetupError(
            "need at least 2 symbols and 2 active subcarriers for full "
            f"column rank, got {cfg.m_symbols} and {cfg.k_active}"
        )
    m = np.arange(cfg.m_symbols, dtype=np.float64)
    k = active_subcarriers(cfg).astype(np.float64)
    two_c = 2.0 / C_LIGHT
    delay_rows = np.column_stack([
        np.full(cfg.m_symbols, two_c),
        -two_c * m * cfg.t_sym_s,
    ])
    dopp_rows = np.column_stack([
        np.zeros(cfg.k_active),
        two_c * (cfg.f_c_hz + k * cfg.delta_f_hz),
    ])
    a2 = np.vstack([delay_rows, dopp_rows])
    a1 = np.concatenate([np.zeros(cfg.m_symbols), np.ones(cfg.k_active)])
    return DesignMatrices(a2=a2, a1=a1)


def solve_linear_ls(a: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float]:
    """Column-scaled least squares; returns (theta, residual 2-norm).

    Columns are scaled to unit max magnitude before the orthogonal
    factorization so the condition check reflects geometry, not the huge
    unit disparity between seconds and hertz. A scaled condition number
    above COND_LIMIT (including zero columns) raises IllConditionedError
    carrying the number. The residual is recomputed from the unscaled
    system.
    """
    a = np.asarray(a, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64).ravel()
    if a.ndim != 2 or a.shape[0] != f.size:
        raise EstimationSetupError(
            f"design {a.shape} incompatible with {f.size} observations"
        )
    if a.shape[0] < a.shape[1]:
        raise EstimationSetupError(
            f"underdetermined system: {a.shape[0]} rows for {a.shape[1]} params"
        )
    scale = np.max(np.abs(a), axis=0)
    safe = np.where(scale > 0.0, scale, 1.0)
    a_s = a / safe
    cond = float(np.linalg.cond(a_s))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedError(
            f"scaled design condition number {cond:.3e} exceeds {COND_LIMIT:.0e}",
            condition=cond,
        )
    theta_s = np.linalg.lstsq(a_s, f, rcond=None)[0]
    theta = theta_s / safe
    resid = f - a @ theta
    return theta, float(np.linalg.norm(resid))


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
    theta, rnorm = solve_linear_ls(dm.h0_matrix(), obs.f)
    return Estimates(r0_hat_m=float(theta[0]), v_hat_mps=float(theta[1]),
                     f_cfo_hat_hz=float(theta[2]), residual_norm=rnorm,
                     hypothesis="h0")


def estimate_h1(obs: ObservationVector, dm: DesignMatrices) -> Estimates:
    """Two-parameter fit [R, v] under the real-target hypothesis (no offset)."""
    _check_lengths(obs, dm)
    theta, rnorm = solve_linear_ls(dm.h1_matrix(), obs.f)
    return Estimates(r0_hat_m=float(theta[0]), v_hat_mps=float(theta[1]),
                     f_cfo_hat_hz=None, residual_norm=rnorm,
                     hypothesis="h1")
