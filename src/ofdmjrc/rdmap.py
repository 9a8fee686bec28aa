"""Receiver-side grid processing and peak observation extraction.

The frequency-domain grid after symbol removal carries two separable
tone structures. Each slow-time column m is a complex tone across the
subcarrier index whose frequency is the (velocity-shifted) round-trip
delay: refining it per symbol gives the delay observations
tau_obs[m] = 2*r0/c - (2v/c)*m*t_sym when the delay axis is oriented so
physical delays land at positive values. Each subcarrier row k is a
tone across the symbol index combining per-subcarrier Doppler and any
carrier frequency offset: dopp_obs[k] = (2v/c)*(f_c + k*delta_f) plus
the offset. Coarse peaks come from zero-padded transforms; Newton
steps on the exact tone objective refine each peak well below one
padded bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DivisionGuardError, NoPeakError, PipelineError
from .grids import FreqGrid, SampleGrid
from .waveform import C_LIGHT, FrameSymbols, OfdmConfig, active_subcarriers

_DIVISION_FLOOR = 1.0e-6


def fast_time_dft(grid: SampleGrid, cfg: OfdmConfig) -> np.ndarray:
    """Unitary DFT across each symbol, keeping only active bins, shape [k, m]."""
    if grid.y.shape != (cfg.m_symbols, cfg.n_fft):
        raise PipelineError(
            f"sample grid {grid.y.shape} does not match the configuration "
            f"({cfg.m_symbols}, {cfg.n_fft})"
        )
    spectrum = np.fft.fft(grid.y, axis=1, norm="ortho")
    cols = active_subcarriers(cfg) % cfg.n_fft
    return spectrum[:, cols].T


def remove_known_symbols(y_f: np.ndarray, frame: FrameSymbols) -> FreqGrid:
    """Divide out the transmitted symbols, leaving only channel structure.

    Guards against near-zero symbols; with the unit-modulus constellation
    used here the guard can never fire on legitimate frames.
    """
    y_f = np.asarray(y_f, dtype=np.complex128)
    if frame.x.shape != y_f.shape:
        raise DivisionGuardError(
            f"frame shape {frame.x.shape} does not match grid {y_f.shape}"
        )
    small = np.abs(frame.x) < _DIVISION_FLOOR
    if np.any(small):
        raise DivisionGuardError(
            f"{int(small.sum())} transmitted symbols are below {_DIVISION_FLOOR} "
            "in magnitude; cannot divide them out"
        )
    return FreqGrid(y_tilde=y_f / frame.x)


def _delay_spectrum(cfg: OfdmConfig, y_tilde: np.ndarray) -> np.ndarray:
    """Zero-padded delay profiles, shape [Ld, m]; bin d maps to d/(Ld*delta_f)."""
    ld = cfg.n_fft * cfg.zero_pad
    buf = np.zeros((ld, y_tilde.shape[1]), dtype=np.complex128)
    buf[active_subcarriers(cfg) % ld, :] = y_tilde
    return np.fft.ifft(buf, axis=0, norm="forward")


def _doppler_spectrum(cfg: OfdmConfig, rows: np.ndarray) -> np.ndarray:
    """Zero-padded slow-time spectra along the last axis, centered on zero."""
    lm = cfg.m_symbols * cfg.zero_pad
    spectrum = np.fft.fft(rows, n=lm, axis=-1)
    return np.fft.fftshift(spectrum, axes=-1)


def delay_axis_s(cfg: OfdmConfig) -> np.ndarray:
    ld = cfg.n_fft * cfg.zero_pad
    return np.arange(ld) / (ld * cfg.delta_f_hz)


def doppler_axis_hz(cfg: OfdmConfig) -> np.ndarray:
    lm = cfg.m_symbols * cfg.zero_pad
    return np.fft.fftshift(np.fft.fftfreq(lm, d=cfg.t_sym_s))


@dataclass(frozen=True)
class RangeDopplerMap:
    """Magnitude surface over (delay, doppler) with its axis vectors."""

    magnitudes: np.ndarray
    delay_axis_s: np.ndarray
    doppler_axis_hz: np.ndarray
    zero_pad: int

    def peak(self) -> tuple[float, float]:
        d, o = np.unravel_index(int(np.argmax(self.magnitudes)),
                                self.magnitudes.shape)
        return float(self.delay_axis_s[d]), float(self.doppler_axis_hz[o])


def range_doppler_map(fg: FreqGrid, cfg: OfdmConfig) -> RangeDopplerMap:
    """Full zero-padded range-Doppler magnitude map for inspection/plotting.

    Delay axis spans [0, 1/delta_f); Doppler axis spans one unambiguous
    interval [-1/(2*t_sym), +1/(2*t_sym)).
    """
    delayed = _delay_spectrum(cfg, fg.y_tilde)
    surface = _doppler_spectrum(cfg, delayed)
    return RangeDopplerMap(magnitudes=np.abs(surface),
                           delay_axis_s=delay_axis_s(cfg),
                           doppler_axis_hz=doppler_axis_hz(cfg),
                           zero_pad=cfg.zero_pad)


@dataclass(frozen=True)
class PeakObservations:
    """Refined per-symbol delays [m_symbols] (s) and per-subcarrier Dopplers [k_active] (Hz)."""

    delay_obs_s: np.ndarray
    dopp_obs_hz: np.ndarray


def extract_peak_observations(fg: FreqGrid, cfg: OfdmConfig) -> PeakObservations:
    """Coarse zero-padded peaks refined by Newton ascent within one padded bin.

    Each slow-time column m yields one delay observation by maximizing
    |sum_k y_tilde[k,m] e^{+j2pi k delta_f tau}| over tau; each
    subcarrier row k yields one Doppler observation by maximizing
    |sum_m y_tilde[k,m] e^{-j2pi f m t_sym}| over f. Both objectives are
    periodic (1/delta_f in tau, 1/t_sym in f), so refined values are
    wrapped back into the principal intervals [0, 1/delta_f) and
    [-1/(2 t_sym), +1/(2 t_sym)).
    """
    y_tilde = fg.y_tilde
    if not np.any(np.abs(y_tilde) > 0.0):
        raise NoPeakError("grid is identically zero; no peak to extract")

    k_idx = active_subcarriers(cfg).astype(np.float64)

    ld = cfg.n_fft * cfg.zero_pad
    d0 = np.argmax(np.abs(_delay_spectrum(cfg, y_tilde)), axis=0)
    x0 = d0.astype(np.float64) / (ld * cfg.delta_f_hz)
    half = np.full(x0.shape, 1.0 / (ld * cfg.delta_f_hz))
    delays = _kernels.refine_tones(y_tilde.T, k_idx * cfg.delta_f_hz, 1.0,
                                   x0, half, cfg.peak_refine_tol)
    delays = np.mod(delays, cfg.t_sym_s)

    lm = cfg.m_symbols * cfg.zero_pad
    axis = doppler_axis_hz(cfg)
    o0 = np.argmax(np.abs(_doppler_spectrum(cfg, y_tilde)), axis=-1)
    f0 = axis[o0]
    half_f = np.full(f0.shape, 1.0 / (lm * cfg.t_sym_s))
    m_coef = np.arange(cfg.m_symbols, dtype=np.float64) * cfg.t_sym_s
    dopps = _kernels.refine_tones(y_tilde, m_coef, -1.0, f0, half_f,
                                  cfg.peak_refine_tol)
    span = 1.0 / cfg.t_sym_s
    dopps = np.mod(dopps + span / 2.0, span) - span / 2.0

    return PeakObservations(delay_obs_s=delays, dopp_obs_hz=dopps)


def resolution_summary(cfg: OfdmConfig) -> dict[str, float]:
    """Nominal resolutions and unambiguous spans implied by the numerology.

    Range resolution is quoted twice, from the occupied bandwidth
    (k_active subcarriers) and from the full FFT bandwidth, since both
    conventions are in circulation.
    """
    frame_t = cfg.m_symbols * cfg.t_sym_s
    return {
        "range_resolution_active_m": C_LIGHT / (2.0 * cfg.k_active * cfg.delta_f_hz),
        "range_resolution_full_m": C_LIGHT / (2.0 * cfg.n_fft * cfg.delta_f_hz),
        "doppler_resolution_hz": 1.0 / frame_t,
        "velocity_resolution_mps": C_LIGHT / (2.0 * cfg.f_c_hz * frame_t),
        "unambiguous_range_m": C_LIGHT / (2.0 * cfg.delta_f_hz),
        "unambiguous_velocity_mps": C_LIGHT / (4.0 * cfg.f_c_hz * cfg.t_sym_s),
    }


def write_rdmap_csv(path, rdm: RangeDopplerMap) -> None:
    """Write the map as CSV rows delay_s,doppler_hz,magnitude with a header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("delay_s,doppler_hz,magnitude\n")
        for d in range(rdm.magnitudes.shape[0]):
            for o in range(rdm.magnitudes.shape[1]):
                fh.write(f"{float(rdm.delay_axis_s[d])!r},"
                         f"{float(rdm.doppler_axis_hz[o])!r},"
                         f"{float(rdm.magnitudes[d, o])!r}\n")
