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

fast_time_dft, remove_known_symbols and extract_peak_observations also
take grids stacked on leading axes, each trial bit for bit what it gets
alone; extract_peak_observations reports all-zero grids per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DivisionGuardError, NoPeakError, PipelineError
from .grids import FreqGrid, SampleGrid, write_cells_csv
from .waveform import C_LIGHT, FrameSymbols, OfdmConfig, grid_constants

_DIVISION_FLOOR = 1.0e-6
_SLICE_VALUES = 1 << 16  # padded complex values per coarse-search slice


def fast_time_dft(grid: SampleGrid, cfg: OfdmConfig) -> np.ndarray:
    """Unitary DFT across each symbol, keeping only active bins, shape [..., k, m]."""
    if grid.y.shape[-2:] != (cfg.m_symbols, cfg.n_fft):
        raise PipelineError(
            f"sample grid {grid.y.shape} does not match the configuration "
            f"({cfg.m_symbols}, {cfg.n_fft})"
        )
    spectrum = np.fft.fft(grid.y, axis=-1, norm="ortho")
    cols = grid_constants(cfg).k_idx % cfg.n_fft
    return np.swapaxes(spectrum[..., cols], -1, -2)


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


def _delay_spectrum(cfg: OfdmConfig, cols: np.ndarray) -> np.ndarray:
    """Zero-padded delay profiles of the subcarrier columns [..., k_active]
    along the last axis, shape [..., Ld]; bin d maps to d/(Ld*delta_f)."""
    ld = cfg.n_fft * cfg.zero_pad
    buf = np.zeros((*cols.shape[:-1], ld), dtype=np.complex128)
    buf[..., grid_constants(cfg).k_idx % ld] = cols
    return np.fft.ifft(buf, axis=-1, norm="forward")


def _doppler_spectrum(cfg: OfdmConfig, rows: np.ndarray) -> np.ndarray:
    """Zero-padded slow-time spectra along the last axis, unshifted: bin o
    maps to grid_constants(cfg).doppler_hz[o]."""
    return np.fft.fft(rows, n=cfg.m_symbols * cfg.zero_pad, axis=-1)


def _coarse_peaks(spectrum, cfg: OfdmConfig, rows: np.ndarray,
                  width: int) -> np.ndarray:
    """Argmax bin of |spectrum(cfg, rows)| per row of rows [R, L], taken
    over slices of at most _SLICE_VALUES padded values (width per row),
    so the spectrum stays in cache whatever R is."""
    step = max(1, _SLICE_VALUES // width)
    return np.concatenate([np.abs(spectrum(cfg, rows[i:i + step])).argmax(-1)
                           for i in range(0, len(rows), step)])


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
    # contiguous rows: the padded Doppler FFT is slower on a strided view
    delayed = np.ascontiguousarray(_delay_spectrum(cfg, fg.y_tilde.T).T)
    surface = np.fft.fftshift(_doppler_spectrum(cfg, delayed), axes=-1)
    return RangeDopplerMap(magnitudes=np.abs(surface),
                           delay_axis_s=delay_axis_s(cfg),
                           doppler_axis_hz=doppler_axis_hz(cfg),
                           zero_pad=cfg.zero_pad)


@dataclass(frozen=True)
class PeakObservations:
    """Refined per-symbol delays [..., m_symbols] (s) and per-subcarrier
    Dopplers [..., k_active] (Hz)."""

    delay_obs_s: np.ndarray
    dopp_obs_hz: np.ndarray

    def take(self, rows) -> "PeakObservations":
        """The observations at rows of a stack."""
        return PeakObservations(self.delay_obs_s[rows], self.dopp_obs_hz[rows])


def extract_peak_observations(fg: FreqGrid, cfg: OfdmConfig) -> tuple[PeakObservations, dict]:
    """(peaks, errors): coarse zero-padded peaks refined by Newton ascent,
    and by flattened leading index the NoPeakError of each all-zero grid.

    Each slow-time column m yields one delay observation by maximizing
    |sum_k y_tilde[k,m] e^{+j2pi k delta_f tau}| over tau; each
    subcarrier row k yields one Doppler observation by maximizing
    |sum_m y_tilde[k,m] e^{-j2pi f m t_sym}| over f. Both objectives are
    periodic (1/delta_f in tau, 1/t_sym in f), so refined values are
    wrapped back into the principal intervals [0, 1/delta_f) and
    [-1/(2 t_sym), +1/(2 t_sym)). The delay rows of every stacked grid
    go through one refine_tones call, and so do the Doppler rows.
    """
    peak = np.fmax.reduce(np.abs(fg.y_tilde), axis=(-2, -1))
    errors = {row: NoPeakError("grid is identically zero; no peak to extract")
              for row in np.flatnonzero(~(peak > 0.0)).tolist()}
    # Exact scaling by a power of two keeps the tone powers finite at any gain.
    y_tilde = np.ldexp(np.ascontiguousarray(fg.y_tilde).view(np.float64),
                       -np.frexp(peak)[1][..., None, None]).view(np.complex128)
    consts = grid_constants(cfg)
    *lead, k, m = y_tilde.shape

    ld = cfg.n_fft * cfg.zero_pad
    cols = np.swapaxes(y_tilde, -1, -2).reshape(-1, k)
    x0 = _coarse_peaks(_delay_spectrum, cfg, cols, ld) / (ld * cfg.delta_f_hz)
    half = np.full(x0.shape, 1.0 / (ld * cfg.delta_f_hz))
    delays = _kernels.refine_tones(cols, consts.k_idx, cfg.delta_f_hz, 1.0, x0,
                                   half, cfg.peak_refine_tol)
    delays = np.mod(delays, cfg.t_sym_s).reshape(*lead, m)

    lm = cfg.m_symbols * cfg.zero_pad
    rows = y_tilde.reshape(-1, m)
    f0 = consts.doppler_hz[_coarse_peaks(_doppler_spectrum, cfg, rows, lm)]
    half_f = np.full(f0.shape, 1.0 / (lm * cfg.t_sym_s))
    dopps = _kernels.refine_tones(rows, np.arange(m), cfg.t_sym_s, -1.0, f0,
                                  half_f, cfg.peak_refine_tol)
    span = 1.0 / cfg.t_sym_s
    dopps = (np.mod(dopps + span / 2.0, span) - span / 2.0).reshape(*lead, k)

    return PeakObservations(delay_obs_s=delays, dopp_obs_hz=dopps), errors


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
    write_cells_csv(path, "delay_s,doppler_hz,magnitude", rdm.delay_axis_s,
                    rdm.doppler_axis_hz, rdm.magnitudes)
