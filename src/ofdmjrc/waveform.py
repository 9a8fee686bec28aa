"""OFDM frame construction: subcarrier layout, symbol mapping, modulation.

The active subcarrier set is centered around DC with the DC bin itself
left empty, matching common WLAN-style layouts. Pilot tones carry fixed
all-ones BPSK so the receiver can divide them out without bookkeeping;
data tones carry unit-energy QPSK. Everything downstream assumes the
unitary DFT convention fixed here: forward kernel e^{-j2pi.}, inverse
kernel e^{+j2pi.}, 1/sqrt(N) on both directions.

grid_phasors is the one phase model of an echo (delay, Doppler, offset)
over the grid, shared by the channel's synthesis and the detector's templates.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._kernels import tone_powers
from .errors import ConfigurationError
from .grids import SampleGrid, write_cells_csv

C_LIGHT = 299_792_458.0

QPSK_ALPHABET = np.array(
    [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], dtype=np.complex128
) / np.sqrt(2.0)


def check_fields(obj, names, kind, noun: str) -> None:
    """Raise ConfigurationError unless each named field of obj is a kind
    (numbers.Integral or numbers.Real); a bool is neither here."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigurationError(f"{name} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class OfdmConfig:
    """Static OFDM and processing parameters for one simulation run.

    v_max_mps is the largest closing speed the narrowband assumptions are
    checked against; it also bounds the velocity handed to the detector
    templates.
    """

    n_fft: int = 64
    k_active: int = 52
    n_pilot: int = 12
    delta_f_hz: float = 312.5e3
    f_c_hz: float = 5.0e9
    m_symbols: int = 10
    zero_pad: int = 16
    peak_refine_tol: float = 1.0e-6
    v_max_mps: float = 100.0

    def __post_init__(self):
        """Raise ConfigurationError for a bad field. Besides basic type and
        domain checks this enforces the narrowband operating assumption that
        the subcarrier spacing exceeds the largest expected two-way Doppler
        shift by at least a factor of ten."""
        check_fields(self, ("n_fft", "k_active", "n_pilot", "m_symbols", "zero_pad"),
                     numbers.Integral, "an integer")
        check_fields(self, ("delta_f_hz", "f_c_hz", "v_max_mps", "peak_refine_tol"),
                     numbers.Real, "a real number")
        for name in ("delta_f_hz", "f_c_hz", "v_max_mps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.n_fft < 2 or (self.n_fft & (self.n_fft - 1)) != 0:
            raise ConfigurationError(f"n_fft must be a power of two >= 2, got {self.n_fft}")
        if not 0 < self.k_active <= self.n_fft - 1:
            raise ConfigurationError(
                f"k_active must be in [1, n_fft-1] to leave DC empty, got {self.k_active}"
            )
        if self.k_active % 2 != 0:
            raise ConfigurationError(f"k_active must be even, got {self.k_active}")
        if not 0 <= self.n_pilot <= self.k_active:
            raise ConfigurationError(
                f"n_pilot must be in [0, k_active], got {self.n_pilot}"
            )
        if self.m_symbols < 2:
            raise ConfigurationError(
                f"m_symbols must be >= 2 for slow-time processing, got {self.m_symbols}"
            )
        if self.zero_pad < 1:
            raise ConfigurationError(f"zero_pad must be >= 1, got {self.zero_pad}")
        if not 0 < self.peak_refine_tol < 1:
            raise ConfigurationError(
                f"peak_refine_tol must be in (0, 1), got {self.peak_refine_tol}"
            )
        max_doppler = 2.0 * self.v_max_mps * self.f_c_hz / C_LIGHT
        if self.delta_f_hz < 10.0 * max_doppler:
            raise ConfigurationError(
                "narrowband assumption violated: delta_f_hz must be at least "
                f"10x the worst-case two-way Doppler shift ({max_doppler:.1f} Hz "
                f"at v_max_mps={self.v_max_mps}), got {self.delta_f_hz}"
            )

    @property
    def t_sym_s(self) -> float:
        """Symbol duration 1/delta_f (no cyclic prefix in this model)."""
        return 1.0 / self.delta_f_hz


def build_config(**kwargs) -> OfdmConfig:
    """An OfdmConfig, validated like every OfdmConfig (ConfigurationError)."""
    return OfdmConfig(**kwargs)


def active_subcarriers(cfg: OfdmConfig) -> np.ndarray:
    """Signed active subcarrier indices, symmetric around the empty DC bin.

    For k_active=52 this is [-26..-1, 1..26].
    """
    half = cfg.k_active // 2
    neg = np.arange(-half, 0)
    pos = np.arange(1, half + 1)
    return np.concatenate([neg, pos]).astype(np.int64)


def pilot_positions(cfg: OfdmConfig) -> np.ndarray:
    """Positions (into the active set) of pilot tones, spread edge to edge."""
    pos = np.round(np.linspace(0, cfg.k_active - 1, cfg.n_pilot)).astype(np.int64)
    return np.unique(pos)


@dataclass(frozen=True)
class GridConstants:
    """Per-config arrays the trial path reads; see grid_constants."""

    k_idx: np.ndarray  # signed active subcarrier indices [k]
    k_hz: np.ndarray  # k_idx * delta_f [k]
    pilot_pos: np.ndarray  # pilot positions into the active set
    m_t_s: np.ndarray  # symbol start times m * t_sym [m]
    v_coef: np.ndarray  # Doppler per unit velocity, (2/c)(f_c + k delta_f) [k]
    doppler_hz: np.ndarray  # unshifted zero-padded Doppler axis [m * zero_pad]


@functools.cache
def grid_constants(cfg: OfdmConfig) -> GridConstants:
    """The arrays every trial needs from cfg alone, built once per config."""
    k_idx = active_subcarriers(cfg)
    k_hz = k_idx.astype(np.float64) * cfg.delta_f_hz
    consts = GridConstants(
        k_idx=k_idx, k_hz=k_hz, pilot_pos=pilot_positions(cfg),
        m_t_s=np.arange(cfg.m_symbols, dtype=np.float64) * cfg.t_sym_s,
        v_coef=(2.0 / C_LIGHT) * (cfg.f_c_hz + k_hz),
        doppler_hz=np.fft.fftfreq(cfg.m_symbols * cfg.zero_pad, d=cfg.t_sym_s),
    )
    for arr in vars(consts).values():
        arr.flags.writeable = False
    return consts


def grid_phasors(cfg: OfdmConfig, tau, v, f_cfo) -> np.ndarray:
    """e^{j2pi(k delta_f ((2v/c) m t_sym - tau) + f_slow m t_sym)} over [..., m, k],
    f_slow = (f_c + f_cfo)(2v/c) + f_cfo, with tau, v and f_cfo broadcasting
    against the [m] symbol times; z^k is z^(k - k0 + 1) times z^(k0 - 1)."""
    consts = grid_constants(cfg)
    k_idx, m_t = consts.k_idx, consts.m_t_s
    two_v_c = 2.0 * v / C_LIGHT
    shift, k0 = two_v_c * m_t - tau, int(k_idx.min())
    z = np.exp(2j * np.pi * cfg.delta_f_hz * shift)
    slow = np.exp(2j * np.pi * (((cfg.f_c_hz + f_cfo) * two_v_c + f_cfo) * m_t
                                + cfg.delta_f_hz * (k0 - 1) * shift))
    return slow[..., None] * tone_powers(z, int(k_idx.max()) - k0 + 1)[..., k_idx - k0]


@dataclass(frozen=True)
class FrameSymbols:
    """Transmitted frequency-domain symbols, shape [k_active, m_symbols].

    Unit modulus throughout (PSK data plus BPSK pilots), so the receiver
    can divide the frame out without reshaping the noise. Leading axes,
    if any, stack the frames of several trials.
    """

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.complex128)
        if x.ndim < 2:
            raise ConfigurationError(f"frame must be [..., k, m], got shape {x.shape}")
        object.__setattr__(self, "x", x)


def generate_frame(cfg: OfdmConfig, seed) -> FrameSymbols:
    """Draw one frame: uniform QPSK data with all-ones pilots.

    seed may be an integer or a numpy Generator; the draw is a pure
    function of (cfg, seed).
    """
    rng = np.random.default_rng(seed)
    x = QPSK_ALPHABET[rng.integers(0, 4, size=(cfg.k_active, cfg.m_symbols))]
    x[grid_constants(cfg).pilot_pos, :] = 1.0 + 0.0j
    return FrameSymbols(x=x)


def idft_modulate(frame: FrameSymbols, cfg: OfdmConfig) -> SampleGrid:
    """Unitary IDFT of each symbol onto the full FFT grid.

    Active bins are placed at their signed indices modulo n_fft; all
    other bins stay zero. Returns the noiseless transmit SampleGrid of
    shape [m_symbols, n_fft].
    """
    if frame.x.shape != (cfg.k_active, cfg.m_symbols):
        raise ConfigurationError(
            f"frame shape {frame.x.shape} does not match "
            f"(k_active={cfg.k_active}, m_symbols={cfg.m_symbols})"
        )
    bins = np.zeros((cfg.n_fft, cfg.m_symbols), dtype=np.complex128)
    bins[active_subcarriers(cfg) % cfg.n_fft, :] = frame.x
    return SampleGrid(y=np.fft.ifft(bins, axis=0, norm="ortho").T)


def write_frame_csv(path, frame: FrameSymbols, k_idx: np.ndarray) -> None:
    """Write a frame as CSV rows k,m,re,im with a header line."""
    x = frame.x
    write_cells_csv(path, "k,m,re,im", k_idx, range(x.shape[1]), x.real, x.imag)
