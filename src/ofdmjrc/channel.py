"""Target channels and noise.

A real target and a false target differ only by the carrier frequency
offset. A real target is a physical reflector: round-trip delay, Doppler
from radial motion, and no offset because the reflection never passes
through an independent oscillator. A false target is a responding
transmitter that replays the waveform; its oscillator is not locked to
the victim radar, so the replay carries an offset on top of the same
delay and Doppler geometry. Scenario enforces the rule by rejecting a
real target with a nonzero f_cfo_hz, so synth_target synthesizes both
kinds with scenario.f_cfo_hz and one kernel.

The offset enters only through the symbol-to-symbol phase progression.
Its residual phase ramp inside one symbol is orders of magnitude below
the subcarrier spacing for any plausible oscillator error and is not
modeled; keeping it would smear the per-subcarrier Doppler observations
by tens of kilohertz and contradict the linear observation model used
by the estimator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CalibrationError, ConfigurationError, SingularityError
from .grids import SampleGrid, write_cells_csv
from .waveform import C_LIGHT, FrameSymbols, OfdmConfig, grid_constants


class TargetKind(enum.Enum):
    FALSE_TARGET = "false"
    REAL_TARGET = "real"


@dataclass(frozen=True)
class Scenario:
    """One target realization: geometry, offset, reflectivity, noise level.

    r0_m is the equivalent one-way range implied by the observed delay;
    for a false target it folds in the adversary's processing latency.
    A real target must have zero carrier frequency offset; construct it
    with f_cfo_hz=0.0 explicitly. seed feeds the per-trial substreams.
    """

    kind: TargetKind
    r0_m: float = 100.0
    v_mps: float = 10.0
    f_cfo_hz: float = 10.0e3
    sigma_rcs_m2: float = 1.0
    snr_db: float = 9.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, TargetKind):
            raise ConfigurationError(f"kind must be a TargetKind, got {self.kind!r}")
        for name in ("r0_m", "v_mps", "f_cfo_hz", "sigma_rcs_m2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ConfigurationError(
                f"snr_db must be finite or +inf, got {self.snr_db}")
        if self.r0_m <= 0:
            raise ConfigurationError(f"r0_m must be positive, got {self.r0_m}")
        if self.sigma_rcs_m2 <= 0:
            raise ConfigurationError(
                f"sigma_rcs_m2 must be positive, got {self.sigma_rcs_m2}"
            )
        if self.kind is TargetKind.REAL_TARGET and self.f_cfo_hz != 0.0:
            raise ConfigurationError(
                "a real target cannot carry a carrier frequency offset; "
                f"set f_cfo_hz=0.0 (got {self.f_cfo_hz})"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


def wavelength_m(f_c_hz: float) -> float:
    if f_c_hz <= 0:
        raise SingularityError(f"carrier frequency must be positive, got {f_c_hz}")
    return C_LIGHT / f_c_hz


def path_loss_gain(lambda_m: float, sigma_rcs_m2: float, r0_m: float) -> float:
    """Two-way radar power gain lambda^2 * sigma / (64 pi^3 R^4).

    A range whose fourth power is beyond float range gives 0.0, the gain
    such a range underflows to, rather than an OverflowError.
    """
    if r0_m <= 0:
        raise SingularityError(f"range must be positive, got {r0_m}")
    if lambda_m <= 0 or sigma_rcs_m2 <= 0:
        raise SingularityError(
            f"wavelength and cross section must be positive, "
            f"got {lambda_m} and {sigma_rcs_m2}"
        )
    try:
        r4 = r0_m**4
    except OverflowError:
        return 0.0
    return lambda_m * lambda_m * sigma_rcs_m2 / (64.0 * np.pi**3 * r4)


@dataclass(frozen=True)
class ChannelGain:
    """Per-trial channel coefficient pieces.

    g is the unit-power small-scale fading sample, big_g the large-scale
    power gain, and h_eff the effective complex amplitude applied to the
    grid: g*sqrt(big_g) rotated by the carrier phase of the round trip,
    so |h_eff|^2 == |g|^2 * big_g.
    """

    g: complex
    big_g: float
    h_eff: complex


def draw_channel_gain(big_g: float, scenario: Scenario, cfg: OfdmConfig,
                      seed) -> ChannelGain:
    """Draw the fading sample and fold in path loss and round-trip phase.

    g is circularly symmetric complex normal with E|g|^2 = 1. The phase
    factor uses the receiver's frequency reference, which differs from
    the transmit carrier by the scenario's frequency offset. seed may be
    an integer or a numpy Generator.
    """
    if big_g < 0:
        raise ConfigurationError(f"big_g must be non-negative, got {big_g}")
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal(2)
    g = complex(re, im) / np.sqrt(2.0)
    tau0 = 2.0 * scenario.r0_m / C_LIGHT
    phase = np.exp(-2j * np.pi * (cfg.f_c_hz + scenario.f_cfo_hz) * tau0)
    return ChannelGain(g=g, big_g=float(big_g),
                       h_eff=g * np.sqrt(big_g) * phase)


def synth_target(cfg: OfdmConfig, scenario: Scenario,
                 frame: FrameSymbols, gain: ChannelGain) -> SampleGrid:
    """Noiseless received grid for either kind of target.

    Each subcarrier keeps its own Doppler: the fast-time phase slope of
    subcarrier k advances by (2v/c)*m*t_sym per symbol in addition to the
    common slow-time rotation at (f_c+f_cfo)*(2v/c) + f_cfo, where f_cfo
    is 0 for a real target.
    """
    y = _kernels.synth_grid(
        frame.x, cfg.cached(grid_constants).k_idx,
        cfg.n_fft, cfg.m_symbols, cfg.delta_f_hz, cfg.t_sym_s,
        gain.h_eff, 2.0 * scenario.r0_m / C_LIGHT, scenario.v_mps,
        scenario.f_cfo_hz, cfg.f_c_hz, C_LIGHT,
    )
    return SampleGrid(y=y)


def add_awgn(grid: SampleGrid, snr_db: float, seed) -> SampleGrid:
    """Add complex white noise calibrated against the grid's own mean power.

    The per-sample noise variance is mean(|y|^2) / 10^(snr_db/10), so the
    stated SNR is the post-channel SNR regardless of path loss or the
    drawn gain magnitude. snr_db=+inf returns the grid unchanged with
    sigma2=0.
    """
    y = grid.y
    if np.isposinf(snr_db):
        return SampleGrid(y=y.copy(), sigma2=0.0)
    p_sig = float(np.mean(np.abs(y) ** 2))
    if p_sig <= 0.0:
        raise CalibrationError(
            "cannot calibrate noise on an all-zero grid at finite SNR"
        )
    sigma2 = p_sig / (10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    noise *= np.sqrt(sigma2 / 2.0)
    return SampleGrid(y=y + noise, sigma2=sigma2)


def write_grid_csv(path, grid: SampleGrid) -> None:
    """Write time-domain samples as CSV rows m,n,re,im with a header."""
    y = grid.y
    write_cells_csv(path, "m,n,re,im", range(y.shape[0]), range(y.shape[1]),
                    y.real, y.imag)


def write_grid_bin(path, grid: SampleGrid) -> None:
    """Binary dump: little-endian uint32 header {m_symbols, n_fft}, then
    row-major complex64 samples."""
    y = grid.y
    with open(path, "wb") as fh:
        fh.write(np.array(y.shape, dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(y, dtype=np.complex64)
                 .astype("<c8", copy=False).tobytes())


def read_grid_bin(path) -> SampleGrid:
    """Read a grid written by write_grid_bin (complex64, widened to 128)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        raise ConfigurationError(f"grid file not found: {path}") from None
    if len(raw) < 8:
        raise ConfigurationError(f"grid file too short: {path}")
    if (len(raw) - 8) % 8:
        raise ConfigurationError(
            f"grid file payload is {len(raw) - 8} bytes, not whole "
            f"complex64 samples: {path}")
    m, n = np.frombuffer(raw[:8], dtype="<u4")
    body = np.frombuffer(raw[8:], dtype="<c8")
    if body.size != int(m) * int(n):
        raise ConfigurationError(
            f"grid file payload has {body.size} samples, header says {int(m) * int(n)}"
        )
    return SampleGrid(y=body.reshape(int(m), int(n)).astype(np.complex128))
