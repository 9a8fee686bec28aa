"""Flat key-value configuration schema and run manifests.

Config files are plain text, one `key = value` per line, `#` comments
allowed. Keys are dotted (section.name) and physical quantities carry
unit suffixes. Every key has a default; unknown keys are rejected by
name; values are coerced to the type of the default. Precedence:
defaults, then file, then --set overrides.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .channel import Scenario, TargetKind
from .detector import MODE_AMPLITUDE, check_mode
from .errors import ConfigurationError
from .waveform import OfdmConfig, build_config

DEFAULTS: dict[str, object] = {
    "ofdm.n_fft": 64,
    "ofdm.k_active": 52,
    "ofdm.n_pilot": 12,
    "ofdm.delta_f_hz": 312.5e3,
    "ofdm.f_c_hz": 5.0e9,
    "ofdm.m_symbols": 10,
    "ofdm.zero_pad": 16,
    "ofdm.peak_refine_tol": 1.0e-6,
    "radar.v_max_mps": 100.0,
    "scenario.kind": "false",
    "scenario.r0_m": 100.0,
    "scenario.v_mps": 10.0,
    "scenario.f_cfo_hz": 10.0e3,
    "scenario.sigma_rcs_m2": 1.0,
    "scenario.snr_db": 9.0,
    "detector.mode": MODE_AMPLITUDE,
    "detector.cfo_floor_hz": 1.0,
    "detector.gamma_prime": 0.0,
    "mc.n_trials": 2000,
    "mc.snr_db_list": "9,13",
    "mc.genie": "both",
    "io.dump_grids": False,
}

_TRUE_WORDS = ("true", "1", "yes", "on")
_FALSE_WORDS = ("false", "0", "no", "off")


def _coerce(key: str, raw: str):
    if key not in DEFAULTS:
        raise ConfigurationError(f"unknown config key {key!r}")
    default = DEFAULTS[key]
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            low = raw.lower()
            if low in _TRUE_WORDS:
                return True
            if low in _FALSE_WORDS:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key}: {exc}") from None


def load_config_file(path) -> dict[str, object]:
    """Parse a key-value config file; unreadable files, bad keys and values raise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        raise ConfigurationError(f"config not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from None
    out: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{path}:{lineno}: expected key = value, got {stripped!r}"
            )
        key, raw = stripped.split("=", 1)
        out[key.strip()] = _coerce(key.strip(), raw)
    return out


def apply_overrides(cfg_map: dict[str, object],
                    overrides) -> dict[str, object]:
    """Apply --set key=value pairs on top of a config mapping."""
    out = dict(cfg_map)
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(
                f"override must look like key=value, got {item!r}"
            )
        key, raw = item.split("=", 1)
        out[key.strip()] = _coerce(key.strip(), raw)
    return out


def resolve_config(path=None, overrides=()) -> dict[str, object]:
    """Defaults, then optional file, then overrides."""
    out = dict(DEFAULTS)
    if path is not None:
        out.update(load_config_file(path))
    return apply_overrides(out, overrides)


def ofdm_config_from(cfg_map: dict[str, object]) -> OfdmConfig:
    return build_config(
        n_fft=cfg_map["ofdm.n_fft"],
        k_active=cfg_map["ofdm.k_active"],
        n_pilot=cfg_map["ofdm.n_pilot"],
        delta_f_hz=cfg_map["ofdm.delta_f_hz"],
        f_c_hz=cfg_map["ofdm.f_c_hz"],
        m_symbols=cfg_map["ofdm.m_symbols"],
        zero_pad=cfg_map["ofdm.zero_pad"],
        peak_refine_tol=cfg_map["ofdm.peak_refine_tol"],
        v_max_mps=cfg_map["radar.v_max_mps"],
    )


def target_kind_from(value: str) -> TargetKind:
    for kind in TargetKind:
        if kind.value == value:
            return kind
    raise ConfigurationError(
        f"scenario.kind must be one of "
        f"{[k.value for k in TargetKind]}, got {value!r}"
    )


def scenario_from(cfg_map: dict[str, object], seed: int = 0) -> Scenario:
    return Scenario(
        kind=target_kind_from(cfg_map["scenario.kind"]),
        r0_m=cfg_map["scenario.r0_m"],
        v_mps=cfg_map["scenario.v_mps"],
        f_cfo_hz=cfg_map["scenario.f_cfo_hz"],
        sigma_rcs_m2=cfg_map["scenario.sigma_rcs_m2"],
        snr_db=cfg_map["scenario.snr_db"],
        seed=seed,
    )


def detector_mode_from(cfg_map: dict[str, object]) -> str:
    mode = cfg_map["detector.mode"]
    check_mode(mode)
    return mode


def snr_list_from(cfg_map: dict[str, object]) -> list[float]:
    raw = str(cfg_map["mc.snr_db_list"])
    try:
        vals = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(
            f"mc.snr_db_list must be comma-separated numbers, got {raw!r}"
        ) from None
    if not vals:
        raise ConfigurationError("mc.snr_db_list must not be empty")
    return vals


def genie_flags_from(cfg_map: dict[str, object]) -> list[bool]:
    """Which estimation modes to sweep: estimated first, then genie."""
    value = str(cfg_map["mc.genie"])
    if value == "both":
        return [False, True]
    if value == "estimated":
        return [False]
    if value == "genie":
        return [True]
    raise ConfigurationError(
        f"mc.genie must be both|estimated|genie, got {value!r}"
    )


@dataclass(frozen=True)
class RunManifest:
    """Record of one CLI run, sufficient to reproduce its outputs."""

    subcommand: str
    config: dict[str, object]
    master_seed: int
    outputs: list[str] = field(default_factory=list)
    timestamp: str = ""
    version: str = __version__


def make_manifest(subcommand: str, cfg_map: dict[str, object],
                  master_seed: int, outputs) -> RunManifest:
    return RunManifest(
        subcommand=subcommand,
        config=dict(cfg_map),
        master_seed=int(master_seed),
        outputs=[str(p) for p in outputs],
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def write_manifest(path, manifest: RunManifest) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
