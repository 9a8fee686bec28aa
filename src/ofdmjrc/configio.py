"""Flat key-value configuration schema and run manifests.

Config files are plain text, one `key = value` per line, `#` comments
allowed. Keys are dotted (section.name) and physical quantities carry
unit suffixes. Every key has a default; unknown keys are rejected by
name; values are coerced to the type of the default. Precedence:
defaults, then file, then --set overrides.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from datetime import datetime, timezone

from . import __version__
from .channel import Scenario, TargetKind
from .detector import MODE_AMPLITUDE, check_mode
from .errors import ConfigurationError
from .montecarlo import DEFAULT_CFO_FLOOR_HZ
from .waveform import OfdmConfig

# Each OfdmConfig field is a key, and so is each Scenario field but the
# per-trial seed; the dataclasses hold their defaults.
_OFDM_KEYS = {("radar." if f.name == "v_max_mps" else "ofdm.") + f.name: f.name
              for f in fields(OfdmConfig)}
_SCENARIO_KEYS = {"scenario." + f.name: f.name for f in fields(Scenario) if f.name != "seed"}

DEFAULTS: dict[str, object] = {
    **{key: getattr(OfdmConfig, name) for key, name in _OFDM_KEYS.items()},
    # Scenario.kind has no default
    **{key: getattr(Scenario, name, TargetKind.FALSE_TARGET.value)
       for key, name in _SCENARIO_KEYS.items()},
    "detector.mode": MODE_AMPLITUDE,
    "detector.cfo_floor_hz": DEFAULT_CFO_FLOOR_HZ,
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
    return OfdmConfig(**{name: cfg_map[key] for key, name in _OFDM_KEYS.items()})


def scenario_from(cfg_map: dict[str, object], seed: int = 0) -> Scenario:
    values = {name: cfg_map[key] for key, name in _SCENARIO_KEYS.items()}
    try:
        values["kind"] = TargetKind(values["kind"])
    except ValueError:
        raise ConfigurationError(
            f"scenario.kind must be one of "
            f"{[k.value for k in TargetKind]}, got {values['kind']!r}"
        ) from None
    return Scenario(**values, seed=seed)


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
    flags = {"both": [False, True], "estimated": [False], "genie": [True]}
    if value not in flags:
        raise ConfigurationError(
            f"mc.genie must be both|estimated|genie, got {value!r}"
        )
    return flags[value]


def write_manifest(out_dir, subcommand: str, cfg_map: dict[str, object],
                   master_seed: int, outputs) -> None:
    """Write out_dir/manifest.json, enough to reproduce one CLI run's outputs."""
    manifest = {
        "config": dict(cfg_map), "master_seed": int(master_seed),
        "outputs": [str(p) for p in outputs], "subcommand": subcommand,
        "timestamp": datetime.now(timezone.utc).isoformat(), "version": __version__,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
