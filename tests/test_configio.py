from __future__ import annotations

import json
from pathlib import Path

import pytest

from ofdmjrc import ConfigurationError, Scenario, TargetKind, build_config
from ofdmjrc.configio import (
    DEFAULTS,
    _coerce,
    apply_overrides,
    genie_flags_from,
    load_config_file,
    ofdm_config_from,
    resolve_config,
    scenario_from,
    snr_list_from,
    write_manifest,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_resolve_to_working_objects():
    cfg_map = resolve_config()
    ofdm = ofdm_config_from(cfg_map)
    scenario = scenario_from(cfg_map, seed=5)
    assert ofdm.n_fft == 64
    assert scenario.kind.value == "false"
    assert scenario.seed == 5
    assert snr_list_from(cfg_map) == [9.0, 13.0]
    assert genie_flags_from(cfg_map) == [False, True]


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# geometry\n"
        "scenario.r0_m = 220\n"
        "\n"
        "mc.genie = genie\n"
        "io.dump_grids = yes\n"
    )
    got = load_config_file(path)
    assert got == {"scenario.r0_m": 220.0, "mc.genie": "genie",
                   "io.dump_grids": True}


def test_config_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scenario.r0_m = 100\nthis line has no equals sign\n")
    with pytest.raises(ConfigurationError) as exc:
        load_config_file(path)
    assert ":2:" in str(exc.value)  # file:line prefix points at the bad line


def test_missing_config_file_is_a_configuration_error(tmp_path):
    path = tmp_path / "missing.cfg"
    with pytest.raises(ConfigurationError, match="config not found"):
        resolve_config(path)


def test_unknown_keys_are_named():
    with pytest.raises(ConfigurationError) as exc:
        apply_overrides(dict(DEFAULTS), ["scenario.phaser_power=11"])
    assert "scenario.phaser_power" in str(exc.value)


def test_type_coercion_follows_defaults():
    got = apply_overrides(dict(DEFAULTS), [
        "ofdm.n_fft=128", "scenario.snr_db=7.5", "io.dump_grids=off",
        "detector.mode=real_part",
    ])
    assert got["ofdm.n_fft"] == 128
    assert got["scenario.snr_db"] == 7.5
    assert got["io.dump_grids"] is False
    assert got["detector.mode"] == "real_part"
    with pytest.raises(ConfigurationError):
        apply_overrides(dict(DEFAULTS), ["ofdm.n_fft=sixty_four"])
    with pytest.raises(ConfigurationError):
        apply_overrides(dict(DEFAULTS), ["io.dump_grids=maybe"])
    with pytest.raises(ConfigurationError):
        apply_overrides(dict(DEFAULTS), ["bad_format"])


def test_target_kind_and_genie_parsing():
    def kind(value):
        cfg_map = resolve_config(overrides=[f"scenario.kind={value}"])
        return scenario_from(cfg_map | {"scenario.f_cfo_hz": 0.0}).kind

    assert kind("false").value == "false"
    assert kind("real").value == "real"
    with pytest.raises(ConfigurationError,
                       match=r"^scenario.kind must be one of \['false', 'real'\], "
                             "got 'imaginary'$"):
        kind("imaginary")
    assert genie_flags_from({"mc.genie": "estimated"}) == [False]
    assert genie_flags_from({"mc.genie": "genie"}) == [True]
    assert genie_flags_from({"mc.genie": "both"}) == [False, True]
    with pytest.raises(ConfigurationError):
        genie_flags_from({"mc.genie": "sometimes"})


def test_snr_list_parsing():
    assert snr_list_from({"mc.snr_db_list": "9"}) == [9.0]
    assert snr_list_from({"mc.snr_db_list": "3, 6,9.5"}) == [3.0, 6.0, 9.5]
    with pytest.raises(ConfigurationError):
        snr_list_from({"mc.snr_db_list": "9,banana"})
    with pytest.raises(ConfigurationError):
        snr_list_from({"mc.snr_db_list": ""})


def test_manifest_round_trip(tmp_path):
    cfg_map = resolve_config()
    write_manifest(tmp_path, "roc", cfg_map, master_seed=3,
                   outputs=["out/roc.csv"])
    back = json.loads((tmp_path / "manifest.json").read_text())
    assert back["subcommand"] == "roc"
    assert back["master_seed"] == 3
    assert back["outputs"] == ["out/roc.csv"]
    assert back["config"]["ofdm.n_fft"] == 64
    assert back["version"]
    assert "T" in back["timestamp"]


def test_default_keys_build_the_dataclass_defaults():
    cfg_map = resolve_config()
    assert ofdm_config_from(cfg_map) == build_config()
    assert scenario_from(cfg_map) == Scenario(kind=TargetKind.FALSE_TARGET)


def test_defaults_keep_every_key_value_and_type():
    expected = {
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
        "detector.mode": "amplitude",
        "detector.cfo_floor_hz": 1.0,
        "detector.gamma_prime": 0.0,
        "mc.n_trials": 2000,
        "mc.snr_db_list": "9,13",
        "mc.genie": "both",
        "io.dump_grids": False,
    }
    assert list(DEFAULTS) == list(expected)
    assert DEFAULTS == expected
    assert {k: type(v) for k, v in DEFAULTS.items()} == {
        k: type(v) for k, v in expected.items()}


def test_readme_config_table_matches_defaults():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2  # past the --- row
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert [row[0] for row in rows] == list(DEFAULTS)
    for key, default, _meaning in rows:
        assert _coerce(key, default) == DEFAULTS[key], key
