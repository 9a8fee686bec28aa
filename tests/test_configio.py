from __future__ import annotations

import json

import pytest

from ofdmjrc import ConfigurationError
from ofdmjrc.configio import (
    DEFAULTS,
    apply_overrides,
    genie_flags_from,
    load_config_file,
    make_manifest,
    ofdm_config_from,
    resolve_config,
    scenario_from,
    snr_list_from,
    target_kind_from,
    write_manifest,
)


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
    assert target_kind_from("false").value == "false"
    assert target_kind_from("real").value == "real"
    with pytest.raises(ConfigurationError):
        target_kind_from("imaginary")
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
    manifest = make_manifest("roc", cfg_map, master_seed=3,
                             outputs=["/tmp/roc.csv"])
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    back = json.loads(path.read_text())
    assert back["subcommand"] == "roc"
    assert back["master_seed"] == 3
    assert back["outputs"] == ["/tmp/roc.csv"]
    assert back["config"]["ofdm.n_fft"] == 64
    assert back["version"]
    assert "T" in back["timestamp"]
