from __future__ import annotations

import pytest

from ofdmjrc import ConfigurationError
from ofdmjrc.svgplot import parse_roc_csv, render_roc_svg

_HEADER = "snr_db,genie,gamma,p_fa,p_d,p_fa_lo,p_fa_hi,p_d_lo,p_d_hi,n_trials\n"


def _write(tmp_path, body):
    path = tmp_path / "roc.csv"
    path.write_text(_HEADER + body)
    return path


def test_parse_groups_by_snr_and_genie(tmp_path):
    path = _write(tmp_path,
                  "9.0,false,-inf,1.0,1.0,0.9,1.0,0.9,1.0,10\n"
                  "9.0,false,0.0,0.4,0.9,0.3,0.5,0.8,0.95,10\n"
                  "13.0,true,0.0,0.2,0.99,0.1,0.3,0.9,1.0,10\n")
    groups = parse_roc_csv(path)
    assert set(groups) == {(9.0, "false"), (13.0, "true")}
    assert groups[(9.0, "false")] == [(1.0, 1.0), (0.4, 0.9)]


def test_parse_names_a_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="not found: .*nope.csv"):
        parse_roc_csv(tmp_path / "nope.csv")


def test_parse_rejects_bad_header(tmp_path):
    path = tmp_path / "roc.csv"
    path.write_text("wrong,header\n9.0,false\n")
    with pytest.raises(ConfigurationError) as exc:
        parse_roc_csv(path)
    assert "row 1" in str(exc.value)


def test_parse_rejects_wrong_field_count(tmp_path):
    path = _write(tmp_path, "9.0,false,0.0,0.5\n")
    with pytest.raises(ConfigurationError) as exc:
        parse_roc_csv(path)
    assert "row 2" in str(exc.value)


def test_parse_rejects_out_of_range_rates(tmp_path):
    path = _write(tmp_path, "9.0,false,0.0,1.5,0.9,0.0,1.0,0.0,1.0,10\n")
    with pytest.raises(ConfigurationError) as exc:
        parse_roc_csv(path)
    assert "row 2" in str(exc.value)


def test_parse_rejects_unknown_genie_flag(tmp_path):
    path = _write(tmp_path, "9.0,perhaps,0.0,0.5,0.9,0.0,1.0,0.0,1.0,10\n")
    with pytest.raises(ConfigurationError):
        parse_roc_csv(path)


def test_parse_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "roc.csv"
    path.write_bytes(_HEADER.encode() + b"9.0,\xe9t\xe9\n")
    with pytest.raises(ConfigurationError, match="not UTF-8") as exc:
        parse_roc_csv(path)
    assert str(path) in str(exc.value)


def test_parse_rejects_empty_body(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(ConfigurationError):
        parse_roc_csv(path)


def test_render_puts_curves_in_pixel_space(tmp_path):
    groups = {
        (9.0, "false"): [(0.0, 0.0), (0.5, 0.8), (1.0, 1.0)],
        (9.0, "true"): [(0.0, 0.0), (1.0, 1.0)],
    }
    path = tmp_path / "roc.svg"
    render_roc_svg(path, groups)
    svg = path.read_text()
    assert svg.lstrip().startswith("<svg")
    assert svg.count("<polyline") == 2  # one curve per (snr, genie) group
    assert "<line" in svg  # dashed diagonal guide
    # unit-square corners in pixel coordinates
    assert "70.00,420.00" in svg
    assert "620.00,40.00" in svg
    # genie curve is dashed, legend names both series
    assert "6 3" in svg
    assert "genie" in svg
    assert "estimated" in svg
