from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmjrc import (
    C_LIGHT,
    ConfigurationError,
    active_subcarriers,
    build_config,
    generate_frame,
    idft_modulate,
)
from ofdmjrc.waveform import QPSK_ALPHABET, pilot_positions, write_frame_csv


def test_default_numerology_is_exact():
    cfg = build_config()
    assert cfg.n_fft == 64
    assert cfg.k_active == 52
    assert cfg.m_symbols == 10
    assert cfg.n_fft * cfg.delta_f_hz == 20e6  # sample rate
    assert cfg.t_sym_s == 3.2e-6
    # the symbol time is the exact reciprocal of the grid spacing
    assert cfg.t_sym_s * cfg.delta_f_hz == 1.0


def test_build_config_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        build_config(delta_f_hz=0.0)
    with pytest.raises(ConfigurationError):
        build_config(n_fft=48)
    with pytest.raises(ConfigurationError):
        build_config(k_active=51)
    with pytest.raises(ConfigurationError):
        build_config(k_active=64)
    with pytest.raises(ConfigurationError):
        build_config(n_pilot=53)
    with pytest.raises(ConfigurationError):
        build_config(m_symbols=1)
    with pytest.raises(ConfigurationError):
        build_config(zero_pad=0)
    with pytest.raises(ConfigurationError):
        build_config(peak_refine_tol=0.0)


@pytest.mark.parametrize("field", ["delta_f_hz", "f_c_hz", "v_max_mps"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_build_config_rejects_non_finite_values(field, value):
    with pytest.raises(ConfigurationError, match=field):
        build_config(**{field: value})


_INT_FIELDS = ["n_fft", "k_active", "n_pilot", "m_symbols", "zero_pad"]


@pytest.mark.parametrize("field", _INT_FIELDS)
@pytest.mark.parametrize("kind", ["float", "bool"])
def test_build_config_rejects_non_integer_counts(field, kind):
    value = getattr(build_config(), field)
    bad = float(value) if kind == "float" else True
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        build_config(**{field: bad})


@pytest.mark.parametrize("field", _INT_FIELDS)
def test_build_config_takes_numpy_integer_counts(field):
    value = getattr(build_config(), field)
    assert build_config(**{field: np.int64(value)}) == build_config()


_REAL_FIELDS = ["delta_f_hz", "f_c_hz", "v_max_mps", "peak_refine_tol"]


@pytest.mark.parametrize("field", _REAL_FIELDS)
@pytest.mark.parametrize("bad", ["312.5e3", None, True, 1j])
def test_build_config_rejects_a_float_field_that_is_not_a_real_number(field, bad):
    with pytest.raises(ConfigurationError) as info:
        build_config(**{field: bad})
    assert str(info.value) == f"{field} must be a real number, got {bad!r}"


@pytest.mark.parametrize("field", _REAL_FIELDS)
def test_build_config_takes_integer_and_numpy_reals(field):
    value = getattr(build_config(), field)
    assert build_config(**{field: np.float64(value)}) == build_config()
    if float(value).is_integer():
        assert build_config(**{field: int(value)}) == build_config()


def test_build_config_rejects_a_fractional_zero_pad():
    with pytest.raises(ConfigurationError, match="zero_pad must be an integer, got 2.5"):
        build_config(zero_pad=2.5)


def test_build_config_enforces_narrowband_margin():
    # max Doppler shift across the band must stay well under one bin spacing
    limit = build_config().delta_f_hz * C_LIGHT / (10.0 * 2.0 * 5e9)
    build_config(v_max_mps=limit * 0.99)
    with pytest.raises(ConfigurationError):
        build_config(v_max_mps=limit * 1.01)


def test_active_subcarriers_skip_dc(cfg):
    idx = active_subcarriers(cfg)
    expected = np.concatenate([np.arange(-26, 0), np.arange(1, 27)])
    assert np.array_equal(idx, expected)
    assert 0 not in idx


def test_pilot_subcarriers_default_layout(cfg):
    pilots = active_subcarriers(cfg)[pilot_positions(cfg)]
    assert len(pilots) == cfg.n_pilot
    assert set(pilots) == {-26, -21, -17, -12, -7, -3, 3, 7, 12, 17, 21, 26}
    assert set(pilots) <= set(active_subcarriers(cfg).tolist())


def test_generate_frame_is_deterministic(cfg):
    a = generate_frame(cfg, seed=7)
    b = generate_frame(cfg, seed=7)
    c = generate_frame(cfg, seed=8)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_frame_symbols_have_unit_modulus(cfg):
    frame = generate_frame(cfg, seed=3)
    assert frame.x.shape == (cfg.k_active, cfg.m_symbols)
    np.testing.assert_allclose(np.abs(frame.x), 1.0, rtol=0, atol=1e-12)


def test_frame_pilot_rows_are_ones(cfg):
    frame = generate_frame(cfg, seed=11)
    active = active_subcarriers(cfg)
    pilots = active_subcarriers(cfg)[pilot_positions(cfg)]
    rows = [int(np.flatnonzero(active == p)[0]) for p in pilots]
    assert np.array_equal(frame.x[rows, :], np.ones((len(rows), cfg.m_symbols)))


def test_frame_data_cells_come_from_qpsk_alphabet(cfg):
    frame = generate_frame(cfg, seed=5)
    active = active_subcarriers(cfg)
    pilots = set(active_subcarriers(cfg)[pilot_positions(cfg)])
    data_rows = [i for i, k in enumerate(active) if int(k) not in pilots]
    data = frame.x[data_rows, :]
    dist = np.abs(data[:, :, None] - QPSK_ALPHABET[None, None, :])
    assert np.all(dist.min(axis=2) < 1e-12)


def test_idft_single_tone_has_flat_modulus(cfg):
    frame = generate_frame(cfg, seed=0)
    x = np.zeros_like(frame.x)
    x[0, :] = 1.0  # subcarrier -26 only
    from dataclasses import replace

    grid = idft_modulate(replace(frame, x=x), cfg)
    np.testing.assert_allclose(
        np.abs(grid.y), 1.0 / np.sqrt(cfg.n_fft), rtol=1e-12
    )


def test_idft_round_trips_through_forward_dft(cfg):
    frame = generate_frame(cfg, seed=9)
    grid = idft_modulate(frame, cfg)
    spectrum = np.fft.fft(grid.y, axis=1, norm="ortho")
    active = active_subcarriers(cfg) % cfg.n_fft
    recovered = spectrum[:, active].T
    np.testing.assert_allclose(recovered, frame.x, atol=1e-10)
    # inactive bins carry nothing
    inactive = np.setdiff1d(np.arange(cfg.n_fft), active)
    np.testing.assert_allclose(spectrum[:, inactive], 0.0, atol=1e-12)


def test_idft_preserves_energy(cfg):
    frame = generate_frame(cfg, seed=13)
    grid = idft_modulate(frame, cfg)
    sym_energy = np.sum(np.abs(grid.y) ** 2, axis=1)
    np.testing.assert_allclose(sym_energy, float(cfg.k_active), rtol=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_idft_is_linear_in_the_frame(seed):
    cfg = build_config()
    from dataclasses import replace

    f1 = generate_frame(cfg, seed=seed)
    f2 = generate_frame(cfg, seed=seed + 1)
    summed = replace(f1, x=f1.x + 2.5j * f2.x)
    lhs = idft_modulate(summed, cfg).y
    rhs = idft_modulate(f1, cfg).y + 2.5j * idft_modulate(f2, cfg).y
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_write_frame_csv_round_trips(tmp_path, cfg):
    frame = generate_frame(cfg, seed=2)
    path = tmp_path / "frame.csv"
    write_frame_csv(path, frame, active_subcarriers(cfg))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,m,re,im"
    assert len(lines) == 1 + cfg.k_active * cfg.m_symbols
    row = lines[1].split(",")
    assert int(row[0]) == -26 and int(row[1]) == 0
    assert complex(float(row[2]), float(row[3])) == frame.x[0, 0]
