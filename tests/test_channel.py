from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ofdmjrc import (
    CalibrationError,
    ChannelGain,
    ConfigurationError,
    Scenario,
    SingularityError,
    TargetKind,
    add_awgn,
    draw_channel_gain,
    generate_frame,
    idft_modulate,
    path_loss_gain,
    synth_target,
    wavelength_m,
)
from ofdmjrc.channel import read_grid_bin, write_grid_bin, write_grid_csv
from ofdmjrc.waveform import C_LIGHT


def _false_scenario(**kw):
    base = dict(kind=TargetKind.FALSE_TARGET, r0_m=100.0, v_mps=10.0,
                f_cfo_hz=10e3, sigma_rcs_m2=1.0, snr_db=9.0, seed=0)
    base.update(kw)
    return Scenario(**base)


def _real_scenario(**kw):
    base = dict(kind=TargetKind.REAL_TARGET, r0_m=100.0, v_mps=10.0,
                f_cfo_hz=0.0, sigma_rcs_m2=1.0, snr_db=9.0, seed=0)
    base.update(kw)
    return Scenario(**base)


def test_wavelength_at_5ghz():
    assert wavelength_m(5e9) == pytest.approx(0.0599584916, rel=1e-9)
    with pytest.raises(SingularityError):
        wavelength_m(0.0)


def test_path_loss_fourth_power_law():
    lam = 0.06
    g1 = path_loss_gain(lam, 1.0, 1.0)
    g2 = path_loss_gain(lam, 1.0, 2.0)
    assert g1 == pytest.approx(lam**2 / (64.0 * np.pi**3), rel=1e-12)
    assert g1 == pytest.approx(1.8142e-6, rel=1e-3)
    assert g2 == pytest.approx(g1 / 16.0, rel=1e-12)
    assert path_loss_gain(lam, 1.0, 100.0) == pytest.approx(1.8142e-14, rel=1e-3)


def test_path_loss_underflows_to_zero_beyond_float_range():
    # 1e80**4 is beyond float range; the gain is what it underflows to
    assert path_loss_gain(0.06, 1.0, 1e80) == 0.0
    assert path_loss_gain(0.06, 1.0, 1e77) < 1e-300


def test_path_loss_rejects_degenerate_inputs():
    with pytest.raises(SingularityError):
        path_loss_gain(0.06, 1.0, 0.0)
    with pytest.raises(SingularityError):
        path_loss_gain(0.06, -1.0, 10.0)
    with pytest.raises(SingularityError):
        path_loss_gain(0.0, 1.0, 10.0)


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        _real_scenario(f_cfo_hz=100.0)
    with pytest.raises(ConfigurationError):
        _false_scenario(r0_m=0.0)
    with pytest.raises(ConfigurationError):
        _false_scenario(sigma_rcs_m2=-1.0)
    with pytest.raises(ConfigurationError):
        _false_scenario(seed=-1)
    assert _real_scenario().f_cfo_hz == 0.0
    assert replace(_false_scenario(), seed=5).seed == 5


@pytest.mark.parametrize("field", ["r0_m", "v_mps", "f_cfo_hz",
                                   "sigma_rcs_m2", "snr_db"])
def test_scenario_rejects_nan(field):
    with pytest.raises(ConfigurationError, match=field):
        _false_scenario(**{field: np.nan})


def test_scenario_rejects_infinite_values_but_noiseless_snr():
    for field in ("r0_m", "v_mps", "f_cfo_hz", "sigma_rcs_m2"):
        with pytest.raises(ConfigurationError, match=field):
            _false_scenario(**{field: np.inf})
    with pytest.raises(ConfigurationError, match="snr_db"):
        _false_scenario(snr_db=-np.inf)
    assert _false_scenario(snr_db=np.inf).snr_db == np.inf


def test_channel_gain_mean_square_is_calibrated(cfg):
    sc = _false_scenario()
    mags = np.empty(100_000)
    rng = np.random.default_rng(0)
    # draw_channel_gain accepts a generator, so one stream covers all draws
    for i in range(mags.size):
        mags[i] = abs(draw_channel_gain(1.0, sc, cfg, rng).g) ** 2
    assert mags.mean() == pytest.approx(1.0, abs=0.02)


def test_channel_gain_scales_and_phases(cfg):
    sc = _false_scenario()
    big_g = 1.8142e-14
    gain = draw_channel_gain(big_g, sc, cfg, seed=4)
    again = draw_channel_gain(big_g, sc, cfg, seed=4)
    assert gain.h_eff == again.h_eff
    assert abs(gain.h_eff) ** 2 == pytest.approx(abs(gain.g) ** 2 * big_g, rel=1e-12)
    tau0 = 2.0 * sc.r0_m / C_LIGHT
    expected_phase = -2.0 * np.pi * (cfg.f_c_hz + sc.f_cfo_hz) * tau0
    got = np.angle(gain.h_eff / gain.g)
    diff = (got - expected_phase + np.pi) % (2.0 * np.pi) - np.pi
    assert abs(diff) < 1e-9


def test_zero_path_loss_kills_the_echo(cfg):
    gain = draw_channel_gain(0.0, _false_scenario(), cfg, seed=1)
    assert gain.h_eff == 0.0


def test_false_target_without_offset_equals_real_target(cfg):
    frame = generate_frame(cfg, seed=6)
    gain = ChannelGain(g=0.7 - 0.2j, big_g=1.0, h_eff=0.7 - 0.2j)
    fake = _false_scenario(f_cfo_hz=0.0, v_mps=25.0)
    real = _real_scenario(v_mps=25.0)
    y_fake = synth_target(cfg, fake, frame, gain)
    y_real = synth_target(cfg, real, frame, gain)
    assert np.array_equal(y_fake.y, y_real.y)


def test_static_nearby_target_reduces_to_plain_modulation(cfg):
    # zero velocity, zero offset, negligible delay: channel acts as identity
    frame = generate_frame(cfg, seed=8)
    gain = ChannelGain(g=1.0, big_g=1.0, h_eff=1.0)
    sc = _real_scenario(r0_m=1e-9, v_mps=0.0)
    grid = synth_target(cfg, sc, frame, gain)
    clean = idft_modulate(frame, cfg)
    np.testing.assert_allclose(grid.y, clean.y, atol=1e-9)


def _repeated_symbol_frame(cfg, seed):
    # same payload on every symbol, so slow-time structure is channel-only
    frame = generate_frame(cfg, seed=seed)
    x = np.tile(frame.x[:, :1], (1, cfg.m_symbols))
    return replace(frame, x=x)


def test_static_target_symbols_repeat(cfg):
    # rows agree to machine precision; bit identity across symbols is not
    # promised because the synthesis matmul may accumulate per column
    frame = _repeated_symbol_frame(cfg, seed=8)
    gain = ChannelGain(g=1.0, big_g=1.0, h_eff=1.0)
    grid = synth_target(cfg, _real_scenario(v_mps=0.0), frame, gain)
    for m in range(1, cfg.m_symbols):
        np.testing.assert_allclose(grid.y[m], grid.y[0], rtol=0.0, atol=1e-14)


def test_offset_only_scenario_steps_phase_per_symbol(cfg):
    frame = _repeated_symbol_frame(cfg, seed=8)
    gain = ChannelGain(g=1.0, big_g=1.0, h_eff=1.0)
    sc = _false_scenario(v_mps=0.0, f_cfo_hz=10e3)
    grid = synth_target(cfg, sc, frame, gain)
    step = np.exp(2j * np.pi * sc.f_cfo_hz * cfg.t_sym_s)
    for m in range(1, cfg.m_symbols):
        np.testing.assert_allclose(grid.y[m], grid.y[m - 1] * step, rtol=1e-9)


def test_echo_is_linear_in_channel_gain(cfg):
    frame = generate_frame(cfg, seed=3)
    g1 = ChannelGain(g=1.0, big_g=1.0, h_eff=1.0)
    g2 = ChannelGain(g=1.0, big_g=1.0, h_eff=-0.3 + 1.1j)
    sc = _false_scenario()
    y1 = synth_target(cfg, sc, frame, g1).y
    y2 = synth_target(cfg, sc, frame, g2).y
    np.testing.assert_allclose(y2, y1 * (-0.3 + 1.1j), rtol=1e-12)


def test_noiseless_echo_energy_matches_gain(cfg):
    frame = generate_frame(cfg, seed=3)
    h = 0.4 + 0.9j
    gain = ChannelGain(g=1.0, big_g=1.0, h_eff=h)
    grid = synth_target(cfg, _false_scenario(), frame, gain)
    energy = np.sum(np.abs(grid.y) ** 2)
    assert energy == pytest.approx(abs(h) ** 2 * cfg.k_active * cfg.m_symbols, rel=1e-9)


def test_add_awgn_infinite_snr_is_identity(cfg):
    frame = generate_frame(cfg, seed=1)
    grid = idft_modulate(frame, cfg)
    out = add_awgn(grid, np.inf, seed=0)
    assert np.array_equal(out.y, grid.y)
    assert out.sigma2 == 0.0


def test_add_awgn_noise_power_is_calibrated(cfg):
    frame = generate_frame(cfg, seed=1)
    grid = idft_modulate(frame, cfg)
    snr_db = 13.0
    out = add_awgn(grid, snr_db, seed=2)
    sig_power = np.mean(np.abs(grid.y) ** 2)
    assert out.sigma2 == pytest.approx(sig_power / 10 ** (snr_db / 10), rel=1e-12)
    noise = out.y - grid.y
    measured_db = 10 * np.log10(sig_power / np.mean(np.abs(noise) ** 2))
    assert measured_db == pytest.approx(snr_db, abs=0.3)


def test_add_awgn_is_deterministic(cfg):
    frame = generate_frame(cfg, seed=1)
    grid = idft_modulate(frame, cfg)
    a = add_awgn(grid, 9.0, seed=5)
    b = add_awgn(grid, 9.0, seed=5)
    c = add_awgn(grid, 9.0, seed=6)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_add_awgn_rejects_silent_grid(cfg):
    from ofdmjrc import SampleGrid

    silent = SampleGrid(y=np.zeros((cfg.m_symbols, cfg.n_fft), dtype=np.complex128))
    with pytest.raises(CalibrationError):
        add_awgn(silent, 9.0, seed=0)


def test_grid_binary_round_trip(tmp_path, cfg):
    frame = generate_frame(cfg, seed=4)
    grid = idft_modulate(frame, cfg)
    path = tmp_path / "grid.bin"
    write_grid_bin(path, grid)
    back = read_grid_bin(path)
    assert back.y.shape == grid.y.shape
    # storage is complex64, so round trip is close but not exact
    np.testing.assert_allclose(back.y, grid.y, atol=1e-6)


def test_grid_csv_header(tmp_path, cfg):
    frame = generate_frame(cfg, seed=4)
    grid = idft_modulate(frame, cfg)
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,n,re,im"
    assert len(lines) == 1 + cfg.m_symbols * cfg.n_fft


def test_grid_binary_rejects_a_payload_cut_inside_a_sample(tmp_path, cfg):
    grid = idft_modulate(generate_frame(cfg, seed=4), cfg)
    path = tmp_path / "grid.bin"
    write_grid_bin(path, grid)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ConfigurationError, match="grid.bin"):
        read_grid_bin(path)


def test_grid_binary_names_a_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="not found: .*nope.bin"):
        read_grid_bin(tmp_path / "nope.bin")
