from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ofdmjrc import (
    ChannelGain,
    DivisionGuardError,
    FreqGrid,
    NoPeakError,
    PipelineError,
    SampleGrid,
    Scenario,
    TargetKind,
    build_config,
    extract_peak_observations,
    fast_time_dft,
    generate_frame,
    idft_modulate,
    range_doppler_map,
    remove_known_symbols,
    synth_target,
)
from ofdmjrc.montecarlo import trial_grids
from ofdmjrc.rdmap import (
    _SLICE_VALUES,
    delay_axis_s,
    doppler_axis_hz,
    resolution_summary,
    write_rdmap_csv,
)
from ofdmjrc.waveform import C_LIGHT, grid_constants

_UNIT_GAIN = ChannelGain(g=1.0, big_g=1.0, h_eff=1.0)
_LARGE = dict(n_fft=256, k_active=200, n_pilot=24, m_symbols=32, zero_pad=4)


def _real(r0=100.0, v=0.0):
    return Scenario(kind=TargetKind.REAL_TARGET, r0_m=r0, v_mps=v, f_cfo_hz=0.0,
                    sigma_rcs_m2=1.0, snr_db=9.0, seed=0)


def _false(r0=100.0, v=0.0, f_cfo=10e3):
    return Scenario(kind=TargetKind.FALSE_TARGET, r0_m=r0, v_mps=v,
                    f_cfo_hz=f_cfo, sigma_rcs_m2=1.0, snr_db=9.0, seed=0)


def _clean_freq_grid(cfg, scenario, seed=0, gain=_UNIT_GAIN):
    frame = generate_frame(cfg, seed=seed)
    grid = synth_target(cfg, scenario, frame, gain)
    return remove_known_symbols(fast_time_dft(grid, cfg), frame)


def test_fast_time_dft_inverts_modulation(cfg):
    frame = generate_frame(cfg, seed=2)
    grid = idft_modulate(frame, cfg)
    y_f = fast_time_dft(grid, cfg)
    assert y_f.shape == (cfg.k_active, cfg.m_symbols)
    np.testing.assert_allclose(y_f, frame.x, atol=1e-10)


def test_fast_time_dft_rejects_wrong_shape(cfg):
    bad = SampleGrid(y=np.ones((cfg.m_symbols, cfg.n_fft + 1), dtype=np.complex128))
    with pytest.raises(PipelineError):
        fast_time_dft(bad, cfg)


def test_zero_grid_maps_to_zero_spectrum(cfg):
    silent = SampleGrid(y=np.zeros((cfg.m_symbols, cfg.n_fft), dtype=np.complex128))
    assert np.all(fast_time_dft(silent, cfg) == 0.0)


def test_static_echo_has_pure_delay_phase(cfg):
    sc = _real(r0=100.0)
    fg = _clean_freq_grid(cfg, sc, seed=5)
    tau0 = 2.0 * sc.r0_m / C_LIGHT
    from ofdmjrc import active_subcarriers

    k_idx = active_subcarriers(cfg)
    expected = np.exp(-2j * np.pi * k_idx * cfg.delta_f_hz * tau0)
    np.testing.assert_allclose(fg.y_tilde, expected[:, None] * np.ones(cfg.m_symbols),
                               rtol=1e-9)


def test_remove_known_symbols_is_an_involution(cfg):
    frame = generate_frame(cfg, seed=7)
    rng = np.random.default_rng(1)
    y_f = rng.standard_normal((cfg.k_active, cfg.m_symbols)) \
        + 1j * rng.standard_normal((cfg.k_active, cfg.m_symbols))
    fg = remove_known_symbols(y_f, frame)
    np.testing.assert_allclose(fg.y_tilde * frame.x, y_f, rtol=1e-12)


def test_remove_known_symbols_guards_small_divisors(cfg):
    from dataclasses import replace

    frame = generate_frame(cfg, seed=7)
    weak = replace(frame, x=frame.x * 1e-9)
    y_f = np.ones((cfg.k_active, cfg.m_symbols), dtype=np.complex128)
    with pytest.raises(DivisionGuardError):
        remove_known_symbols(y_f, weak)
    with pytest.raises(DivisionGuardError):
        remove_known_symbols(y_f[:, :-1], frame)


def test_map_axes_and_shape(cfg):
    fg = _clean_freq_grid(cfg, _real())
    rdm = range_doppler_map(fg, cfg)
    n_delay = cfg.n_fft * cfg.zero_pad
    n_dopp = cfg.m_symbols * cfg.zero_pad
    assert rdm.magnitudes.shape == (n_delay, n_dopp)
    assert rdm.delay_axis_s.shape == (n_delay,)
    assert rdm.doppler_axis_hz.shape == (n_dopp,)
    assert np.all(rdm.magnitudes >= 0.0)
    assert rdm.zero_pad == cfg.zero_pad
    # doppler axis is fftshifted: starts at -span/2, crosses zero mid-grid
    assert rdm.doppler_axis_hz[0] == pytest.approx(-0.5 / cfg.t_sym_s)
    assert rdm.doppler_axis_hz[n_dopp // 2] == 0.0
    assert delay_axis_s(cfg)[0] == 0.0


def test_map_peak_lands_on_expected_bins(cfg):
    sc = _real(r0=100.0)
    rdm = range_doppler_map(_clean_freq_grid(cfg, sc), cfg)
    d, o = np.unravel_index(np.argmax(rdm.magnitudes), rdm.magnitudes.shape)
    tau0 = 2.0 * sc.r0_m / C_LIGHT
    n_delay = cfg.n_fft * cfg.zero_pad
    assert d == round(tau0 * cfg.delta_f_hz * n_delay)  # bin 213 for 100 m
    assert o == (cfg.m_symbols * cfg.zero_pad) // 2  # zero Doppler
    peak_delay, peak_dopp = rdm.peak()
    assert peak_delay == pytest.approx(tau0, abs=rdm.delay_axis_s[1])
    assert peak_dopp == 0.0


def test_map_is_invariant_to_global_phase(cfg):
    fg = _clean_freq_grid(cfg, _false())
    rotated = FreqGrid(y_tilde=fg.y_tilde * np.exp(0.7j))
    a = range_doppler_map(fg, cfg).magnitudes
    b = range_doppler_map(rotated, cfg).magnitudes
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12 * float(a.max()))


def _noisy_freq_grids(cfg, n):
    """Symbol-removed grids of n trials, both truths at -5 and 9 dB."""
    return [trial_grids(cfg, replace((_false, _real)[i % 2](v=10.0),
                                     snr_db=(-5.0, 9.0)[(i // 2) % 2],
                                     seed=100 + i))[2]
            for i in range(n)]


@pytest.mark.parametrize("numerology", [{}, _LARGE], ids=["default", "large"])
def test_map_matches_the_delay_transform_along_the_subcarrier_axis(numerology):
    cfg = build_config(**numerology)
    fg = _noisy_freq_grids(cfg, 1)[0]
    ld, lm = cfg.n_fft * cfg.zero_pad, cfg.m_symbols * cfg.zero_pad
    buf = np.zeros((ld, cfg.m_symbols), dtype=np.complex128)
    buf[grid_constants(cfg).k_idx % ld, :] = fg.y_tilde
    delayed = np.fft.ifft(buf, axis=-2, norm="forward")
    ref = np.abs(np.fft.fftshift(np.fft.fft(delayed, n=lm, axis=-1), axes=-1))
    assert range_doppler_map(fg, cfg).magnitudes.tobytes() == ref.tobytes()


@pytest.mark.parametrize("numerology", [{}, _LARGE], ids=["default", "large"])
def test_stacked_peaks_over_several_coarse_slices_match_each_grid_alone(
        numerology):
    cfg = build_config(**numerology)
    k, m = cfg.k_active, cfg.m_symbols
    # (rows per trial, rows per slice) of the delay and Doppler searches
    searches = [(m, _SLICE_VALUES // (cfg.n_fft * cfg.zero_pad)),
                (k, _SLICE_VALUES // (m * cfg.zero_pad))]
    n = 2 * max(-(-step // rows) for rows, step in searches) + 1
    for rows, step in searches:  # several slices, the last one partial
        assert n * rows > 2 * step and (n * rows) % step
    grids = _noisy_freq_grids(cfg, n)
    stacked = extract_peak_observations(
        FreqGrid(y_tilde=np.stack([fg.y_tilde for fg in grids])), cfg)
    assert stacked.delay_obs_s.shape == (n, m)
    assert stacked.dopp_obs_hz.shape == (n, k)
    for row, fg in enumerate(grids):
        alone = extract_peak_observations(fg, cfg)
        assert stacked.delay_obs_s[row].tobytes() == alone.delay_obs_s.tobytes()
        assert stacked.dopp_obs_hz[row].tobytes() == alone.dopp_obs_hz.tobytes()


def test_peak_observations_recover_static_delay(cfg):
    sc = _real(r0=100.0)
    obs = extract_peak_observations(_clean_freq_grid(cfg, sc), cfg)
    tau0 = 2.0 * sc.r0_m / C_LIGHT
    assert obs.delay_obs_s.shape == (cfg.m_symbols,)
    assert obs.dopp_obs_hz.shape == (cfg.k_active,)
    np.testing.assert_allclose(obs.delay_obs_s, tau0, atol=1e-12)
    np.testing.assert_allclose(obs.dopp_obs_hz, 0.0, atol=1.0)


def test_peak_observations_recover_pure_offset(cfg):
    obs = extract_peak_observations(_clean_freq_grid(cfg, _false(f_cfo=10e3)), cfg)
    np.testing.assert_allclose(obs.dopp_obs_hz, 10e3, atol=1.0)


def test_peak_observations_track_negative_offset(cfg):
    obs = extract_peak_observations(_clean_freq_grid(cfg, _false(f_cfo=-7e3)), cfg)
    np.testing.assert_allclose(obs.dopp_obs_hz, -7e3, atol=1.0)
    span = 1.0 / cfg.t_sym_s
    assert np.all(obs.dopp_obs_hz >= -span / 2) and np.all(obs.dopp_obs_hz < span / 2)


def test_peak_observations_need_signal(cfg):
    silent = FreqGrid(y_tilde=np.zeros((cfg.k_active, cfg.m_symbols),
                                       dtype=np.complex128))
    with pytest.raises(NoPeakError):
        extract_peak_observations(silent, cfg)


def test_finer_zero_padding_does_not_hurt(cfg):
    # noiseless single target: refinement error is non-increasing as the
    # coarse grid doubles, up to solver tolerance
    sc = _real(r0=137.0)
    tau0 = 2.0 * sc.r0_m / C_LIGHT
    errs = []
    for zp in (2, 4, 8, 16):
        c = build_config(zero_pad=zp)
        obs = extract_peak_observations(_clean_freq_grid(c, sc), c)
        errs.append(float(np.max(np.abs(obs.delay_obs_s - tau0))))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-12


def test_resolution_summary_values(cfg):
    summary = resolution_summary(cfg)
    occupied = cfg.k_active * cfg.delta_f_hz
    assert summary["range_resolution_active_m"] == pytest.approx(
        C_LIGHT / (2 * occupied), rel=1e-12)
    assert summary["range_resolution_full_m"] == pytest.approx(
        C_LIGHT / (2 * cfg.n_fft * cfg.delta_f_hz), rel=1e-12)
    assert summary["doppler_resolution_hz"] == pytest.approx(
        1.0 / (cfg.m_symbols * cfg.t_sym_s), rel=1e-12)
    assert summary["unambiguous_range_m"] == pytest.approx(
        C_LIGHT * cfg.t_sym_s / 2, rel=1e-12)


def test_rdmap_csv_header(tmp_path, cfg):
    small = build_config(zero_pad=1)
    rdm = range_doppler_map(_clean_freq_grid(small, _real()), small)
    path = tmp_path / "rdmap.csv"
    write_rdmap_csv(path, rdm)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "delay_s,doppler_hz,magnitude"
    assert len(lines) == 1 + rdm.magnitudes.size
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) >= 0.0
