from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import ofdmjrc.rdmap
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
    _WORKING_VALUES,
    delay_axis_s,
    doppler_axis_hz,
    resolution_summary,
    write_rdmap_csv,
)
from ofdmjrc.waveform import C_LIGHT, grid_constants

# `python -c` imports the package from this checkout's src
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
_SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH", "")) if p))

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


# On the large grid the shipped bound's delay slices hold 16 rows, half a
# trial's 32, so every stack would end on a full slice; slices of 7 delay
# rows end it on a partial one and cut through each trial.
@pytest.mark.parametrize("numerology, delay_rows", [({}, None), (_LARGE, 7)],
                         ids=["default", "large"])
def test_stacked_peaks_over_several_coarse_slices_match_each_grid_alone(
        numerology, delay_rows, monkeypatch):
    cfg = build_config(**numerology)
    k, m = cfg.k_active, cfg.m_symbols
    bound = _WORKING_VALUES
    if delay_rows is not None:
        bound = delay_rows * cfg.n_fft * cfg.zero_pad
        monkeypatch.setattr(ofdmjrc.rdmap, "_WORKING_VALUES", bound)
    # (rows per trial, rows per slice) of the delay and Doppler searches
    searches = [(m, bound // (cfg.n_fft * cfg.zero_pad)),
                (k, bound // (m * cfg.zero_pad))]
    n = 2 * max(-(-step // rows) for rows, step in searches) + 1
    for rows, step in searches:  # several slices, the last one partial
        assert n * rows > 2 * step and (n * rows) % step
    grids = _noisy_freq_grids(cfg, n)
    zero = n // 2  # an all-zero grid is reported and costs the others nothing
    grids[zero] = FreqGrid(y_tilde=np.zeros((k, m), dtype=np.complex128))
    stacked, errors = extract_peak_observations(
        FreqGrid(y_tilde=np.stack([fg.y_tilde for fg in grids])), cfg)
    assert stacked.delay_obs_s.shape == (n, m)
    assert stacked.dopp_obs_hz.shape == (n, k)
    assert list(errors) == [zero] and isinstance(errors[zero], NoPeakError)
    assert str(errors[zero]) == "grid is identically zero; no peak to extract"
    assert np.all(np.isfinite(stacked.delay_obs_s[zero]))
    assert np.all(np.isfinite(stacked.dopp_obs_hz[zero]))
    for row, fg in enumerate(grids):
        if row != zero:
            alone, none = extract_peak_observations(fg, cfg)
            assert none == {}
            assert stacked.delay_obs_s[row].tobytes() == alone.delay_obs_s.tobytes()
            assert stacked.dopp_obs_hz[row].tobytes() == alone.dopp_obs_hz.tobytes()


# Runs five batch_size(cfg) batches through run_batch, with coarse slices
# of argv[1] values or the shipped bound, and prints the minor faults per
# trial that _coarse_peaks took in each.
_FAULTS_CODE = """
import json, resource, sys
from ofdmjrc import Scenario, TargetKind, build_config, rdmap, run_batch
from ofdmjrc.montecarlo import batch_size
if len(sys.argv) > 1:
    rdmap._WORKING_VALUES = int(sys.argv[1])
cfg = build_config()
n = batch_size(cfg)
coarse, faults = rdmap._coarse_peaks, [0]
def counted(*args):
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    try:
        return coarse(*args)
    finally:
        faults[0] += resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
rdmap._coarse_peaks = counted
per_call = []
for call in range(5):
    faults[0] = 0
    run_batch(cfg, [Scenario(kind=TargetKind.FALSE_TARGET, v_mps=10.0,
                             snr_db=(-5.0, 9.0)[i % 2], seed=100 * call + i)
                    for i in range(n)])
    per_call.append(faults[0] / n)
print(json.dumps(per_call))
"""


def _coarse_faults_per_trial(*bound: str) -> list[float]:
    proc = subprocess.run([sys.executable, "-c", _FAULTS_CODE, *bound],
                          capture_output=True, text=True, env=_SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    per_call = json.loads(proc.stdout)
    assert len(per_call) == 5
    return per_call[1:]


# The fault counts are glibc malloc's: another allocator keeps other pages.
@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's page reuse with Linux RUSAGE_THREAD")
def test_the_coarse_search_reuses_its_pages_across_batches():
    """Fresh interpreters, as cold as kept pool workers, run default sweep
    batches with the shipped slice bound and with 2^16-value slices. On
    one glibc 2.36 VM they took 5.9 and 76 faults per trial. The count
    follows the heap's history: on the 256/200/32 grid, and in loops of
    bare extract_peak_observations calls, it moved with nothing but the
    checkout's path, so that grid is not held here (see ROADMAP)."""
    shipped = _coarse_faults_per_trial()
    wide = _coarse_faults_per_trial(str(1 << 16))
    assert 4 * max(shipped) <= min(wide), (shipped, wide)


def test_peak_observations_recover_static_delay(cfg):
    sc = _real(r0=100.0)
    obs = extract_peak_observations(_clean_freq_grid(cfg, sc), cfg)[0]
    tau0 = 2.0 * sc.r0_m / C_LIGHT
    assert obs.delay_obs_s.shape == (cfg.m_symbols,)
    assert obs.dopp_obs_hz.shape == (cfg.k_active,)
    np.testing.assert_allclose(obs.delay_obs_s, tau0, atol=1e-12)
    np.testing.assert_allclose(obs.dopp_obs_hz, 0.0, atol=1.0)


def test_peak_observations_recover_pure_offset(cfg):
    obs = extract_peak_observations(_clean_freq_grid(cfg, _false(f_cfo=10e3)), cfg)[0]
    np.testing.assert_allclose(obs.dopp_obs_hz, 10e3, atol=1.0)


def test_peak_observations_track_negative_offset(cfg):
    obs = extract_peak_observations(_clean_freq_grid(cfg, _false(f_cfo=-7e3)), cfg)[0]
    np.testing.assert_allclose(obs.dopp_obs_hz, -7e3, atol=1.0)
    span = 1.0 / cfg.t_sym_s
    assert np.all(obs.dopp_obs_hz >= -span / 2) and np.all(obs.dopp_obs_hz < span / 2)


def test_peak_observations_need_signal(cfg):
    silent = FreqGrid(y_tilde=np.zeros((cfg.k_active, cfg.m_symbols),
                                       dtype=np.complex128))
    errors = extract_peak_observations(silent, cfg)[1]
    assert list(errors) == [0] and isinstance(errors[0], NoPeakError)
    assert str(errors[0]) == "grid is identically zero; no peak to extract"


def test_finer_zero_padding_does_not_hurt(cfg):
    # noiseless single target: refinement error is non-increasing as the
    # coarse grid doubles, up to solver tolerance
    sc = _real(r0=137.0)
    tau0 = 2.0 * sc.r0_m / C_LIGHT
    errs = []
    for zp in (2, 4, 8, 16):
        c = build_config(zero_pad=zp)
        obs = extract_peak_observations(_clean_freq_grid(c, sc), c)[0]
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
