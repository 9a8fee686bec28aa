from __future__ import annotations

import numpy as np
import pytest

from ofdmjrc import (
    ChannelGain,
    ConfigurationError,
    Decision,
    EstimationSetupError,
    Estimates,
    MODE_AMPLITUDE,
    MODE_REAL_PART,
    PipelineError,
    Scenario,
    TargetKind,
    TemplatePair,
    build_config,
    decide,
    fast_time_dft,
    generate_frame,
    glrt_statistic,
    remove_known_symbols,
    synth_target,
    synth_templates,
)
from ofdmjrc.detector import _templates as phase_templates
from ofdmjrc.waveform import C_LIGHT, active_subcarriers

_LARGE = dict(n_fft=256, k_active=200, n_pilot=24, m_symbols=32, zero_pad=4)


def _est(r0, v, f_cfo, hypothesis):
    return Estimates(r0_hat_m=r0, v_hat_mps=v, f_cfo_hat_hz=f_cfo,
                     residual_norm=0.0, hypothesis=hypothesis)


def _templates(cfg, r0=100.0, v=10.0, f_cfo=10e3):
    est0 = _est(r0, v, f_cfo, "h0")
    est1 = _est(r0, v, None, "h1")
    return synth_templates(cfg, est0, est1)


def test_templates_are_unit_norm(cfg):
    tp = _templates(cfg)
    n = cfg.k_active * cfg.m_symbols
    assert tp.u0.shape == (n,)
    assert tp.u1.shape == (n,)
    assert np.linalg.norm(tp.u0) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(tp.u1) == pytest.approx(1.0, rel=1e-12)


def test_templates_coincide_when_offset_is_zero(cfg):
    tp = _templates(cfg, r0=80.0, v=-15.0, f_cfo=0.0)
    assert np.array_equal(tp.u0, tp.u1)


def test_templates_coincide_at_zero_offset_on_the_large_grid():
    cfg = build_config(**_LARGE)
    tp = _templates(cfg, r0=80.0, v=-15.0, f_cfo=0.0)
    assert np.array_equal(tp.u0, tp.u1)


def _exp_templates(cfg, r0_m, v_mps, f_cfo_hz):
    """The template formula with one complex exp per element."""
    k_hz = active_subcarriers(cfg) * cfg.delta_f_hz
    m_t = np.arange(cfg.m_symbols) * cfg.t_sym_s
    r0_m, v_mps, f_cfo_hz = (np.asarray(a, dtype=np.float64)[:, None]
                             for a in (r0_m, v_mps, f_cfo_hz))
    f_slow = (cfg.f_c_hz + f_cfo_hz) * (2.0 * v_mps / C_LIGHT) + f_cfo_hz
    phase = (k_hz * ((2.0 * v_mps / C_LIGHT) * m_t - 2.0 * r0_m / C_LIGHT)[:, :, None]
             + (f_slow * m_t)[:, :, None])  # [n, m, k]
    u = np.exp(2j * np.pi * phase).reshape(phase.shape[0], -1)
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def test_power_templates_match_the_exp_formula_on_the_large_grid():
    cfg = build_config(**_LARGE)
    args = ([100.0, 37.5, 480.0, 2.0], [10.0, -100.0, 100.0, 0.0],
            [10e3, 0.0, -3.3e3, 150e3])
    np.testing.assert_allclose(phase_templates(cfg, *args),
                               _exp_templates(cfg, *args), rtol=1e-12)


def test_template_requires_offset_estimate(cfg):
    est1 = _est(100.0, 10.0, None, "h1")
    with pytest.raises(EstimationSetupError):
        synth_templates(cfg, est1, est1)


def test_degenerate_template_is_flat(cfg):
    tp = _templates(cfg, r0=0.0, v=0.0, f_cfo=0.0)
    n = cfg.k_active * cfg.m_symbols
    np.testing.assert_allclose(tp.u0, 1.0 / np.sqrt(n), rtol=1e-12)


def test_template_vectorization_matches_grid_layout(cfg):
    # element k + m*K of the template corresponds to grid cell [k, m]
    from ofdmjrc import FreqGrid
    from ofdmjrc import active_subcarriers

    r0, v, f_cfo = 60.0, 5.0, 3e3
    tp = _templates(cfg, r0=r0, v=v, f_cfo=f_cfo)
    k_idx = active_subcarriers(cfg)
    tau = 2.0 * r0 / C_LIGHT
    two_v_c = 2.0 * v / C_LIGHT
    f_slow = (cfg.f_c_hz + f_cfo) * two_v_c + f_cfo
    m_t = np.arange(cfg.m_symbols) * cfg.t_sym_s
    cells = np.exp(2j * np.pi * (
        np.outer(k_idx * cfg.delta_f_hz, two_v_c * m_t - tau)
        + f_slow * m_t[None, :]
    ))
    grid = FreqGrid(y_tilde=cells)
    flat = grid.vectorized()
    np.testing.assert_allclose(tp.u0, flat / np.linalg.norm(flat), rtol=1e-12)
    k, m = 17, 3
    assert flat[k + m * cfg.k_active] == cells[k, m]


def test_matched_template_captures_all_energy(cfg):
    # noiseless false-target echo projected on the true-parameter template
    sc = Scenario(kind=TargetKind.FALSE_TARGET, r0_m=100.0, v_mps=10.0,
                  f_cfo_hz=10e3, sigma_rcs_m2=1.0, snr_db=9.0, seed=0)
    frame = generate_frame(cfg, seed=4)
    gain = ChannelGain(g=0.8 - 0.4j, big_g=1.0, h_eff=0.8 - 0.4j)
    grid = synth_target(cfg, sc, frame, gain)
    fg = remove_known_symbols(fast_time_dft(grid, cfg), frame)
    z = fg.vectorized()
    tp = _templates(cfg, r0=sc.r0_m, v=sc.v_mps, f_cfo=sc.f_cfo_hz)
    assert abs(np.vdot(tp.u0, z)) == pytest.approx(np.linalg.norm(z), rel=1e-9)
    # statistic favors the real-target branch, so a matched offset drives it down
    t = glrt_statistic(z, tp, MODE_AMPLITUDE)
    assert t == pytest.approx(
        abs(np.vdot(tp.u1, z)) ** 2 - np.linalg.norm(z) ** 2, rel=1e-9)
    assert t < 0.0


def test_statistic_is_zero_for_identical_templates(cfg):
    tp = _templates(cfg, f_cfo=0.0)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(tp.u0.size) + 1j * rng.standard_normal(tp.u0.size)
    assert glrt_statistic(z, tp, MODE_AMPLITUDE) == 0.0
    assert glrt_statistic(z, tp, MODE_REAL_PART) == 0.0


def test_statistic_on_orthogonal_templates():
    u0 = np.zeros(8, dtype=np.complex128)
    u1 = np.zeros(8, dtype=np.complex128)
    u0[0] = 1.0
    u1[1] = 1.0
    tp = TemplatePair(u0=u0, u1=u1)
    z = 3.0 * u1
    assert glrt_statistic(z, tp, MODE_AMPLITUDE) == pytest.approx(9.0)
    assert glrt_statistic(3.0 * u0, tp, MODE_AMPLITUDE) == pytest.approx(-9.0)


def test_amplitude_statistic_ignores_global_phase(cfg):
    tp = _templates(cfg)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(tp.u0.size) + 1j * rng.standard_normal(tp.u0.size)
    base = glrt_statistic(z, tp, MODE_AMPLITUDE)
    scale = max(abs(base), np.linalg.norm(z) ** 2)
    for phi in (0.3, 1.7, np.pi, 5.1):
        rotated = glrt_statistic(z * np.exp(1j * phi), tp, MODE_AMPLITUDE)
        assert abs(rotated - base) <= 1e-12 * scale


def test_real_part_statistic_depends_on_phase(cfg):
    tp = _templates(cfg)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(tp.u0.size) + 1j * rng.standard_normal(tp.u0.size)
    vals = {round(glrt_statistic(z * np.exp(1j * phi), tp, MODE_REAL_PART), 9)
            for phi in (0.0, 1.0, 2.0, 3.0)}
    assert len(vals) > 1


def test_zero_threshold_decision_is_scale_invariant(cfg):
    tp = _templates(cfg)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(tp.u0.size) + 1j * rng.standard_normal(tp.u0.size)
    base = decide(glrt_statistic(z, tp, MODE_AMPLITUDE), 0.0).decision
    for a in (1e-3, 7.0, 1e4):
        scaled = decide(glrt_statistic(a * z, tp, MODE_AMPLITUDE), 0.0).decision
        assert scaled == base


def test_decide_maps_statistic_to_hypotheses():
    assert decide(0.5, 0.0).decision is Decision.H1_REAL_TARGET
    assert decide(-0.5, 0.0).decision is Decision.H0_FALSE_TARGET
    # boundary goes to the real-target branch
    assert decide(0.0, 0.0).decision is Decision.H1_REAL_TARGET
    assert decide(123.0, np.inf).decision is Decision.H0_FALSE_TARGET
    assert decide(-123.0, -np.inf).decision is Decision.H1_REAL_TARGET
    out = decide(2.0, 1.0)
    assert out.t_stat == 2.0
    assert out.threshold == 1.0


def test_decide_rejects_nan():
    with pytest.raises(PipelineError):
        decide(np.nan, 0.0)


def test_glrt_statistic_validates_inputs(cfg):
    tp = _templates(cfg)
    z = np.ones(tp.u0.size, dtype=np.complex128)
    with pytest.raises(ConfigurationError):
        glrt_statistic(z, tp, "maximum_vibes")
    with pytest.raises(PipelineError):
        glrt_statistic(z[:-1], tp, MODE_AMPLITUDE)


@pytest.mark.parametrize("numerology", ["default", "large"])
def test_stacked_templates_and_statistics_are_each_trial_alone(numerology):
    cfg = build_config(**({} if numerology == "default" else _LARGE))
    params = [(100.0, 10.0, 10e3), (80.0, -15.0, 0.0), (250.0, 99.0, -4e3)]
    est0s = [_est(r, v, f, "h0") for r, v, f in params]
    est1s = [_est(r + 1.0, v / 2, None, "h1") for r, v, _ in params]
    tp = synth_templates(cfg, Estimates.stack(est0s, "h0"),
                         Estimates.stack(est1s, "h1"))
    rng = np.random.default_rng(4)
    z = rng.standard_normal(tp.u0.shape) + 1j * rng.standard_normal(tp.u0.shape)
    t = glrt_statistic(z, tp, MODE_AMPLITUDE)
    for row, (e0, e1) in enumerate(zip(est0s, est1s)):
        single = synth_templates(cfg, e0, e1)
        assert np.array_equal(tp.u0[row], single.u0)
        assert np.array_equal(tp.u1[row], single.u1)
        assert t[row] == glrt_statistic(z[row], single, MODE_AMPLITUDE)


def test_templates_and_statistics_accept_zero_rows(cfg):
    tp = synth_templates(cfg, Estimates.stack([], "h0"), Estimates.stack([], "h1"))
    n = cfg.k_active * cfg.m_symbols
    assert tp.u0.shape == tp.u1.shape == (0, n)
    for mode in (MODE_AMPLITUDE, MODE_REAL_PART):
        assert glrt_statistic(np.zeros((0, n), np.complex128), tp, mode).shape == (0,)
