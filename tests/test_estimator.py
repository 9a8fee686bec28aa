from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmjrc import (
    EstimationSetupError,
    IllConditionedError,
    ObservationVector,
    build_config,
    build_design_matrices,
    estimate_h0,
    estimate_h1,
)
from ofdmjrc import active_subcarriers, synth_templates
from ofdmjrc.estimator import ScaledLs, bounded_fits
from ofdmjrc.waveform import C_LIGHT


def _obs_from_params(cfg, dm, r0, v, f_cfo):
    # forward model of the linearized observation stack
    theta = np.array([r0, v, f_cfo])
    f = np.column_stack([dm.a2, dm.a1]) @ theta
    return ObservationVector(f=f, n_delay=cfg.m_symbols, n_doppler=cfg.k_active)


def test_design_matrix_layout(cfg):
    dm = build_design_matrices(cfg)
    n = cfg.m_symbols + cfg.k_active
    assert dm.a2.shape == (n, 2)
    assert dm.a1.shape == (n,)
    # offset column touches only the Doppler rows
    assert np.all(dm.a1[:cfg.m_symbols] == 0.0)
    assert np.all(dm.a1[cfg.m_symbols:] == 1.0)
    # first delay row: round trip range slope, no velocity term at m=0
    assert dm.a2[0, 0] == pytest.approx(2.0 / C_LIGHT, rel=1e-15)
    assert dm.a2[0, 1] == 0.0
    # delay rows pick up a velocity term growing linearly in symbol index
    steps = dm.a2[1:cfg.m_symbols, 1] / np.arange(1, cfg.m_symbols)
    np.testing.assert_allclose(steps, -cfg.t_sym_s * 2.0 / C_LIGHT, rtol=1e-12)
    # Doppler rows have no range term
    assert np.all(dm.a2[cfg.m_symbols:, 0] == 0.0)


def test_doppler_rows_average_to_carrier_slope(cfg):
    dm = build_design_matrices(cfg)
    mean_slope = dm.a2[cfg.m_symbols:, 1].mean()
    # active subcarriers are symmetric, so the band terms cancel in the mean
    assert mean_slope == pytest.approx(2.0 * cfg.f_c_hz / C_LIGHT, rel=1e-12)
    assert mean_slope == pytest.approx(33.356, rel=1e-4)
    k_idx = active_subcarriers(cfg)
    expected = 2.0 * (cfg.f_c_hz + k_idx * cfg.delta_f_hz) / C_LIGHT
    np.testing.assert_allclose(dm.a2[cfg.m_symbols:, 1], expected, rtol=1e-12)


def test_build_design_matrices_needs_enough_rows():
    tiny = build_config(m_symbols=2)
    build_design_matrices(tiny)  # smallest legal case works
    with pytest.raises(EstimationSetupError):
        from dataclasses import replace

        build_design_matrices(replace(tiny, m_symbols=1))


def test_offset_fit_recovers_exact_linear_observations(cfg):
    dm = build_design_matrices(cfg)
    obs = _obs_from_params(cfg, dm, r0=100.0, v=10.0, f_cfo=10e3)
    est = estimate_h0(obs, dm)
    assert est.hypothesis == "h0"
    assert est.r0_hat_m == pytest.approx(100.0, rel=1e-5)
    assert est.v_hat_mps == pytest.approx(10.0, rel=1e-6)
    assert est.f_cfo_hat_hz == pytest.approx(10e3, rel=1e-6)
    assert est.residual_norm < 1e-6


def test_no_offset_fit_recovers_real_target(cfg):
    dm = build_design_matrices(cfg)
    obs = _obs_from_params(cfg, dm, r0=250.0, v=-30.0, f_cfo=0.0)
    est = estimate_h1(obs, dm)
    assert est.hypothesis == "h1"
    assert est.f_cfo_hat_hz is None
    assert est.r0_hat_m == pytest.approx(250.0, rel=1e-5)
    assert est.v_hat_mps == pytest.approx(-30.0, rel=1e-6)
    assert est.residual_norm < 1e-6


def test_offset_fit_handles_full_cross_term(cfg):
    # observations built with the exact (not linearized) Doppler cross term
    dm = build_design_matrices(cfg)
    r0, v, f_cfo = 100.0, 10.0, 10e3
    k_idx = active_subcarriers(cfg)
    m_idx = np.arange(cfg.m_symbols)
    two_v_c = 2.0 * v / C_LIGHT
    delays = 2.0 * r0 / C_LIGHT - two_v_c * m_idx * cfg.t_sym_s
    dopps = (cfg.f_c_hz + f_cfo) * two_v_c + f_cfo \
        + k_idx * cfg.delta_f_hz * two_v_c
    obs = ObservationVector(f=np.concatenate([delays, dopps]),
                            n_delay=cfg.m_symbols, n_doppler=cfg.k_active)
    est = estimate_h0(obs, dm)
    # cross term f_cfo*2v/c biases the offset by well under a hertz
    assert abs(est.f_cfo_hat_hz - f_cfo) < 0.01
    assert est.r0_hat_m == pytest.approx(r0, rel=1e-5)


def test_no_offset_fit_absorbs_offset_into_velocity(cfg):
    dm = build_design_matrices(cfg)
    obs = _obs_from_params(cfg, dm, r0=100.0, v=0.0, f_cfo=10e3)
    est = estimate_h1(obs, dm)
    ghost_v = 10e3 * C_LIGHT / (2.0 * cfg.f_c_hz)
    assert est.v_hat_mps == pytest.approx(ghost_v, rel=0.05)
    assert est.residual_norm > 0.0


def test_zero_observations_give_zero_estimates(cfg):
    dm = build_design_matrices(cfg)
    obs = ObservationVector(f=np.zeros(cfg.m_symbols + cfg.k_active),
                            n_delay=cfg.m_symbols, n_doppler=cfg.k_active)
    for est in (estimate_h0(obs, dm), estimate_h1(obs, dm)):
        assert est.r0_hat_m == 0.0
        assert est.v_hat_mps == 0.0
        assert est.residual_norm == 0.0


def test_nested_models_order_residuals(cfg):
    dm = build_design_matrices(cfg)
    rng = np.random.default_rng(42)
    n = cfg.m_symbols + cfg.k_active
    worst = np.inf
    for _ in range(200):
        f = np.concatenate([
            rng.uniform(0.0, cfg.t_sym_s, cfg.m_symbols),
            rng.normal(0.0, 50e3, cfg.k_active),
        ])
        obs = ObservationVector(f=f, n_delay=cfg.m_symbols, n_doppler=cfg.k_active)
        gap = estimate_h1(obs, dm).residual_norm - estimate_h0(obs, dm).residual_norm
        worst = min(worst, gap)
    # dropping a free parameter can never reduce the residual
    assert worst >= -1e-12


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=1e-9, max_value=1e6),
       seed=st.integers(min_value=0, max_value=2**16))
def test_residual_ordering_survives_scaling(scale, seed):
    cfg = build_config()
    dm = build_design_matrices(cfg)
    rng = np.random.default_rng(seed)
    f = scale * rng.standard_normal(cfg.m_symbols + cfg.k_active)
    obs = ObservationVector(f=f, n_delay=cfg.m_symbols, n_doppler=cfg.k_active)
    r0 = estimate_h0(obs, dm).residual_norm
    r1 = estimate_h1(obs, dm).residual_norm
    assert r1 >= r0 - 1e-9 * max(r1, 1.0)


def test_estimates_shift_with_observation_offsets(cfg):
    dm = build_design_matrices(cfg)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(cfg.m_symbols + cfg.k_active) * 1e-5
    obs_a = ObservationVector(f=f, n_delay=cfg.m_symbols, n_doppler=cfg.k_active)
    shift = 37.5
    obs_b = ObservationVector(f=f + dm.a2[:, 0] * shift,
                              n_delay=cfg.m_symbols, n_doppler=cfg.k_active)
    est_a = estimate_h0(obs_a, dm)
    est_b = estimate_h0(obs_b, dm)
    assert est_b.r0_hat_m - est_a.r0_hat_m == pytest.approx(shift, abs=1e-6)
    assert est_b.residual_norm == pytest.approx(est_a.residual_norm, rel=1e-6)


def test_solver_matches_normal_equations():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((24, 3))
    f = rng.standard_normal(24)
    theta, resid = ScaledLs(a).solve(f)
    direct = np.linalg.solve(a.T @ a, a.T @ f)
    np.testing.assert_allclose(theta, direct, rtol=1e-8)
    assert resid == pytest.approx(np.linalg.norm(f - a @ theta), rel=1e-12)


def test_solver_flags_rank_deficiency():
    col = np.arange(1.0, 13.0)
    a = np.column_stack([col, 2.0 * col])  # exactly collinear
    with pytest.raises(IllConditionedError) as exc:
        ScaledLs(a).solve(np.ones(12))
    assert exc.value.condition > 1e12


def test_observation_vector_validation(cfg):
    from ofdmjrc.rdmap import PeakObservations

    with pytest.raises(EstimationSetupError):
        ObservationVector.from_peaks(PeakObservations(
            delay_obs_s=np.array([]), dopp_obs_hz=np.array([1.0])))
    with pytest.raises(EstimationSetupError):
        ObservationVector.from_peaks(PeakObservations(
            delay_obs_s=np.array([1e-6]), dopp_obs_hz=np.array([np.nan])))
    dm = build_design_matrices(cfg)
    short = ObservationVector(f=np.zeros(5), n_delay=3, n_doppler=2)
    with pytest.raises(EstimationSetupError):
        estimate_h0(short, dm)


def test_from_peaks_round_trip(cfg):
    from ofdmjrc.rdmap import PeakObservations

    peaks = PeakObservations(delay_obs_s=np.full(cfg.m_symbols, 1e-6),
                             dopp_obs_hz=np.full(cfg.k_active, 5e3))
    obs = ObservationVector.from_peaks(peaks)
    assert obs.n_delay == cfg.m_symbols
    assert obs.n_doppler == cfg.k_active
    assert obs.f.shape == (cfg.m_symbols + cfg.k_active,)
    np.testing.assert_array_equal(obs.f[:cfg.m_symbols], 1e-6)
    np.testing.assert_array_equal(obs.f[cfg.m_symbols:], 5e3)


def _fits(cfg, r0, v, f_cfo):
    dm = build_design_matrices(cfg)
    obs = _obs_from_params(cfg, dm, r0, v, f_cfo)
    return obs, estimate_h0(obs, dm), estimate_h1(obs, dm)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bounded_fit_clamps_velocity_and_resolves_range_from_delay_rows(cfg,
                                                                        sign):
    # a 10 kHz offset read as velocity is about 300 m/s, past v_max
    obs, est0, est1 = _fits(cfg, 100.0, 0.0, sign * 10e3)
    assert abs(est1.v_hat_mps) > cfg.v_max_mps
    _, b1 = bounded_fits(cfg, obs, est0, est1, None, 1.0)
    assert b1.v_hat_mps == sign * cfg.v_max_mps
    # the delay rows hold 2R/c for every symbol; under v they read
    # R + v * mean(m * t_sym)
    m_t = np.arange(cfg.m_symbols) * cfg.t_sym_s
    assert b1.r0_hat_m == pytest.approx(
        100.0 + sign * cfg.v_max_mps * m_t.mean(), rel=1e-9)
    assert b1.r0_hat_m != pytest.approx(est1.r0_hat_m, rel=1e-9)
    # the Doppler rows do not enter the re-solved range
    f = obs.f.copy()
    f[cfg.m_symbols:] += sign * 500.0
    moved = ObservationVector(f=f, n_delay=obs.n_delay, n_doppler=obs.n_doppler)
    _, b1_moved = bounded_fits(cfg, moved, est0, est1, None, 1.0)
    assert b1_moved.r0_hat_m == b1.r0_hat_m
    assert (b1.f_cfo_hat_hz, b1.residual_norm) == (None, est1.residual_norm)


def test_bounded_fit_keeps_an_in_bound_geometry_bit_for_bit(cfg):
    obs, est0, est1 = _fits(cfg, 250.0, -30.0, 0.0)
    b0, b1 = bounded_fits(cfg, obs, est0, est1, None, 1.0)
    assert b1.r0_hat_m.hex() == est1.r0_hat_m.hex()
    assert b1.v_hat_mps.hex() == est1.v_hat_mps.hex()
    assert b1 == est1
    assert (b0.r0_hat_m, b0.v_hat_mps) == (b1.r0_hat_m, b1.v_hat_mps)
    assert (b0.residual_norm, b0.hypothesis) == (est0.residual_norm, "h0")


def test_an_offset_below_the_floor_is_exactly_zero(cfg):
    # at v = v_max, h1 cannot absorb the 0.5 Hz into a faster velocity
    obs, est0, est1 = _fits(cfg, 100.0, cfg.v_max_mps, 0.5)
    b0, b1 = bounded_fits(cfg, obs, est0, est1, None, 1.0)
    assert b0.f_cfo_hat_hz == 0.0
    tp = synth_templates(cfg, b0, b1)
    np.testing.assert_array_equal(tp.u0, tp.u1)
    # a floor below the offset lets it through
    b0, b1 = bounded_fits(cfg, obs, est0, est1, None, 0.1)
    assert b0.f_cfo_hat_hz == pytest.approx(0.5, abs=0.05)
    tp = synth_templates(cfg, b0, b1)
    assert not np.array_equal(tp.u0, tp.u1)


def test_genie_offsets_fit_the_geometry_with_that_offset_removed(cfg):
    r0, v, f_cfo = 100.0, 10.0, 10e3
    m_t = np.arange(cfg.m_symbols) * cfg.t_sym_s
    k_hz = active_subcarriers(cfg) * cfg.delta_f_hz
    two_v_c = 2.0 * v / C_LIGHT
    # exact Doppler, with the velocity-offset cross term
    f = np.concatenate([2.0 * r0 / C_LIGHT - two_v_c * m_t,
                        (cfg.f_c_hz + f_cfo + k_hz) * two_v_c + f_cfo])
    obs = ObservationVector(f=f, n_delay=cfg.m_symbols, n_doppler=cfg.k_active)
    dm = build_design_matrices(cfg)
    est0, est1 = estimate_h0(obs, dm), estimate_h1(obs, dm)
    _, b1 = bounded_fits(cfg, obs, est0, est1, None, 1.0)
    assert b1.v_hat_mps == cfg.v_max_mps  # h1 reads the offset as speed
    # a zero genie offset, of either sign, is h1's bounded geometry
    for zero in (0.0, -0.0):
        b0, _ = bounded_fits(cfg, obs, est0, est1, zero, 1.0)
        assert (b0.r0_hat_m, b0.v_hat_mps, b0.f_cfo_hat_hz) == (
            b1.r0_hat_m, b1.v_hat_mps, 0.0)
        assert np.copysign(1.0, b0.f_cfo_hat_hz) == 1.0
    # the true offset leaves the true geometry
    b0, _ = bounded_fits(cfg, obs, est0, est1, f_cfo, 1.0)
    assert b0.f_cfo_hat_hz == f_cfo
    assert b0.r0_hat_m == pytest.approx(r0, rel=1e-5)
    assert b0.v_hat_mps == pytest.approx(v, rel=1e-6)
