"""Grid CSV exports: the shared writer against the per-element loops it
replaced, and the CLI dumps against the grids a trial scores."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from ofdmjrc.channel import write_grid_csv
from ofdmjrc.cli import _write_freq_csv
from ofdmjrc.configio import ofdm_config_from, resolve_config, scenario_from
from ofdmjrc.grids import SampleGrid
from ofdmjrc.montecarlo import trial_grids
from ofdmjrc.rdmap import RangeDopplerMap, write_rdmap_csv
from ofdmjrc.waveform import FrameSymbols, active_subcarriers, write_frame_csv

# -- the four per-element writers as they were before the shared writer ----


def _old_frame_csv(path, frame, k_idx):
    x = frame.x
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,m,re,im\n")
        for ki, k in enumerate(k_idx):
            for m in range(x.shape[1]):
                val = x[ki, m]
                fh.write(f"{int(k)},{m},{float(val.real)!r},{float(val.imag)!r}\n")


def _old_grid_csv(path, grid):
    y = grid.y
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("m,n,re,im\n")
        for m in range(y.shape[0]):
            for n in range(y.shape[1]):
                val = y[m, n]
                fh.write(f"{m},{n},{float(val.real)!r},{float(val.imag)!r}\n")


def _old_freq_csv(path, y_tilde):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,m,re,im\n")
        for ki in range(y_tilde.shape[0]):
            for m in range(y_tilde.shape[1]):
                val = y_tilde[ki, m]
                fh.write(f"{ki},{m},{float(val.real)!r},{float(val.imag)!r}\n")


def _old_rdmap_csv(path, rdm):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("delay_s,doppler_hz,magnitude\n")
        for d in range(rdm.magnitudes.shape[0]):
            for o in range(rdm.magnitudes.shape[1]):
                fh.write(f"{float(rdm.delay_axis_s[d])!r},"
                         f"{float(rdm.doppler_axis_hz[o])!r},"
                         f"{float(rdm.magnitudes[d, o])!r}\n")


# Values that stress repr: signed zero, a subnormal, both sides of the
# switch to exponent notation (1e-4 / 1e-5 and 1e15 / 1e16), integers
# held as floats, and ordinary noise.
EDGE = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-309, 1e-4, 1e-5,
                 -1e-5, 1e15, 1e16, -1e16, 3.0, -26.0, 0.1, 1 / 3])


def _plane(rng, shape):
    vals = rng.standard_normal(shape)
    flat = vals.reshape(-1)
    flat[:EDGE.size] = EDGE
    return vals


def _complex(rng, shape):
    return _plane(rng, shape) + 1j * _plane(rng, shape)[::-1, ::-1]


@pytest.fixture
def rng():
    return np.random.default_rng(20261018)


def _same_bytes(tmp_path, write_new, write_old):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_new(new)
    write_old(old)
    assert new.read_bytes() == old.read_bytes()


def test_frame_csv_matches_per_element_writer(tmp_path, rng):
    k_idx = np.concatenate([np.arange(-26, 0), np.arange(1, 27)])
    frame = FrameSymbols(x=_complex(rng, (k_idx.size, 5)))
    _same_bytes(tmp_path, lambda p: write_frame_csv(p, frame, k_idx),
                lambda p: _old_frame_csv(p, frame, k_idx))


def test_grid_csv_matches_per_element_writer(tmp_path, rng):
    grid = SampleGrid(y=_complex(rng, (4, 16)))
    _same_bytes(tmp_path, lambda p: write_grid_csv(p, grid),
                lambda p: _old_grid_csv(p, grid))


def test_freq_csv_matches_per_element_writer(tmp_path, rng):
    y_tilde = _complex(rng, (6, 5))
    _same_bytes(tmp_path, lambda p: _write_freq_csv(p, y_tilde),
                lambda p: _old_freq_csv(p, y_tilde))


def test_rdmap_csv_matches_per_element_writer(tmp_path, rng):
    rdm = RangeDopplerMap(magnitudes=np.abs(_plane(rng, (5, 4))),
                          delay_axis_s=EDGE[:5],
                          doppler_axis_hz=np.array([-1e16, -0.0, 1e-5, 1e15]),
                          zero_pad=1)
    _same_bytes(tmp_path, lambda p: write_rdmap_csv(p, rdm),
                lambda p: _old_rdmap_csv(p, rdm))


# -- CLI dumps are the grids run_trial scores --------------------------------


def _read_cells(path, header):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    rows = [line.split(",") for line in lines[1:]]
    labels = np.array([[int(r[0]), int(r[1])] for r in rows])
    values = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    return labels, values


def test_dumped_grids_parse_back_to_trial_grids(tmp_path):
    seed = 7
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ofdmjrc", "simulate",
         "--set", "io.dump_grids=true", "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    cfg_map = resolve_config(None, ["io.dump_grids=true"])
    cfg = ofdm_config_from(cfg_map)
    frame, noisy, fg = trial_grids(cfg, scenario_from(cfg_map, seed=seed))

    k, m = np.meshgrid(active_subcarriers(cfg), np.arange(cfg.m_symbols),
                       indexing="ij")
    labels, values = _read_cells(out / "frame.csv", "k,m,re,im")
    np.testing.assert_array_equal(labels, np.column_stack([k.ravel(), m.ravel()]))
    np.testing.assert_array_equal(values, frame.x.ravel())

    labels, values = _read_cells(out / "sample_grid.csv", "m,n,re,im")
    assert labels[-1].tolist() == [cfg.m_symbols - 1, cfg.n_fft - 1]
    np.testing.assert_array_equal(values, noisy.y.ravel())

    labels, values = _read_cells(out / "freq_grid.csv", "k,m,re,im")
    assert labels[-1].tolist() == [cfg.k_active - 1, cfg.m_symbols - 1]
    np.testing.assert_array_equal(values, fg.y_tilde.ravel())
