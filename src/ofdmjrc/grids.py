"""Shared 2D sample containers passed between the synthesis and receiver
stages, and the one CSV writer every grid export uses.

A container may carry leading axes in front of its two grid axes; the
receiver stages use them to process the grids of several trials in one
call."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class SampleGrid:
    """Slow-time by fast-time baseband samples y[..., m, n].

    ``sigma2`` records the variance of the complex noise actually
    injected into the grid, 0.0 for a noiseless grid.
    """

    y: np.ndarray
    sigma2: float = 0.0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.complex128)
        if self.y.ndim < 2:
            raise ValueError("sample grid must be [..., m_symbols, n_fft]")
        self.sigma2 = float(self.sigma2)


@dataclass(eq=False)
class FreqGrid:
    """Active-subcarrier by slow-time samples y_tilde[..., k, m] after
    known-symbol removal."""

    y_tilde: np.ndarray

    def __post_init__(self):
        self.y_tilde = np.asarray(self.y_tilde, dtype=np.complex128)
        if self.y_tilde.ndim < 2:
            raise ValueError("frequency grid must be [..., k_active, m_symbols]")

    def vectorized(self) -> np.ndarray:
        """Flatten each grid to z[..., k + m*K]: subcarrier index fastest."""
        y = self.y_tilde
        return np.swapaxes(y, -1, -2).reshape(*y.shape[:-2], -1)


def write_cells_csv(path, header: str, rows, cols, *planes) -> None:
    """Write 2D arrays as one CSV line ``row,col,value...`` per cell.

    ``rows`` and ``cols`` label axis 0 and axis 1 of every plane. Labels
    and values are written with repr (Python ints and floats), so floats
    round-trip exactly. Each label is formatted once per axis, and the
    file is written one row at a time.
    """
    cols = [repr(c) for c in np.asarray(cols).tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(np.asarray(rows).tolist()):
            lead = f"{row!r},"
            cells = zip(cols, *(map(repr, p[i].tolist()) for p in planes))
            fh.write("".join(lead + ",".join(c) + "\n" for c in cells))
