"""Hand-rolled SVG rendering of ROC curves from the documented CSV schema.

No plotting dependency: the output is a static 640x480 SVG with one
polyline per (snr_db, genie) curve group on a fixed [0,1]x[0,1] frame.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .montecarlo import ROC_HEADER

WIDTH = 640
HEIGHT = 480
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 60
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def parse_roc_csv(path) -> dict[tuple[float, str], list[tuple[float, float]]]:
    """Group (p_fa, p_d) points by (snr_db, genie), validating per row.

    Raises ConfigurationError naming the offending 1-based row on any
    malformed line; a missing, empty or non-UTF-8 file is also an error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        raise ConfigurationError(f"csv not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines:
        raise ConfigurationError(f"{path}: row 1: empty file")
    if lines[0].strip() != ROC_HEADER:
        raise ConfigurationError(
            f"{path}: row 1: expected header {ROC_HEADER!r}, got {lines[0]!r}"
        )
    groups: dict[tuple[float, str], list[tuple[float, float]]] = {}
    for rowno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ConfigurationError(
                f"{path}: row {rowno}: expected 10 fields, got {len(parts)}"
            )
        try:
            snr = float(parts[0])
            genie = parts[1].strip()
            if genie not in ("true", "false"):
                raise ValueError(f"genie must be true/false, got {genie!r}")
            p_fa = float(parts[3])
            p_d = float(parts[4])
            int(parts[9])
        except ValueError as exc:
            raise ConfigurationError(f"{path}: row {rowno}: {exc}") from None
        if not (0.0 <= p_fa <= 1.0 and 0.0 <= p_d <= 1.0):
            raise ConfigurationError(
                f"{path}: row {rowno}: rates must lie in [0, 1], "
                f"got p_fa={p_fa}, p_d={p_d}"
            )
        groups.setdefault((snr, genie), []).append((p_fa, p_d))
    if not groups:
        raise ConfigurationError(f"{path}: no data rows")
    return groups


def _px(p_fa: float, p_d: float) -> tuple[float, float]:
    return MARGIN_L + p_fa * PLOT_W, MARGIN_T + (1.0 - p_d) * PLOT_H


def render_roc_svg(path, groups) -> None:
    """Write an SVG with one polyline per curve group, axes [0,1]^2."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.2f}" y="24" text-anchor="middle" '
        'font-family="sans-serif" font-size="16" fill="#202020">'
        'Detection ROC</text>',
    ]
    x0, y1 = _px(0.0, 0.0)
    x1, y0 = _px(1.0, 1.0)
    parts.append(
        f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{PLOT_W:.2f}" '
        f'height="{PLOT_H:.2f}" fill="none" stroke="#404040"/>'
    )
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y1:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" '
        'stroke="#c0c0c0" stroke-dasharray="3 3"/>'
    )
    for i in range(6):
        frac = i / 5.0
        xt, yb = _px(frac, 0.0)
        parts.append(
            f'<line x1="{xt:.2f}" y1="{yb:.2f}" x2="{xt:.2f}" '
            f'y2="{yb + 5:.2f}" stroke="#404040"/>'
        )
        parts.append(
            f'<text x="{xt:.2f}" y="{yb + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#202020">'
            f'{frac:.1f}</text>'
        )
        xl, yt = _px(0.0, frac)
        parts.append(
            f'<line x1="{xl - 5:.2f}" y1="{yt:.2f}" x2="{xl:.2f}" '
            f'y2="{yt:.2f}" stroke="#404040"/>'
        )
        parts.append(
            f'<text x="{xl - 9:.2f}" y="{yt + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#202020">'
            f'{frac:.1f}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + PLOT_W / 2:.2f}" y="{HEIGHT - 14}" '
        'text-anchor="middle" font-family="sans-serif" font-size="13" '
        'fill="#202020">false-alarm probability</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + PLOT_H / 2:.2f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13" fill="#202020" '
        f'transform="rotate(-90 18 {MARGIN_T + PLOT_H / 2:.2f})">'
        'detection probability</text>'
    )
    legend_y = MARGIN_T + 14
    for idx, ((snr, genie), points) in enumerate(groups.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="6 3"' if genie == "true" else ""
        pts = sorted(points)
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (_px(*p) for p in pts))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash}/>'
        )
        label = f"{snr:g} dB " + ("genie" if genie == "true" else "estimated")
        lx = MARGIN_L + PLOT_W - 150
        parts.append(
            f'<line x1="{lx:.2f}" y1="{legend_y - 4:.2f}" x2="{lx + 26:.2f}" '
            f'y2="{legend_y - 4:.2f}" stroke="{color}" stroke-width="1.8"{dash}/>'
        )
        parts.append(
            f'<text x="{lx + 32:.2f}" y="{legend_y:.2f}" '
            f'font-family="sans-serif" font-size="11" fill="#202020">'
            f'{label}</text>'
        )
        legend_y += 16
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
