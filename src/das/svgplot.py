"""Minimal self-contained SVG scatter plots (no plotting dependency)."""

from __future__ import annotations

import numpy as np

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]


def scatter_svg(groups: list[tuple[str, np.ndarray]], title: str = "") -> str:
    """Render labelled 2D point groups into a 420-pixel square SVG document
    string, ``groups`` being ``(label, points)`` pairs with points of shape
    ``(n, 2)``.  The symmetric data window covers 1.1 times the 99.5th
    percentile of the absolute coordinates."""
    pts_all = np.concatenate([p for _, p in groups if len(p)], axis=0)
    extent = float(np.percentile(np.abs(pts_all), 99.5)) * 1.1 + 1e-9
    size = 420
    margin = 42
    span = size - 2 * margin

    def sx(v):
        return margin + (v + extent) / (2 * extent) * span

    def sy(v):
        return size - margin - (v + extent) / (2 * extent) * span

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{size / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for k, label in enumerate([f"-{extent:.3g}", f"{extent:.3g}"]):
        x = margin if k == 0 else size - margin
        out.append(
            f'<text x="{x}" y="{size - margin + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
    for idx, (label, pts) in enumerate(groups):
        color = PALETTE[idx % len(PALETTE)]
        out.append(f'<g fill="{color}" fill-opacity="0.55">')
        for x, y in np.asarray(pts, dtype=float):
            if abs(x) <= extent and abs(y) <= extent:
                out.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2"/>')
        out.append("</g>")
        ly = margin + 14 + 14 * idx
        out.append(f'<circle cx="{margin + 8}" cy="{ly - 4}" r="3" fill="{color}"/>')
        out.append(
            f'<text x="{margin + 16}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label} (n={len(pts)})</text>'
        )
    out.append("</svg>")
    return "\n".join(out)


def write_scatter(path, groups, title=""):
    with open(path, "w") as fh:
        fh.write(scatter_svg(groups, title=title))
