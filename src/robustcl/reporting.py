"""Artifact emission: CKA grids as CSV / PGM / SVG, probe CSVs, and a
collated markdown report with pass/fail badges."""

from __future__ import annotations

import os

import numpy as np

from .analysis import CKAMatrix

# 8-stop viridis-like ramp, dark to bright
_RAMP = [
    (68, 1, 84), (70, 50, 127), (54, 92, 141), (39, 127, 142),
    (31, 161, 135), (74, 194, 109), (159, 218, 58), (253, 231, 37),
]


def _ramp_color(v: float) -> tuple:
    v = min(max(v, 0.0), 1.0)
    pos = v * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    t = pos - i
    a, b = _RAMP[i], _RAMP[i + 1]
    return tuple(int(round(a[k] + (b[k] - a[k]) * t)) for k in range(3))


def write_cka_csv(matrix: CKAMatrix, path) -> None:
    """Square grid with layer-id header row/column; masked cells are empty."""
    with open(path, "w") as f:
        f.write("," + ",".join(matrix.col_layers) + "\n")
        for i, rid in enumerate(matrix.row_layers):
            cells = []
            for j in range(len(matrix.col_layers)):
                cells.append("" if matrix.mask[i, j] else repr(float(matrix.values[i, j])))
            f.write(rid + "," + ",".join(cells) + "\n")


def write_cka_pgm(matrix: CKAMatrix, path) -> None:
    """8-bit grayscale PGM; value v maps to round(255*v), masked cells to 0."""
    h, w = matrix.values.shape
    vals = np.where(matrix.mask, 0.0, np.clip(matrix.values, 0.0, 1.0))
    pixels = np.round(vals * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(pixels.tobytes())


def write_cka_svg(matrix: CKAMatrix, path) -> None:
    """SVG heatmap with axis labels, 32 px a cell; masked cells are hatched."""
    h, w = matrix.values.shape
    margin, cell = 110, 32
    width, height = margin + w * cell, margin + h * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    parts.append('<defs><pattern id="hatch" width="6" height="6" '
                 'patternUnits="userSpaceOnUse">'
                 '<path d="M0,6 L6,0" stroke="#888" stroke-width="1"/></pattern></defs>')
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    for i in range(h):
        for j in range(w):
            x, y = margin + j * cell, i * cell + 10
            if matrix.mask[i, j]:
                fill = "url(#hatch)"
                title = "masked (degenerate layer)"
            else:
                r, g, b = _ramp_color(matrix.values[i, j])
                fill = f"rgb({r},{g},{b})"
                title = f"{matrix.values[i, j]:.3f}"
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{fill}" stroke="#333" stroke-width="0.5">'
                         f'<title>{title}</title></rect>')
    for i, rid in enumerate(matrix.row_layers):
        parts.append(f'<text x="{margin - 6}" y="{i * cell + 10 + cell * 0.65}" '
                     f'text-anchor="end" font-size="10">{rid}</text>')
    for j, cid in enumerate(matrix.col_layers):
        x = margin + j * cell + cell * 0.5
        y = h * cell + 24
        parts.append(f'<text x="{x}" y="{y}" text-anchor="end" font-size="10" '
                     f'transform="rotate(-45 {x} {y})">{cid}</text>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts))


def write_cka_grid(matrix: CKAMatrix, path_base) -> list:
    """Write the grid as <path_base>.csv, .pgm and .svg; returns the paths."""
    paths = [f"{path_base}.{ext}" for ext in ("csv", "pgm", "svg")]
    for write, path in zip((write_cka_csv, write_cka_pgm, write_cka_svg), paths):
        write(matrix, path)
    return paths


def write_divergence_csv(matrix: CKAMatrix, path) -> None:
    """Each layer's clean-vs-adversarial CKA: the diagonal of a clean-adv grid."""
    with open(path, "w") as f:
        f.write("layer_id,cka_clean_adv\n")
        for lid, v in zip(matrix.row_layers, matrix.diagonal()):
            f.write(f"{lid},{float(v)!r}\n")


def append_probe_csv(result, path) -> None:
    """ProbeResult rows appended to probes.csv (header on first write)."""
    new = not os.path.exists(path)
    with open(path, "a") as f:
        if new:
            f.write("layer_id,train_accuracy,test_accuracy,n_samples\n")
        f.write(f"{result.layer_id},{result.train_accuracy!r},"
                f"{result.test_accuracy!r},{result.n_samples}\n")


def write_report(output_dir, results_rows=None, heatmap_svgs=None, badges=None) -> str:
    """Collate results, heatmaps, and directional-check badges into one
    markdown report with the SVGs embedded inline."""
    lines = ["# Experiment report", ""]
    if badges:
        lines.append("## Directional checks")
        lines.append("")
        for name, ok, detail in badges:
            mark = "PASS" if ok else "FAIL"
            lines.append(f"- **[{mark}]** {name}: {detail}")
        lines.append("")
    if results_rows:
        lines.append("## Results")
        lines.append("")
        cols = list(results_rows[0].keys())
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "---|" * len(cols))
        for row in results_rows:
            lines.append("| " + " | ".join(str(row[c]) for c in cols) + " |")
        lines.append("")
    if heatmap_svgs:
        lines.append("## CKA heatmaps")
        lines.append("")
        for name, svg_path in heatmap_svgs:
            lines.append(f"### {name}")
            with open(svg_path) as f:
                lines.append(f.read())
            lines.append("")
    path = os.path.join(output_dir, "report.md")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path
