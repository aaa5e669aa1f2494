"""Deterministic CSV and SVG emitters for attention maps and saliency."""
from __future__ import annotations

import numpy as np

from .errors import ShapeError

CELL = 8  # side of one heatmap cell in SVG pixels


def format_cell(value) -> str:
    """Round-trippable text for one CSV cell: repr for floats, str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header: list, rows: list) -> None:
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def matrix_csv(path, matrix: np.ndarray, row_label: str) -> None:
    """Matrix with a leading row-index column and col0..colN-1 header."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {matrix.shape}")
    header = [row_label] + [f"col{j}" for j in range(matrix.shape[1])]
    rows = [[i] + [float(v) for v in matrix[i]] for i in range(matrix.shape[0])]
    write_csv(path, header, rows)


def _ramp(value: float) -> str:
    # black at 0 to amber at 1
    r = int(round(255 * value))
    g = int(round(191 * value))
    return f"#{r:02x}{g:02x}00"


def save_heatmap(path, matrix: np.ndarray) -> None:
    """Min-max normalized SVG heatmap, one rect per cell; constant input paints black."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {matrix.shape}")
    lo, hi = matrix.min(), matrix.max()
    norm = (matrix - lo) / (hi - lo) if hi > lo else np.zeros_like(matrix)
    n_rows, n_cols = matrix.shape
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{n_cols * CELL}" '
           f'height="{n_rows * CELL}" shape-rendering="crispEdges">')
    cells = (f'<rect x="{j * CELL}" y="{i * CELL}" width="{CELL}" height="{CELL}" '
             f'fill="{_ramp(float(norm[i, j]))}"/>' for i in range(n_rows) for j in range(n_cols))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([svg, *cells, "</svg>"]) + "\n")
