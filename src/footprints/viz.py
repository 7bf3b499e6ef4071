"""2D embeddings and SVG/CSV report artifacts.

The embedding is a sign-fixed PCA projection of the attribution matrix.
Labels and colors never depend on the embedding, only on the footprint
labels, read through the encoding constants of footprint.py. SVGs are
written by hand with fixed decimal formatting so identical inputs give
identical bytes.
"""

from __future__ import annotations

from html import escape
from typing import Callable, Mapping, Sequence

import numpy as np

from .csvio import KEY_COLUMNS, Key, format_csv
from .errors import ContractViolation
from .footprint import ALGORITHM_POOR, LABELS, MODEL_POOR
from .models import MODELS
from .shapley import global_importance

ALG_GOOD_COLOR = "#1f77b4"   # blue: good algorithm performance
ALG_POOR_COLOR = "#ffcc00"   # yellow: poor algorithm performance
LOW_VALUE_COLOR = (31, 119, 180)
HIGH_VALUE_COLOR = (214, 39, 40)

WIDTH = 640
HEIGHT = 480
MARGIN = 55.0


def embed_2d(phi: np.ndarray) -> np.ndarray:
    """The (n, 2) coordinates of the n rows of `phi`."""
    matrix = np.atleast_2d(np.asarray(phi, dtype=float))
    if matrix.shape[0] < 3:
        raise ContractViolation("embedding needs at least 3 rows")
    centered = matrix - matrix.mean(axis=0)
    if not np.any(centered):
        return np.zeros((matrix.shape[0], 2))
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = np.zeros((2, matrix.shape[1]))
    comps[: min(2, vt.shape[0])] = vt[:2]
    for r in range(2):
        j = int(np.argmax(np.abs(comps[r])))
        if comps[r, j] < 0:
            comps[r] = -comps[r]
    return centered @ comps.T


# ---------------------------------------------------------------------------
# SVG primitives

def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _scale(values: np.ndarray, out_lo: float, out_hi: float) -> np.ndarray:
    vmin, vmax = float(values.min()), float(values.max())
    if vmax - vmin <= 0:
        return np.full(values.shape, 0.5 * (out_lo + out_hi))
    return out_lo + (values - vmin) / (vmax - vmin) * (out_hi - out_lo)


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH / 2, "22", 14, title, anchor="middle"),
    ]


def _text(x: float, y: float | str, size: int, text: str, anchor: str = "",
          fill: str = "") -> str:
    """A sans-serif `<text>`; a str `y` is written as it is."""
    y = y if isinstance(y, str) else _fmt(y)
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    fill = f' fill="{fill}"' if fill else ""
    return (f'<text x="{_fmt(x)}" y="{y}" font-size="{size}"{anchor} '
            f'font-family="sans-serif"{fill}>{escape(text, quote=False)}</text>')


def _circle(x: float, y: float, color: str, r: float = 6.0) -> str:
    return (
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}" '
        f'stroke="#333333" stroke-width="0.8"/>'
    )


def _cross(x: float, y: float, color: str, r: float = 6.0) -> str:
    return (
        f'<path d="M {_fmt(x - r)} {_fmt(y - r)} L {_fmt(x + r)} {_fmt(y + r)} '
        f'M {_fmt(x - r)} {_fmt(y + r)} L {_fmt(x + r)} {_fmt(y - r)}" '
        f'stroke="{color}" stroke-width="3.0" fill="none"/>'
    )


def _value_color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    rgb = tuple(
        int(round(lo + (hi - lo) * v)) for lo, hi in zip(LOW_VALUE_COLOR, HIGH_VALUE_COLOR)
    )
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


# ---------------------------------------------------------------------------
# scatter plots over the embedding

def _scatter(
    keys: Sequence[Key],
    coords: np.ndarray,
    markers: Sequence[tuple[Callable[[float, float, str], str], str]],
    title: str,
    legend: Sequence[str],
) -> str:
    """An SVG with the (shape, color) marker of markers[i] and the problem id
    of keys[i] at row i of `coords`, scaled into the plot area, then the
    `legend` parts."""
    if len(keys) != len(coords):
        raise ContractViolation("one key per row required")
    xs = _scale(coords[:, 0], MARGIN, WIDTH - MARGIN)
    ys = _scale(-coords[:, 1], MARGIN + 20, HEIGHT - MARGIN - 40)
    parts = _svg_open(title)
    for key, (shape, color), x, y in zip(keys, markers, xs, ys):
        parts.append(shape(float(x), float(y), color))
        parts.append(_text(float(x) + 7, float(y) - 7, 10, str(key[0]), fill="#555555"))
    parts.extend(legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_footprint_plot(
    keys: Sequence[Key],
    coords: np.ndarray,
    label_of: Mapping[Key, int],
    title: str,
) -> str:
    """An SVG of the embedding `coords`, marked by the LABELS index
    label_of[keys[i]] of row i: a cross when the model is poor, yellow when
    the algorithm is."""
    missing = [key for key in keys if key not in label_of]
    if missing:
        raise ContractViolation(f"no assignment for embedded keys {missing}")
    markers = [
        (_cross if label_of[key] & MODEL_POOR else _circle,
         ALG_POOR_COLOR if label_of[key] & ALGORITHM_POOR else ALG_GOOD_COLOR)
        for key in keys
    ]
    ly = HEIGHT - 22.0
    return _scatter(keys, coords, markers, title, [
        _circle(MARGIN, ly, ALG_GOOD_COLOR, 5.0),
        _text(MARGIN + 10, ly + 4, 11, "algorithm good"),
        _circle(MARGIN + 140, ly, ALG_POOR_COLOR, 5.0),
        _text(MARGIN + 150, ly + 4, 11, "algorithm poor"),
        _cross(MARGIN + 280, ly, "#333333", 5.0),
        _text(MARGIN + 290, ly + 4, 11, "model poor (O = model good)"),
    ])


# ---------------------------------------------------------------------------
# beeswarm (top-k attribution spread)

def emit_beeswarm_data(
    keys: Sequence[Key],
    phi: np.ndarray,
    feature_names: Sequence[str],
    values: np.ndarray,
    top_k: int,
    title: str,
) -> tuple[str, str]:
    """CSV rows and a beeswarm SVG for the top-k most important features;
    row i of the (n, m) `phi` attributes keys[i] over `feature_names`, and
    row i of the (n, m) `values` holds that key's values of those features."""
    if top_k > len(feature_names):
        raise ContractViolation("top_k exceeds portfolio size")
    if np.shape(values) != np.shape(phi):
        raise ContractViolation(
            f"feature values of shape {np.shape(values)} do not match phi {np.shape(phi)}")
    ranking = global_importance(phi, feature_names)[:top_k]
    name_to_col = {name: i for i, name in enumerate(feature_names)}
    cols = [name_to_col[fname] for fname, _ in ranking]
    # rank-major: row r holds the attributions and normalized values of the
    # r-th ranked feature, one column per key
    ranked_phi = np.asarray(phi, dtype=float)[:, cols].T
    norm = np.array([_scale(values[:, col], 0.0, 1.0) for col in cols])

    table = format_csv(["feature_name", *KEY_COLUMNS, "phi", "normalized_value"],
                       ([fname, *key, p, v]
                        for (fname, _), p_row, v_row in zip(ranking, ranked_phi.tolist(),
                                                            norm.tolist())
                        for key, p, v in zip(keys, p_row, v_row, strict=True)))

    span = max(float(np.max(np.abs(ranked_phi))), 1e-12)
    row_h = (HEIGHT - 2 * MARGIN - 20) / top_k
    x0, x1 = MARGIN + 150, WIDTH - MARGIN
    mid = 0.5 * (x0 + x1)
    parts = _svg_open(title)
    parts.append(
        f'<line x1="{_fmt(mid)}" y1="{_fmt(MARGIN)}" x2="{_fmt(mid)}" '
        f'y2="{_fmt(HEIGHT - MARGIN - 20)}" stroke="#999999" stroke-width="1.0"/>'
    )
    for rank, (fname, _) in enumerate(ranking):
        yc = MARGIN + (rank + 0.5) * row_h
        parts.append(_text(x0 - 8, yc + 3, 10, fname, anchor="end"))
    stagger = (np.arange(ranked_phi.size).reshape(ranked_phi.shape) * 37 % 7 - 3) * row_h / 10.0
    x = mid + ranked_phi / span * (x1 - mid - 8)
    y = MARGIN + (np.arange(top_k)[:, None] + 0.5) * row_h + stagger
    for xc, yc, v in zip(x.ravel().tolist(), y.ravel().tolist(), norm.ravel().tolist()):
        parts.append(_circle(xc, yc, _value_color(v), 3.0))
    parts.append(_text(MARGIN, HEIGHT - 18.0, 11,
                       "x: attribution; color: feature value low (blue) to high (red)"))
    parts.append("</svg>")
    return table, "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# feature value over the embedding

def emit_feature_distribution(
    keys: Sequence[Key],
    coords: np.ndarray,
    feature_name: str,
    values: np.ndarray,
    title: str,
) -> str:
    """An SVG of the embedding `coords`, colored by `values[i]`, the value of
    `feature_name` on keys[i]."""
    if np.shape(values) != (len(keys),):
        raise ContractViolation(
            f"{np.shape(values)} values of {feature_name} for {len(keys)} keys")
    markers = [(_circle, _value_color(float(v))) for v in _scale(values, 0.0, 1.0)]
    return _scatter(keys, coords, markers, title, [
        _text(MARGIN, HEIGHT - 18.0, 11,
              f"{feature_name}: low (blue) to high (red), min-max over plotted set"),
    ])


# ---------------------------------------------------------------------------
# cluster membership table

EMPTY_CELL = "–"  # en dash


def emit_distribution_table(
    model_kind: str, fold_ids: np.ndarray, keys: Sequence[Key], labels: np.ndarray
) -> tuple[str, str]:
    """The problem ids of each LABELS column, per fold in fold order, for
    rows (fold_ids[i], keys[i], labels[i]) of one model; text table and
    CSV companion."""
    display = MODELS[model_kind][0]
    problems = np.array([key[0] for key in keys])
    header = ["model", "fold", *(f"({label.replace('_', ', ')})" for label in LABELS)]
    lines = [" | ".join(header)]
    rows = []
    for fold_id in np.unique(fold_ids).tolist():
        in_fold = fold_ids == fold_id
        cells = [", ".join(str(i) for i in sorted(problems[in_fold & (labels == label)].tolist()))
                 or EMPTY_CELL for label in range(len(LABELS))]
        lines.append(" | ".join([display, str(fold_id), *cells]))
        rows.append([display, fold_id, *cells])
    return "\n".join(lines) + "\n", format_csv(["model", "fold", *LABELS], rows)
