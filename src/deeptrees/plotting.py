"""Deterministic SVG charts.

Pure string assembly: identical inputs give byte-identical files, with
no timestamps or library-version metadata. Line charts serve the
accuracy-versus-total-leaves figures; bar charts serve the impurity-gain
figures.
"""

import math
import sys

from .data_io import check_widths, make_dir, table_lines, write_text
from .errors import ConfigError, EmptyTable, MalformedRow

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 46
PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _coord(value: float) -> str:
    return f"{value:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.0f}" y="18" text-anchor="middle" font-size="13">{_esc(title)}</text>',
        ]

    def line(self, x1, y1, x2, y2, stroke="#333", width=1.0):
        self.parts.append(
            f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" y2="{_coord(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def text(self, x, y, content, anchor="middle", angle=None, size=11):
        transform = f' transform="rotate({angle} {_coord(x)} {_coord(y)})"' if angle else ""
        self.parts.append(
            f'<text x="{_coord(x)}" y="{_coord(y)}" text-anchor="{anchor}" '
            f'font-size="{size}"{transform}>{_esc(content)}</text>'
        )

    def polyline(self, points, stroke):
        coords = " ".join(f"{_coord(x)},{_coord(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'
        )

    def circle(self, x, y, r, fill):
        self.parts.append(f'<circle cx="{_coord(x)}" cy="{_coord(y)}" r="{r}" fill="{fill}"/>')

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{_coord(x)}" y="{_coord(y)}" width="{_coord(w)}" height="{_coord(h)}" fill="{fill}"/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _axis_range(values, pad_fraction=0.05):
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = (hi - lo) * pad_fraction
    lo, hi = lo - pad, hi + pad
    if not -math.inf < lo < hi < math.inf:  # widening near float's limits was lost or overflowed
        raise ConfigError(f"plot points {min(values)!r} to {max(values)!r} are too large to draw")
    return lo, hi


def _linear_ticks(lo, hi, count=5):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_chart(series, title, x_label, y_label, log_x=False) -> str:
    """series: list of (name, xs, ys) triples, drawn in order."""
    series = [(name, list(xs), list(ys)) for name, xs, ys in series]
    if not series or all(not xs for _, xs, _ in series):
        raise EmptyTable("no series to plot")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    try:
        finite = all(math.isfinite(float(v)) for v in xs_all + ys_all)
    except OverflowError:  # an integer past float range
        finite = False
    if not finite:
        raise ConfigError("plot points must be finite")
    if log_x:
        if min(xs_all) <= 0:
            raise ConfigError(f"log axis requires positive x values, got {min(xs_all)!r}")
        xs_all = [math.log10(x) for x in xs_all]
    x_lo, x_hi = _axis_range(xs_all)
    y_lo, y_hi = _axis_range(ys_all)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        value = math.log10(x) if log_x else x
        return MARGIN_L + (value - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    canvas = _Canvas(title)
    canvas.line(MARGIN_L, MARGIN_T, MARGIN_L, HEIGHT - MARGIN_B)
    canvas.line(MARGIN_L, HEIGHT - MARGIN_B, WIDTH - MARGIN_R, HEIGHT - MARGIN_B)
    if log_x:
        lo_dec = math.floor(x_lo)
        hi_dec = min(math.ceil(x_hi), sys.float_info.max_10_exp)  # 10.0**309 overflows
        ticks = [10.0**d for d in range(int(lo_dec), int(hi_dec) + 1)]
        for t in ticks:
            if x_lo <= math.log10(t) <= x_hi:
                canvas.line(px(t), HEIGHT - MARGIN_B, px(t), HEIGHT - MARGIN_B + 4)
                canvas.text(px(t), HEIGHT - MARGIN_B + 16, _fmt(t))
    else:
        for t in _linear_ticks(x_lo, x_hi):
            canvas.line(px(t), HEIGHT - MARGIN_B, px(t), HEIGHT - MARGIN_B + 4)
            canvas.text(px(t), HEIGHT - MARGIN_B + 16, _fmt(t))
    for t in _linear_ticks(y_lo, y_hi):
        canvas.line(MARGIN_L - 4, py(t), MARGIN_L, py(t))
        canvas.text(MARGIN_L - 8, py(t) + 4, _fmt(t), anchor="end")
    canvas.text(MARGIN_L + plot_w / 2, HEIGHT - 10, x_label)
    canvas.text(16, MARGIN_T + plot_h / 2, y_label, angle=-90)
    for i, (name, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = sorted(zip(xs, ys))
        canvas.polyline([(px(x), py(y)) for x, y in pts], color)
        for x, y in pts:
            canvas.circle(px(x), py(y), 2.2, color)
        canvas.text(WIDTH - MARGIN_R - 8, MARGIN_T + 14 + 14 * i, name, anchor="end", size=10)
        canvas.rect(WIDTH - MARGIN_R - 80, MARGIN_T + 7 + 14 * i, 10, 8, color)
    return canvas.render()


def bar_chart(labels, values, title, x_label, y_label) -> str:
    if not labels:
        raise EmptyTable("no bars to plot")
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    y_lo = min(0.0, min(values))
    y_hi = max(max(values), 0.0)
    if y_lo == y_hi:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    canvas = _Canvas(title)
    canvas.line(MARGIN_L, MARGIN_T, MARGIN_L, HEIGHT - MARGIN_B)
    canvas.line(MARGIN_L, HEIGHT - MARGIN_B, WIDTH - MARGIN_R, HEIGHT - MARGIN_B)
    for t in _linear_ticks(y_lo, y_hi):
        canvas.line(MARGIN_L - 4, py(t), MARGIN_L, py(t))
        canvas.text(MARGIN_L - 8, py(t) + 4, _fmt(t), anchor="end")
    slot = plot_w / len(labels)
    bar_w = slot * 0.7
    for i, (label, value) in enumerate(zip(labels, values)):
        x = MARGIN_L + i * slot + (slot - bar_w) / 2
        top = py(max(value, 0.0))
        height = abs(py(value) - py(0.0))
        canvas.rect(x, top, bar_w, height, PALETTE[0])
        canvas.text(x + bar_w / 2, HEIGHT - MARGIN_B + 16, str(label), size=9)
    canvas.text(MARGIN_L + plot_w / 2, HEIGHT - 10, x_label)
    canvas.text(16, MARGIN_T + plot_h / 2, y_label, angle=-90)
    return canvas.render()


def _slug(text) -> str:
    out = []
    for ch in str(text):
        out.append(ch if ch.isalnum() else "-")
    return "".join(out).strip("-")


# The columns each kind of chart reads, and how a table's cell converts.
CHART_COLUMNS = {
    "sim": {"subject": str, "model": str, "total_leaves": int, "test_accuracy": float},
    "gini": {"subject": str, "layer": int, "feature": int, "cut": int, "gain": float},
    "uci": {"subject": str, "model": str, "tree_size": int, "total_trees": int, "test_accuracy": float},
}


# Accuracy charts: kind -> (x column, the columns whose values name a series).
ACCURACY_CHARTS = {"sim": ("total_leaves", ("model",)), "uci": ("total_trees", ("model", "tree_size"))}


def table_rows(text: str, kind) -> list:
    """Rows of a result table's CSV text, with the columns a chart of this
    kind reads converted. EmptyTable for no header; MalformedRow names the
    line of a missing column, a row of the wrong width or a bad cell."""
    lines = table_lines(text)
    header_no, header = next(lines, (None, None))
    if header is None:
        raise EmptyTable("empty result table")
    columns = CHART_COLUMNS[kind]
    for key in columns:
        if key not in header:
            raise MalformedRow(f"a {kind} table needs a {key!r} column", header_no)
    rows = []
    for line_no, values in check_widths(lines, len(header)):
        row = dict(zip(header, values))
        for key, convert in columns.items():
            try:
                row[key] = convert(row[key])
            except ValueError:
                raise MalformedRow(f"{key} {row[key]!r} is not a number", line_no) from None
        rows.append(row)
    return rows


def render_plots(rows, kind, out_dir) -> list:
    """Chart files for a result table; returns the written paths."""
    if not rows:
        raise EmptyTable("empty result table")
    charts = []  # (file name, svg)
    if kind in ACCURACY_CHARTS:
        x_column, key_columns = ACCURACY_CHARTS[kind]
        x_label = x_column.replace("_", " ")
        for subject in sorted({row["subject"] for row in rows}):
            sub = [r for r in rows if r["subject"] == subject]
            series = []
            # sorted by the key, not by its name: RF(8) comes before RF(16)
            for key in sorted({tuple(r[c] for c in key_columns) for r in sub}):
                cells = [r for r in sub if tuple(r[c] for c in key_columns) == key]
                series.append((
                    key[0] + "".join(f"({value})" for value in key[1:]),
                    [r[x_column] for r in cells],
                    [r["test_accuracy"] for r in cells],
                ))
            svg = line_chart(
                series, f"test accuracy vs {x_label} ({subject})", x_label, "test accuracy",
                log_x=True,
            )
            charts.append((f"{kind}_{_slug(subject)}.svg", svg))
    elif kind == "gini":
        for subject, layer in sorted({(r["subject"], r["layer"]) for r in rows}):
            sub = [r for r in rows if r["subject"] == subject and r["layer"] == layer]
            sub.sort(key=lambda r: (r["feature"], r["cut"]))
            labels = [f"x{r['feature']}<={r['cut']}" for r in sub]
            values = [r["gain"] for r in sub]
            svg = bar_chart(
                labels, values, f"impurity gain ({subject}, layer {layer})", "split", "gain"
            )
            charts.append((f"gini_{_slug(subject)}_layer{layer}.svg", svg))
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    out_dir = make_dir(out_dir)
    for name, svg in charts:
        write_text(out_dir / name, svg)
    return [out_dir / name for name, _ in charts]
