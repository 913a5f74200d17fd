"""Text rendering of benchmark results (figures without matplotlib).

The benchmark harness saves every regenerated table/figure as JSON under
``benchmarks/results/``.  This module turns those payloads back into
terminal-friendly charts — scatter plots for Pareto fronts (Fig. 7), line
charts for scaling curves (Fig. 3), and bar charts for per-task ratios
(Fig. 6) — so `python -m repro.reporting benchmarks/results` reproduces the
*figures*, not just the numbers, in any terminal.

It also renders **campaign telemetry**: ``repro report run.jsonl`` turns a
telemetry export (``repro tune --telemetry run.jsonl``) into the paper's
Table-3-style phase-time breakdown — phase seconds and percentages from the
recorded spans alone, a model/resilience event summary, and a consistency
check of the span sums against the campaign's final ``"stats"`` event.

All renderers are pure functions from data to strings, which also makes
them unit-testable.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "bar_chart",
    "line_chart",
    "scatter_plot",
    "phase_breakdown",
    "check_phase_stats",
    "render_campaign_report",
    "render_results_dir",
    "main",
]


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    width: int = 40,
    reference: Optional[float] = None,
) -> str:
    """Horizontal bar chart; an optional reference value is marked with '|'.

    Parameters
    ----------
    labels, values:
        Bar names and lengths (non-negative).
    width:
        Character budget for the longest bar.
    reference:
        Value to mark on every row (e.g. ratio = 1 in Fig. 6).
    """
    if len(labels) != len(values):
        raise ValueError("labels/values length mismatch")
    if not values:
        return f"{title}\n(empty)"
    vmax = max(max(values), reference or 0.0) or 1.0
    lw = max(len(str(l)) for l in labels)
    lines = [title] if title else []
    for lab, v in zip(labels, values):
        if v < 0:
            raise ValueError("bar values must be non-negative")
        n = int(round(v / vmax * width))
        bar = list("#" * n + " " * (width - n))
        if reference is not None:
            r = min(width - 1, int(round(reference / vmax * width)))
            bar[r] = "|"
        lines.append(f"{str(lab).rjust(lw)} {''.join(bar)} {v:.4g}")
    return "\n".join(lines)


def _axes(
    xs: Sequence[float], ys: Sequence[float], width: int, height: int
) -> Tuple[float, float, float, float]:
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    return x0, x1, y0, y1


def scatter_plot(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    title: str = "",
    width: int = 56,
    height: int = 18,
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Multi-series ASCII scatter plot; each series gets its own glyph.

    Parameters
    ----------
    series:
        Mapping ``name -> (xs, ys)``; up to 8 series (glyphs ``*o+x^#@%``).
    logx, logy:
        Log-scale an axis (requires positive coordinates).
    """
    glyphs = "*o+x^#@%"
    if len(series) > len(glyphs):
        raise ValueError(f"at most {len(glyphs)} series supported")
    allx, ally = [], []
    txd: Dict[str, Tuple[List[float], List[float]]] = {}
    for name, (xs, ys) in series.items():
        if len(xs) != len(ys):
            raise ValueError(f"series {name!r}: x/y length mismatch")
        fx = [math.log10(v) for v in xs] if logx else list(map(float, xs))
        fy = [math.log10(v) for v in ys] if logy else list(map(float, ys))
        txd[name] = (fx, fy)
        allx.extend(fx)
        ally.extend(fy)
    if not allx:
        return f"{title}\n(empty)"
    x0, x1, y0, y1 = _axes(allx, ally, width, height)
    grid = [[" "] * width for _ in range(height)]
    for gi, (name, (fx, fy)) in enumerate(txd.items()):
        g = glyphs[gi]
        for x, y in zip(fx, fy):
            c = min(width - 1, int((x - x0) / (x1 - x0) * (width - 1)))
            r = min(height - 1, int((y - y0) / (y1 - y0) * (height - 1)))
            grid[height - 1 - r][c] = g
    lines = [title] if title else []
    ymax_lbl = f"{(10**y1 if logy else y1):.3g}"
    ymin_lbl = f"{(10**y0 if logy else y0):.3g}"
    for i, row in enumerate(grid):
        prefix = ymax_lbl if i == 0 else (ymin_lbl if i == height - 1 else "")
        lines.append(f"{prefix:>9} |{''.join(row)}|")
    xmin_lbl = f"{(10**x0 if logx else x0):.3g}"
    xmax_lbl = f"{(10**x1 if logx else x1):.3g}"
    lines.append(f"{'':>9}  {xmin_lbl}{' ' * max(1, width - len(xmin_lbl) - len(xmax_lbl))}{xmax_lbl}")
    legend = "   ".join(f"{glyphs[i]} {name}" for i, name in enumerate(series))
    lines.append(f"{'':>9}  {legend}")
    return "\n".join(lines)


def line_chart(
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    title: str = "",
    width: int = 56,
    height: int = 14,
    logy: bool = False,
) -> str:
    """Shared-x multi-series chart (markers only; x must be increasing)."""
    pts = {name: (xs, ys) for name, ys in series.items()}
    return scatter_plot(pts, title=title, width=width, height=height, logy=logy)


# -- campaign telemetry report -------------------------------------------------

#: phase spans whose totals correspond 1:1 to TuneResult.stats wall times
PHASE_STATS_KEYS = {
    "phase.modeling": "modeling_time",
    "phase.search": "search_time",
    "phase.evaluation": "objective_wall_time",
}

#: resilience / model event kinds summarized by the campaign report
_SUMMARY_KINDS = (
    "retry",
    "timeout",
    "exception",
    "nonfinite",
    "eval-failure",
    "worker-death",
    "model-fit",
    "model-extend",
    "model-backend",
    "model-downgrade",
    "model-cache-hit",
    "model-cache-store",
    "search-mode",
    "checkpoint",
    "resume",
    "async-start",
    "async-drain",
    "async-stop",
)


def phase_breakdown(events) -> Dict[str, Dict[str, float]]:
    """Aggregate span durations per name from a telemetry event stream.

    Sums both individual ``"span"`` events (``dur_s`` field) and aggregated
    ``"span-summary"`` events (``count``/``total_s`` fields, emitted for
    hot-path spans like ``model.predict_tasks``).  Returns
    ``{name: {"count": n, "total_s": seconds}}``.
    """
    out: Dict[str, Dict[str, float]] = {}
    for ev in events:
        if ev.kind == "span":
            name, cnt = ev.fields.get("name"), 1
            dur = float(ev.fields.get("dur_s", 0.0))
        elif ev.kind == "span-summary":
            name, cnt = ev.fields.get("name"), int(ev.fields.get("count", 0))
            dur = float(ev.fields.get("total_s", 0.0))
        else:
            continue
        if not name:
            continue
        acc = out.setdefault(str(name), {"count": 0, "total_s": 0.0})
        acc["count"] += cnt
        acc["total_s"] += dur
    return out


def check_phase_stats(
    breakdown: Dict[str, Dict[str, float]],
    stats: Dict[str, float],
    tolerance: float = 0.05,
) -> Tuple[bool, List[str]]:
    """Compare span phase totals against the campaign's ``stats`` event.

    The gate compares the *sum* over the mapped phases
    (:data:`PHASE_STATS_KEYS`) against the sum of the corresponding stats
    wall times; per-phase deltas are reported as information only (a span
    around a microsecond-fast objective is dominated by its own overhead,
    so per-phase relative error is meaningless at that scale).  Returns
    ``(ok, lines)``; ``ok`` is False when the sums disagree by more than
    ``tolerance`` (relative) or when either side is missing.
    """
    lines: List[str] = []
    if not stats:
        return False, ["no 'stats' event in telemetry (campaign incomplete?)"]
    span_sum = 0.0
    stats_sum = 0.0
    for span_name, stats_key in PHASE_STATS_KEYS.items():
        s = breakdown.get(span_name, {}).get("total_s", 0.0)
        t = float(stats.get(stats_key, 0.0))
        span_sum += s
        stats_sum += t
        delta = abs(s - t)
        rel = delta / t if t > 0 else (0.0 if delta == 0 else math.inf)
        lines.append(
            f"{span_name:18s} spans {s:10.4f}s   stats.{stats_key} {t:10.4f}s   "
            f"delta {delta * 1e3:8.3f}ms"
        )
        _ = rel  # per-phase error is informational only; the gate is on sums
    if stats_sum <= 0:
        ok = span_sum <= 0 or span_sum < 1e-3
        rel_total = 0.0 if ok else math.inf
    else:
        rel_total = abs(span_sum - stats_sum) / stats_sum
        ok = rel_total <= tolerance
    lines.append(
        f"{'total':18s} spans {span_sum:10.4f}s   stats        {stats_sum:10.4f}s   "
        f"rel {rel_total * 100:6.2f}% ({'OK' if ok else f'>{tolerance * 100:.0f}% MISMATCH'})"
    )
    return ok, lines


def _render_async(events) -> str:
    """Queue-depth / straggler-wait summary of an async streaming campaign.

    Built from the ``"async-drain"`` events: each carries the drained batch
    size (``n``), the blocking wait before it (``wait_s`` — long waits are
    stragglers holding their slot), and the queue depth the drain started
    with (``inflight``).  Returns ``""`` for lockstep campaigns.
    """
    drains = [e for e in events if e.kind == "async-drain"]
    if not drains:
        return ""
    waits = [float(e.fields.get("wait_s", 0.0)) for e in drains]
    depths = [int(e.fields.get("inflight", 0)) for e in drains]
    batch = [int(e.fields.get("n", 0)) for e in drains]
    lines = ["async queue (from async-drain events)"]
    lines.append(
        f"{'drains':>18}  {len(drains)}   completions {sum(batch)}"
    )
    lines.append(
        f"{'queue depth':>18}  mean {sum(depths) / len(depths):.2f}   "
        f"max {max(depths)}"
    )
    lines.append(
        f"{'drain wait':>18}  mean {sum(waits) / len(waits):.4g}s   "
        f"max {max(waits):.4g}s   total {sum(waits):.4g}s"
    )
    for e in events:
        if e.kind == "async-stop":
            lines.append(
                f"{'lifetime':>18}  submitted {int(e.fields.get('submitted', 0))}"
                f"   completed {int(e.fields.get('completed', 0))}"
                f"   peak inflight {int(e.fields.get('peak_inflight', 0))}"
            )
    return "\n".join(lines)


def render_campaign_report(log, tolerance: float = 0.05) -> Tuple[str, bool]:
    """Render the Table-3-style report for one telemetry event log.

    Parameters
    ----------
    log:
        A :class:`~repro.observability.CampaignLog`, typically loaded from a
        ``repro tune --telemetry`` JSONL export via
        :meth:`~repro.observability.CampaignLog.load_jsonl`.
    tolerance:
        Relative tolerance of the span-vs-stats consistency gate.

    Returns ``(text, consistent)`` — the rendered report and whether the
    phase spans agree with the recorded campaign stats within tolerance.
    """
    events = log.events
    breakdown = phase_breakdown(events)
    stats: Dict[str, float] = {}
    for ev in events:
        if ev.kind == "stats":
            stats = {k: float(v) for k, v in ev.fields.items()}

    sections: List[str] = []
    phases = {k: v for k, v in sorted(breakdown.items()) if k.startswith("phase.")}
    total = sum(v["total_s"] for v in phases.values())
    rows = [
        (name.split(".", 1)[1], int(v["count"]), v["total_s"],
         100.0 * v["total_s"] / total if total > 0 else 0.0)
        for name, v in phases.items()
    ]
    tbl = ["phase breakdown (from spans)", f"{'phase':>12}  {'count':>6}  {'seconds':>10}  {'%':>6}"]
    for name, cnt, secs, pct in rows:
        tbl.append(f"{name:>12}  {cnt:6d}  {secs:10.4f}  {pct:6.1f}")
    tbl.append(f"{'total':>12}  {'':6}  {total:10.4f}  {100.0 if total > 0 else 0.0:6.1f}")
    sections.append("\n".join(tbl))
    if rows:
        sections.append(
            bar_chart([r[0] for r in rows], [r[2] for r in rows], title="phase seconds")
        )

    model = {k: v for k, v in sorted(breakdown.items()) if k.startswith("model.")}
    if model:
        lines = ["model spans"]
        for name, v in model.items():
            lines.append(f"{name:>15}  count {int(v['count']):5d}  total {v['total_s']:.4f}s")
        sections.append("\n".join(lines))

    appends = [
        e for e in events if e.kind == "span" and e.fields.get("name") == "history.append"
    ]
    if appends:
        sections.append(
            "history archive (from history.append spans)\n"
            f"{'appends':>18}  {len(appends)}"
            f"   records {sum(int(e.fields.get('n', 0)) for e in appends)}"
            f"   total {sum(float(e.fields.get('dur_s', 0.0)) for e in appends):.4f}s"
        )

    async_section = _render_async(events)
    if async_section:
        sections.append(async_section)

    counts = log.counts()
    lines = ["events"]
    for kind in _SUMMARY_KINDS:
        if counts.get(kind):
            lines.append(f"{kind:>18}  {counts[kind]}")
    n_starts = log.total("model-fit", "n_starts")
    if counts.get("model-fit"):
        lines.append(f"{'L-BFGS multi-starts':>18}  {n_starts}")
    modes = [
        str(ev.fields.get("mode") or ev.detail)
        for ev in events
        if ev.kind == "search-mode"
    ]
    if modes:
        seen_modes = list(dict.fromkeys(modes))  # first-use order, deduped
        lines.append(f"{'search modes':>18}  {', '.join(seen_modes)}")
    backends = [
        str(ev.fields.get("backend") or ev.detail)
        for ev in events
        if ev.kind == "model-backend"
    ]
    if backends:
        seen_backends = list(dict.fromkeys(backends))  # first-use order, deduped
        lines.append(f"{'model backends':>18}  {', '.join(seen_backends)}")
    if len(lines) == 1:
        lines.append("(none)")
    sections.append("\n".join(lines))

    ok, check_lines = check_phase_stats(breakdown, stats, tolerance=tolerance)
    sections.append("\n".join(["consistency (spans vs stats event)"] + check_lines))
    return "\n\n".join(sections), ok


# -- results-directory renderer ------------------------------------------------


def _render_fig7(payload: dict) -> str:
    out = []
    for matrix, rec in payload.items():
        fm = rec.get("front_multi", [])
        fs = rec.get("front_single", [])
        if not fm or not fs:
            continue
        out.append(
            scatter_plot(
                {
                    "multitask": ([p[0] for p in fm], [p[1] for p in fm]),
                    "single-task": ([p[0] for p in fs], [p[1] for p in fs]),
                },
                title=f"Fig. 7 right ({matrix}): Pareto fronts, time vs memory (log-log)",
                logx=True,
                logy=True,
            )
        )
    return "\n\n".join(out)


def _render_fig6(payload: dict, name: str) -> str:
    gpt = payload["gptune"]
    labels = [f"task{i}" for i in range(len(gpt))]
    ot = [o / g for o, g in zip(payload["opentuner"], gpt)]
    hb = [h / g for h, g in zip(payload["hpbandster"], gpt)]
    a = bar_chart(labels, ot, title=f"{name}: OpenTuner/GPTune best-runtime ratio", reference=1.0)
    b = bar_chart(labels, hb, title=f"{name}: HpBandSter/GPTune best-runtime ratio", reference=1.0)
    return a + "\n\n" + b


def _render_fig3(payload: dict) -> str:
    meas = payload.get("measured", [])
    if not meas:
        return ""
    xs = [m["N"] for m in meas]
    return line_chart(
        xs,
        {
            "modeling s": [m["modeling_s"] for m in meas],
            "search s": [m["search_s"] for m in meas],
        },
        title="Fig. 3: measured serial phase times vs N = εδ (log y)",
        logy=True,
    )


def render_results_dir(path: str) -> str:
    """Render every recognized result JSON under ``path`` to one report."""
    if not os.path.isdir(path):
        raise FileNotFoundError(f"no results directory at {path}")
    sections: List[str] = []
    for fname in sorted(os.listdir(path)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(path, fname), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        stem = fname[:-5]
        try:
            if stem == "fig7_right_multitask":
                sections.append(_render_fig7(payload))
            elif stem.startswith("fig6_"):
                sections.append(_render_fig6(payload, stem))
            elif stem == "fig3_scaling":
                sections.append(_render_fig3(payload))
        except (KeyError, ValueError, TypeError):
            sections.append(f"({fname}: unrenderable payload)")
    return "\n\n".join(s for s in sections if s)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.reporting [results_dir]``."""
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else os.path.join("benchmarks", "results")
    print(render_results_dir(path))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
