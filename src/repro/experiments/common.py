"""Shared experiment utilities: timing with honest DNF reporting, and the
markdown renderer for result rows."""
from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.coverage import TimeBudgetExceeded

#: Marker recorded in result rows when an algorithm exceeded its budget,
#: mirroring the paper's "did not finish within the time limit" entries.
DNF = None


def timed(fn: Callable[[], Any]) -> Tuple[Optional[float], Any]:
    """Run ``fn``; return (seconds, result), or (DNF, None) on budget excess."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except TimeBudgetExceeded:
        return DNF, None
    return time.perf_counter() - t0, out


def fmt_seconds(s: Optional[float]) -> str:
    return "DNF" if s is DNF else f"{s:.2f}"


#: Columns whose ``None`` means the setting did not finish in its budget.
DNF_COLS = ("seconds", "n_mups", "n_input", "n_output")


def _cell(col: str, v: Any) -> str:
    if v is None:
        return "DNF" if col in DNF_COLS else "-"
    if isinstance(v, float):
        return fmt_seconds(v) if col == "seconds" else f"{v:g}"
    return str(v)


def show_rows(rows: List[dict], cols: Optional[Sequence[str]] = None) -> str:
    """Render result rows as a GitHub-flavoured markdown table.

    ``cols`` defaults to the keys of the first row; every row must have
    every column. ``seconds`` prints with 2 decimals, other floats with
    ``:g`` (so a rate of 1e-05 stays visible), and ``None`` prints as
    ``DNF`` in the columns of :data:`DNF_COLS` and ``-`` elsewhere.
    """
    if not rows:
        return "(no rows)"
    cols = list(rows[0]) if cols is None else list(cols)
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        out.append("| " + " | ".join(_cell(c, r[c]) for c in cols) + " |")
    return "\n".join(out)
