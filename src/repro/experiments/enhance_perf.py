"""Coverage-enhancement performance, one sweep for T8–T9 (Figures 17–19).

Per setting: DEEPDIVER (level-limited to λ — deeper MUPs cannot affect
M_λ) finds the MUPs, Appendix C expands them to the uncovered patterns
at level λ (the hitting-set input), and each greedy solver collects
value combinations (the output): ``greedy`` is the paper's Algorithm
4/5, ``dense`` the library's ``greedy_hitting_set`` (the hit-array
argmax on narrow universes) and, optionally, ``naive`` the direct
greedy baseline. Input/output sizes are recorded for T9 (Fig 19).
"""
from __future__ import annotations

from typing import List, Optional, Sequence

from pyspark.sql import SparkSession

from repro.core.coverage import CoverageIndex, TimeBudgetExceeded
from repro.core.deepdiver import mups_deepdiver
from repro.enhance.expand import uncovered_at_level
from repro.enhance.hitting_set import greedy_hitting_set, greedy_hitting_set_dfs
from repro.enhance.naive_greedy import naive_greedy_hitting_set
from repro.experiments.common import DNF, timed
from repro.experiments.mup_perf import build_airbnb_index


def _one_setting(
    idx: CoverageIndex,
    tau: int,
    lam: int,
    *,
    include_naive: bool,
    time_limit: Optional[float],
    base_row: dict,
) -> List[dict]:
    solvers = [("greedy", greedy_hitting_set_dfs), ("dense", greedy_hitting_set)]
    if include_naive:
        solvers.append(("naive", naive_greedy_hitting_set))
    try:
        mups = mups_deepdiver(idx, tau, max_level=lam, time_limit=time_limit)
        m_lam = sorted(uncovered_at_level(mups, lam, idx.cards))
    except TimeBudgetExceeded:
        # Even the input-set construction blew the budget: report DNF.
        return [
            {**base_row, "algorithm": name, "seconds": DNF,
             "n_input": None, "n_output": None}
            for name, _ in solvers
        ]
    rows: List[dict] = []
    for name, solve in solvers:
        secs, combos = timed(lambda: solve(m_lam, idx.cards, time_limit=time_limit))
        rows.append(
            {
                **base_row,
                "algorithm": name,
                "seconds": secs,
                "n_input": len(m_lam),
                "n_output": None if combos is None else len(combos),
            }
        )
    return rows


def enhance_sweep(
    spark: SparkSession,
    *,
    n: int,
    dims: Sequence[int],
    rates: Sequence[float],
    lams: Sequence[int],
    include_naive: bool,
    time_limit: Optional[float],
) -> List[dict]:
    """T8 (Fig 17) and T9 (Fig 18 runtime + Fig 19 input/output sizes):
    each solver at every (d, rate, λ), τ = max(1, ⌊rate·n⌋); a λ above
    d is skipped."""
    rows: List[dict] = []
    for d in dims:
        idx = build_airbnb_index(spark, n=n, d=d)
        for rate in rates:
            tau = max(1, int(rate * idx.n))
            for lam in lams:
                if lam > d:
                    continue
                rows += _one_setting(
                    idx, tau, lam,
                    include_naive=include_naive,
                    time_limit=time_limit,
                    base_row={"n": idx.n, "d": d, "rate": rate, "tau": tau, "lam": lam},
                )
    return rows
