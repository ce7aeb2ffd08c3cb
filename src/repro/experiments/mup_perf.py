"""MUP-identification performance sweeps (T3–T7 ↔ Figures 12–16) and
the MUP level histogram (Figure 6).

Every sweep builds the coverage index through the distributed
``groupBy`` scan (`CoverageIndex.from_spark`), then times each
identification algorithm on the driver, recording DNF when the
wall-clock budget is exceeded (the paper does the same for its naïve
algorithm).
"""
from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from pyspark.sql import SparkSession

from repro import synth_data as sd
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex
from repro.core.deepdiver import mups_deepdiver
from repro.core.pattern_breaker import mups_pattern_breaker
from repro.core.pattern_combiner import mups_pattern_combiner
from repro.experiments.common import timed

from repro.core.naive import mups_naive

ALGORITHMS = {
    "pattern_breaker": mups_pattern_breaker,
    "pattern_combiner": mups_pattern_combiner,
    "deepdiver": mups_deepdiver,
    # The §III-A baseline; the paper reports it timing out in every
    # full-scale setting — request it explicitly (algos=) to record the DNF.
    "naive": mups_naive,
}

#: Default comparison set: the paper's three proposed algorithms.
MAIN_ALGORITHMS = ("pattern_breaker", "pattern_combiner", "deepdiver")


def build_airbnb_index(
    spark: SparkSession, *, n: int, d: int, seed: int = 11
) -> CoverageIndex:
    df = sd.airbnb_like(spark, n=n, d=d, seed=seed)
    return CoverageIndex.from_spark(df, sd.airbnb_attrs(d), [2] * d)


def build_bluenile_index(spark: SparkSession, *, n: int, seed: int = 13) -> CoverageIndex:
    df = sd.bluenile_like(spark, n=n, seed=seed)
    return CoverageIndex.from_spark(df, sd.BLUENILE_ATTRS, sd.BLUENILE_CARDS)


def _run_algos(
    idx: CoverageIndex,
    tau: int,
    algos: Sequence[str],
    time_limit: Optional[float],
    base_row: Dict,
) -> List[dict]:
    rows = []
    for name in algos:
        fn = ALGORITHMS[name]
        # A fresh index per call: the memoised cells would otherwise let
        # every algorithm after the first skip the bincounts it paid for.
        cold = CoverageIndex(idx.combos, idx.counts, idx.cards)
        secs, mups = timed(lambda: fn(cold, tau, time_limit=time_limit))
        rows.append(
            {
                **base_row,
                "algorithm": name,
                "seconds": secs,
                "n_mups": None if mups is None else len(mups),
            }
        )
    return rows


def threshold_sweep(
    spark: SparkSession,
    *,
    dataset: str = "airbnb",
    n: int = 100_000,
    d: int = 13,
    rates: Sequence[float] = (1e-5, 1e-4, 1e-3, 1e-2),
    algos: Sequence[str] = MAIN_ALGORITHMS,
    time_limit: Optional[float] = 120.0,
) -> List[dict]:
    """T3 (Fig 12, AirBnB) / T4 (Fig 13, BlueNile): runtime & output size
    as the coverage threshold rate varies."""
    if dataset == "airbnb":
        idx = build_airbnb_index(spark, n=n, d=d)
    elif dataset == "bluenile":
        idx = build_bluenile_index(spark, n=n)
    else:
        raise ValueError(dataset)
    rows: List[dict] = []
    for rate in rates:
        tau = max(1, int(rate * idx.n))
        rows += _run_algos(
            idx, tau, algos, time_limit,
            {"dataset": dataset, "n": idx.n, "d": idx.d, "rate": rate, "tau": tau},
        )
    return rows


def datasize_sweep(
    spark: SparkSession,
    *,
    sizes: Sequence[int] = (10_000, 100_000, 1_000_000),
    d: int = 13,
    rate: float = 1e-2,
    algos: Sequence[str] = MAIN_ALGORITHMS,
    time_limit: Optional[float] = 120.0,
) -> List[dict]:
    """T5 (Fig 14): runtime vs dataset size, τ fixed at 1% of n."""
    rows: List[dict] = []
    for n in sizes:
        idx = build_airbnb_index(spark, n=n, d=d)
        tau = max(1, int(rate * n))
        rows += _run_algos(
            idx, tau, algos, time_limit,
            {"dataset": "airbnb", "n": n, "d": d, "rate": rate, "tau": tau},
        )
    return rows


def dimensions_sweep(
    spark: SparkSession,
    *,
    n: int = 100_000,
    dims: Sequence[int] = (5, 7, 9, 11, 13),
    rate: float = 1e-3,
    algos: Sequence[str] = MAIN_ALGORITHMS,
    time_limit: Optional[float] = 120.0,
) -> List[dict]:
    """T6 (Fig 15): runtime vs number of attributes, τ = 0.1%."""
    rows: List[dict] = []
    for d in dims:
        idx = build_airbnb_index(spark, n=n, d=d)
        tau = max(1, int(rate * n))
        rows += _run_algos(
            idx, tau, algos, time_limit,
            {"dataset": "airbnb", "n": n, "d": d, "rate": rate, "tau": tau},
        )
    return rows


def level_limited_sweep(
    spark: SparkSession,
    *,
    n: int = 100_000,
    dims: Sequence[int] = (15, 20, 25, 30, 35),
    rate: float = 1e-3,
    max_level: int = 2,
    time_limit: Optional[float] = 120.0,
) -> List[dict]:
    """T7 (Fig 16): DEEPDIVER limited to MUPs of level ≤ ``max_level``
    scales to tens of attributes."""
    rows: List[dict] = []
    for d in dims:
        idx = build_airbnb_index(spark, n=n, d=d)
        tau = max(1, int(rate * n))
        secs, mups = timed(
            lambda: mups_deepdiver(idx, tau, max_level=max_level, time_limit=time_limit)
        )
        rows.append(
            {
                "dataset": "airbnb",
                "n": n,
                "d": d,
                "rate": rate,
                "tau": tau,
                "max_level": max_level,
                "algorithm": "deepdiver",
                "seconds": secs,
                "n_mups": None if mups is None else len(mups),
            }
        )
    return rows


def level_histogram(spark: SparkSession, *, n: int, d: int, tau: int) -> List[dict]:
    """Fig 6: the number of MUPs at each level (DEEPDIVER, AirBnB)."""
    idx = build_airbnb_index(spark, n=n, d=d)
    hist = Counter(pt.level(p) for p in mups_deepdiver(idx, tau))
    return [{"level": k, "n_mups": hist[k]} for k in sorted(hist)]
