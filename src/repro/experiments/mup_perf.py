"""MUP-identification performance (T3–T7 ↔ Figures 12–16) and the MUP
level histogram (Figure 6).

One sweep answers every MUP table: it builds the coverage index through
the distributed ``groupBy`` scan (`CoverageIndex.from_spark`), then
times each identification algorithm on the driver, recording DNF when
the wall-clock budget is exceeded (the paper does the same for its
naïve algorithm).
"""
from __future__ import annotations

import itertools
from collections import Counter
from typing import List, Optional, Sequence

from pyspark.sql import SparkSession

from repro import synth_data as sd
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex
from repro.core.deepdiver import mups_deepdiver
from repro.core.pattern_breaker import mups_pattern_breaker
from repro.core.pattern_combiner import mups_pattern_combiner
from repro.core.naive import mups_naive
from repro.experiments.common import timed

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


def mup_sweep(
    spark: SparkSession,
    *,
    dataset: str = "airbnb",
    sizes: Sequence[int],
    dims: Sequence[int],
    rates: Sequence[float],
    algos: Sequence[str] = MAIN_ALGORITHMS,
    max_level: Optional[int] = None,
    time_limit: Optional[float],
) -> List[dict]:
    """T3–T7 (Figs 12–16): runtime and output size of each algorithm at
    every (n, d, rate), τ = max(1, ⌊rate·n⌋).

    One index per (n, d); BlueNile has its 7 attributes only. When
    ``max_level`` is set it limits the search and is recorded in the row
    (T7's level-limited DEEPDIVER).
    """
    if dataset == "bluenile":
        if set(dims) - {len(sd.BLUENILE_ATTRS)}:
            raise ValueError(
                f"dataset 'bluenile' has {len(sd.BLUENILE_ATTRS)} attributes, "
                f"got dims={tuple(dims)}"
            )
    elif dataset != "airbnb":
        raise ValueError(f"unknown dataset {dataset!r}")
    limit = {} if max_level is None else {"max_level": max_level}
    rows: List[dict] = []
    for n, d in itertools.product(sizes, dims):
        if dataset == "airbnb":
            idx = build_airbnb_index(spark, n=n, d=d)
        else:
            idx = build_bluenile_index(spark, n=n)
        for rate in rates:
            tau = max(1, int(rate * idx.n))
            base = {"dataset": dataset, "n": idx.n, "d": idx.d, "rate": rate,
                    "tau": tau, **limit}
            for name in algos:
                # A fresh index per call: the memoised cells would otherwise
                # let every algorithm after the first skip the bincounts it
                # paid for.
                cold = CoverageIndex(idx.combos, idx.counts, idx.cards)
                secs, mups = timed(
                    lambda: ALGORITHMS[name](cold, tau, time_limit=time_limit, **limit)
                )
                rows.append({**base, "algorithm": name, "seconds": secs,
                             "n_mups": None if mups is None else len(mups)})
    return rows


def level_histogram(spark: SparkSession, *, n: int, d: int, tau: int) -> List[dict]:
    """Fig 6: the number of MUPs at each level (DEEPDIVER, AirBnB)."""
    idx = build_airbnb_index(spark, n=n, d=d)
    hist = Counter(pt.level(p) for p in mups_deepdiver(idx, tau))
    return [{"level": k, "n_mups": hist[k]} for k in sorted(hist)]
