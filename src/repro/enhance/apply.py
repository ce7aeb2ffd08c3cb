"""Materialise collected value combinations and re-verify coverage.

The paper's GREEDY returns *value combinations* to collect, counting a
pattern as resolved once one matching combination is acquired. To make
Problem 2's guarantee (maximum covered level ≥ λ) mechanically
checkable, each collected combination is replicated ``tau`` times —
enough to lift every pattern it matches to the threshold regardless of
its prior deficit — appended to the dataset as a Spark union, and the
maximum covered level of the result is recomputed from a fresh ``groupBy``
scan. That check needs no MUP search: level k is covered iff, for every
k-subset of the attributes, all its value combinations reach τ, which
one weighted bincount per subset over the reduced relation decides
(``CoverageIndex.max_covered_level``). The first uncovered level is
exactly the lowest MUP level, since an uncovered pattern whose parents
are all covered is a MUP.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.coverage import CoverageIndex
from repro.core.patterns import Pattern


def combos_to_pandas(
    combos: Sequence[Pattern], attrs: Sequence[str], tau: int
) -> pd.DataFrame:
    """Each collected combination replicated τ times, as new tuples."""
    rows = np.asarray(combos, dtype=np.int64).reshape(-1, len(attrs))
    return pd.DataFrame(np.repeat(rows, tau, axis=0), columns=list(attrs))


def append_collected(
    spark: SparkSession,
    df: DataFrame,
    combos: Sequence[Pattern],
    attrs: Sequence[str],
    tau: int,
) -> DataFrame:
    """Union the collected tuples into the dataset (distributed path)."""
    pdf = combos_to_pandas(combos, attrs, tau)
    if pdf.empty:
        return df
    extra = spark.createDataFrame(pdf)
    return df.select(*attrs).unionByName(extra)


def verify_covered_level(
    df: DataFrame, attrs: Sequence[str], cards: Sequence[int], tau: int
) -> int:
    """Scan ``df`` and return its maximum covered level (Definition 6)."""
    return CoverageIndex.from_spark(df, attrs, cards).max_covered_level(tau)
