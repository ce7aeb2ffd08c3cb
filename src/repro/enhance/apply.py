"""Materialise collected value combinations and re-verify coverage.

The paper's GREEDY returns *value combinations* to collect, counting a
pattern as resolved once one matching combination is acquired. To make
Problem 2's guarantee (maximum covered level ≥ λ) mechanically
checkable, each collected combination is replicated ``tau`` times —
enough to lift every pattern it matches to the threshold regardless of
its prior deficit. Only the k collected combinations leave the driver;
Spark makes the τ copies of each (``explode(sequence(1, τ))``) and
unions them into the dataset, so no τ·k-row relation is built in Python
or re-read by every later action. The maximum covered level of the
result is then recomputed from a fresh ``groupBy`` scan. That check
needs no MUP search: level k is covered iff, for every k-subset of the
attributes, all its value combinations reach τ, which one weighted
bincount per subset over the reduced relation decides
(``CoverageIndex.max_covered_level``). The first uncovered level is
exactly the lowest MUP level, since an uncovered pattern whose parents
are all covered is a MUP.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.coverage import CoverageIndex
from repro.core.patterns import Pattern


def append_collected(
    spark: SparkSession,
    df: DataFrame,
    combos: Sequence[Pattern],
    attrs: Sequence[str],
    tau: int,
) -> DataFrame:
    """``df`` projected to ``attrs``, plus ``tau`` new tuples per collected
    combination (a combination listed twice gets 2τ)."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    base = df.select(*attrs)
    if tau == 0 or not len(combos):
        return base
    rows = np.asarray(combos, dtype=np.int64).reshape(-1, len(attrs))
    collected = spark.createDataFrame(pd.DataFrame(rows, columns=list(attrs)))
    # sequence(1, 0) is [1, 0], not empty: τ = 0 is returned above.
    copies = collected.withColumn("_copy", F.explode(F.sequence(F.lit(1), F.lit(tau))))
    return base.unionByName(copies.select(*attrs))


def verify_covered_level(
    df: DataFrame, attrs: Sequence[str], cards: Sequence[int], tau: int
) -> int:
    """Scan ``df`` and return its maximum covered level (Definition 6)."""
    return CoverageIndex.from_spark(df, attrs, cards).max_covered_level(tau)
