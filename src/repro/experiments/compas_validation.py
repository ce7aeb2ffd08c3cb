"""T1 (§V-B.1): coverage audit of the (synthetic) COMPAS dataset.

Reproduces the paper's findings at τ=10 over sex/age/race/marital:
every single attribute value is covered, yet dozens of MUPs exist at
levels 2–4 — including the widowed-Hispanic pattern XX23 with ~2
matching individuals.
"""
from __future__ import annotations

from collections import Counter
from typing import List

from pyspark.sql import SparkSession

from repro import synth_data as sd
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex
from repro.core.deepdiver import mups_deepdiver


def run(
    spark: SparkSession,
    *,
    n: int = 6889,
    tau: int = 10,
    seed: int = 7,
) -> List[dict]:
    attrs, cards = sd.COMPAS_ATTRS, sd.COMPAS_CARDS
    df = sd.compas_like(spark, n=n, seed=seed).select(*attrs)
    idx = CoverageIndex.from_spark(df, attrs, cards)
    mups = mups_deepdiver(idx, tau)
    by_level = Counter(pt.level(p) for p in mups)
    min_single = min(
        idx.cov(tuple(v if j == i else pt.X for j in range(len(cards))))
        for i, c in enumerate(cards)
        for v in range(c)
    )
    rows = [
        {"metric": "n", "value": idx.n},
        {"metric": "tau", "value": tau},
        {"metric": "total_mups", "value": len(mups)},
        {"metric": "min_single_value_coverage", "value": min_single},
        {"metric": "cov(XX23) (widowed Hispanic)", "value": idx.cov(pt.parse("XX23"))},
        {"metric": "XX23_is_mup", "value": int(pt.parse("XX23") in mups)},
    ]
    for lvl in sorted(by_level):
        rows.append({"metric": f"mups_level_{lvl}", "value": by_level[lvl]})
    return rows
