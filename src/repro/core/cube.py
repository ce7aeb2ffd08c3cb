"""Spark-native all-pattern coverage and a distributed Definition-5 check.

``df.cube(*attrs).count()`` is exactly the paper's pattern/coverage
relation restricted to patterns with non-zero support: a NULL in a
grouping column is the paper's ``X`` (the data cube of Gray et al.).
``mups_spark`` tests Definition 5 on it by counting covered parents:
every covered pattern emits its children, and a child whose number of
covered parents equals its level, and which is itself uncovered, is a
MUP. The whole check stays inside Catalyst.

Join-key encoding: pattern columns contain NULL (= X), which a plain
equality never matches. Attribute values are non-negative, so NULL is
encoded as the sentinel ``-1`` (matching the driver-side ``X``) via
``coalesce``. The keys are then never NULL, and every join is a plain
equi-join on the key columns, whatever the session's join settings.

These run pattern-sized relations through Spark, so they are meant for
small d (tests, COMPAS-sized audits) and as distributed cross-checks of
the driver-side algorithms.
"""
from __future__ import annotations

from typing import Sequence, Set

import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.core.patterns import X, Pattern


def _key(col, alias: str):
    """NULL-as-X sentinel key: values are >= 0, so -1 encodes X."""
    return F.coalesce(col.cast("int"), F.lit(X)).alias(alias)


def cube_coverage(df: DataFrame, attrs: Sequence[str]) -> DataFrame:
    """Coverage of every pattern with ≥1 matching tuple (NULL = X)."""
    return df.cube(*attrs).agg(F.count(F.lit(1)).alias("cov"))


def mups_spark(
    spark: SparkSession,
    df: DataFrame,
    attrs: Sequence[str],
    cards: Sequence[int],
    tau: int,
) -> DataFrame:
    """Distributed MUP identification (Definition 5 in Catalyst).

    A pattern is a MUP iff it is uncovered and all of its parents are
    covered. Each covered pattern emits one child per X position i and
    value v; a child fixes i and v, so each parent emits it once, and the
    child's covered parents are all there iff their count is its level.
    The root, which has no parents, is always a candidate. The candidates
    that are uncovered (coverage 0 when absent from the cube) are the
    MUPs; for τ ≤ 0 there are none, since every coverage is ≥ 0.
    """
    keys = [f"_k_{a}" for a in attrs]
    cube = cube_coverage(df, attrs).select(
        *[_key(F.col(a), k) for a, k in zip(attrs, keys)], "cov"
    )
    child = [
        F.when(
            F.col(k) == X,
            F.struct(*[(F.lit(v) if j == i else F.col(c)).alias(c) for j, c in enumerate(keys)]),
        )
        for i, k in enumerate(keys)
        for v in range(cards[i])
    ]
    level = sum((F.col(k) != X).cast("int") for k in keys)
    candidates = (
        cube.where(F.col("cov") >= tau)
        .select(F.explode(F.array(*child)).alias("c"))
        .where(F.col("c").isNotNull())
        .groupBy(*[F.col(f"c.{k}").alias(k) for k in keys])
        .count()
        .where(F.col("count") == level)
        .select(*keys)
        .unionByName(spark.range(1).select(*[F.lit(X).alias(k) for k in keys]))
    )
    out = candidates.join(cube, on=keys, how="left").select(
        *[F.when(F.col(k) != X, F.col(k)).alias(a) for a, k in zip(attrs, keys)],
        F.coalesce(F.col("cov"), F.lit(0)).alias("cov"),
    )
    return out.where(F.col("cov") < tau)


def collect_patterns(df: DataFrame, attrs: Sequence[str]) -> Set[Pattern]:
    """Collect a pattern DataFrame (NULL = X) into driver-side tuples."""
    rows = df.select(*attrs).collect()
    return {
        tuple(X if row[a] is None else int(row[a]) for a in attrs) for row in rows
    }
