"""Spark-native coverage computation, oracle-checked against DuckDB.

Every query-shaped result here goes through
``repro.oracle.assert_equivalent`` so a broken Catalyst plan (not just a
crash) is caught.
"""
import pandas as pd
import pytest

import pyspark.sql.functions as F

from repro import synth_data as sd
from repro.core import brute
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex
from repro.core.deepdiver import mups_deepdiver
from repro.core.cube import (
    collect_patterns,
    cube_coverage,
    full_pattern_coverage,
    mups_spark,
    pattern_table,
)
from repro.oracle import assert_equivalent

EX1_ROWS = [(0, 1, 0), (0, 0, 1), (0, 0, 0), (0, 1, 1), (0, 0, 1)]
EX1_CARDS = [2, 2, 2]
ATTRS = ["a0", "a1", "a2"]


def ex1_df(spark):
    return spark.createDataFrame(pd.DataFrame(EX1_ROWS, columns=ATTRS))


def test_cube_coverage_matches_duckdb(spark):
    df = ex1_df(spark)
    got = cube_coverage(df, ATTRS)
    assert_equivalent(
        got,
        "SELECT a0, a1, a2, count(*) AS cov FROM t GROUP BY CUBE (a0, a1, a2)",
        t=df,
    )


def test_cube_coverage_matches_duckdb_compas(spark):
    df = sd.compas_like(spark, n=800).select(*sd.COMPAS_ATTRS)
    got = cube_coverage(df, sd.COMPAS_ATTRS)
    assert_equivalent(
        got,
        "SELECT sex, age, race, marital, count(*) AS cov "
        "FROM t GROUP BY CUBE (sex, age, race, marital)",
        t=df,
    )


def test_pattern_table_size(spark):
    tbl = pattern_table(spark, ATTRS, EX1_CARDS)
    assert tbl.count() == 27  # Π (c_i + 1) = 3^3, Figure 2


def test_pattern_table_matches_duckdb(spark):
    tbl = pattern_table(spark, ["a0", "a1"], [2, 3])
    assert_equivalent(
        tbl,
        "SELECT * FROM (VALUES (0),(1),(NULL)) v0(a0), "
        "(VALUES (0),(1),(2),(NULL)) v1(a1)",
        dummy=pd.DataFrame({"x": [1]}),
    )


def test_full_pattern_coverage_matches_duckdb(spark):
    df = ex1_df(spark)
    got = full_pattern_coverage(spark, df, ATTRS, EX1_CARDS)
    sql = """
    WITH cube_cov AS (
      SELECT a0, a1, a2, count(*) AS c FROM t GROUP BY CUBE (a0, a1, a2)
    ),
    pats AS (
      SELECT * FROM (VALUES (0),(1),(NULL)) v0(a0),
                    (VALUES (0),(1),(NULL)) v1(a1),
                    (VALUES (0),(1),(NULL)) v2(a2)
    )
    SELECT p.a0 AS a0, p.a1 AS a1, p.a2 AS a2, coalesce(c.c, 0) AS cov
    FROM pats p LEFT JOIN cube_cov c
      ON p.a0 IS NOT DISTINCT FROM c.a0
     AND p.a1 IS NOT DISTINCT FROM c.a1
     AND p.a2 IS NOT DISTINCT FROM c.a2
    """
    assert_equivalent(got, sql, t=df)


def test_full_pattern_coverage_matches_brute(spark):
    df = ex1_df(spark)
    got = full_pattern_coverage(spark, df, ATTRS, EX1_CARDS).collect()
    assert len(got) == 27
    for row in got:
        p = tuple(pt.X if row[a] is None else int(row[a]) for a in ATTRS)
        assert row["cov"] == brute.coverage(EX1_ROWS, p), p


@pytest.mark.parametrize("tau", [1, 2, 3, 6])
def test_mups_spark_matches_brute_example1(spark, tau):
    df = ex1_df(spark)
    got = collect_patterns(mups_spark(spark, df, ATTRS, EX1_CARDS, tau), ATTRS)
    assert got == brute.mups(EX1_ROWS, EX1_CARDS, tau)


def test_mups_spark_matches_driver_algorithms_on_compas(spark):
    df = sd.compas_like(spark, n=400, seed=3).select(*sd.COMPAS_ATTRS)
    tau = 5
    got = collect_patterns(
        mups_spark(spark, df, sd.COMPAS_ATTRS, sd.COMPAS_CARDS, tau),
        sd.COMPAS_ATTRS,
    )
    idx = CoverageIndex.from_spark(df, sd.COMPAS_ATTRS, sd.COMPAS_CARDS)
    assert got == mups_deepdiver(idx, tau)


def test_mups_spark_ternary(spark):
    rows = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 2), (2, 2)]
    df = spark.createDataFrame(pd.DataFrame(rows, columns=["a0", "a1"]))
    for tau in (1, 2, 3):
        got = collect_patterns(mups_spark(spark, df, ["a0", "a1"], [3, 3], tau), ["a0", "a1"])
        assert got == brute.mups(rows, [3, 3], tau)


def test_coverage_index_from_spark_matches_pandas(spark):
    pdf = sd.airbnb_like_pdf(n=3000, d=6)
    attrs = sd.airbnb_attrs(6)
    df = spark.createDataFrame(pdf).repartition(8)
    i_spark = CoverageIndex.from_spark(df, attrs, [2] * 6)
    i_pandas = CoverageIndex.from_pandas(pdf, attrs, [2] * 6)
    assert i_spark.n == i_pandas.n == 3000
    for p in pt.all_patterns([2] * 6):
        assert i_spark.cov(p) == i_pandas.cov(p)


def test_groupby_aggregate_oracle(spark):
    """The distributed scan behind CoverageIndex.from_spark, checked
    against DuckDB row-for-row."""
    df = sd.bluenile_like(spark, n=2000)
    agg = df.groupBy(*sd.BLUENILE_ATTRS).agg(F.count(F.lit(1)).alias("cnt"))
    cols = ", ".join(sd.BLUENILE_ATTRS)
    assert_equivalent(
        agg,
        f"SELECT {cols}, count(*) AS cnt FROM t GROUP BY {cols}",
        t=df,
    )


def test_audit_scan_groupby_oracle(spark):
    """The audit scan's exact ``groupBy(*attrs).count()``, as
    CoverageIndex.from_spark issues it, checked against DuckDB."""
    df = sd.bluenile_like(spark, n=5000)
    agg = df.groupBy(*sd.BLUENILE_ATTRS).count()
    cols = ", ".join(sd.BLUENILE_ATTRS)
    assert_equivalent(
        agg,
        f'SELECT {cols}, count(*) AS "count" FROM t GROUP BY {cols}',
        t=df,
    )


def test_bucketized_continuous_attribute_coverage(spark):
    """§II: continuous attributes are bucketised to categorical before
    coverage analysis — do it in Spark and audit the result."""
    n = 1000
    # x = (37·id mod n) / 10 is a continuous attribute spread over [0, 100).
    x = (F.col("id") * 37 % n) / 10.0
    cat = spark.range(n).select(
        F.when(x <= 10, 0).when(x <= 25, 1).otherwise(2).alias("x_bucket"),
        (F.col("id") % 2).cast("int").alias("parity"),
    )
    idx = CoverageIndex.from_spark(cat, ["x_bucket", "parity"], [3, 2])
    assert idx.n == n

    def bucket(i):
        v = (37 * i % n) / 10.0
        return 0 if v <= 10 else 1 if v <= 25 else 2

    rows = [(bucket(i), i % 2) for i in range(n)]
    assert mups_deepdiver(idx, 1) == set()  # every combination occurs
    assert mups_deepdiver(idx, 60) == brute.mups(rows, [3, 2], 60) != set()


def test_pattern_coverage_filter_oracle(spark):
    """Coverage of individual patterns as Spark filters vs DuckDB WHERE."""
    df = sd.compas_like(spark, n=1500).select(*sd.COMPAS_ATTRS)
    got = (
        df.where((F.col("race") == 2) & (F.col("marital") == 3))
        .agg(F.count(F.lit(1)).alias("cov"))
    )
    assert_equivalent(
        got,
        "SELECT count(*) AS cov FROM t WHERE race = 2 AND marital = 3",
        t=df,
    )
