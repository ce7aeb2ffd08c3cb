"""pytest-benchmark targets: every evaluation table at its small scale."""
import pytest

from repro.experiments.tables import TABLES

#: Rows each table yields at its small arguments.
N_ROWS = {
    "t1_compas": 9,
    "t2_classifier": 3,
    "t3_airbnb_threshold": 6,
    "t3_naive": 1,
    "t4_bluenile_threshold": 3,
    "t5_datasize": 6,
    "t6_dimensions": 6,
    "t7_level_limited": 2,
    "t8_enhance_threshold": 4,
    "t9_enhance_dimensions": 8,
    "f6_level_hist": 9,
}


@pytest.mark.parametrize("name", list(TABLES))
def test_bench_table(benchmark, spark, name):
    t = TABLES[name]
    rows = benchmark.pedantic(
        lambda: t.harness(spark, **t.small), rounds=1, iterations=1
    )
    assert len(rows) == N_ROWS[name]
    if name == "t1_compas":
        assert {r["metric"]: r["value"] for r in rows}["total_mups"] > 0
