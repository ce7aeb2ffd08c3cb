"""The experiment-table registry and its driver, ``jobs/run.py``.

Every table T1–T9 is registered with a harness its arguments bind to,
its column list matches the committed ``experiments_out`` data, and the
driver writes exactly the rows it returns. The sweeps themselves run at
tiny scale in test_experiments.py.
"""
import inspect
import json
import pathlib

import pytest

from jobs.run import run_tables
from repro.experiments.common import show_rows
from repro.experiments.tables import TABLES

OUT = pathlib.Path(__file__).resolve().parents[1] / "experiments_out"


def test_registry_has_t1_to_t9():
    for t in range(1, 10):
        assert any(name.startswith(f"t{t}_") for name in TABLES), f"missing table T{t}"


@pytest.mark.parametrize("name", list(TABLES))
def test_entry_harness_is_experiment(name):
    fn = TABLES[name].harness
    assert callable(fn)
    assert fn.__module__.startswith("repro.experiments.")


@pytest.mark.parametrize("name", list(TABLES))
def test_entry_kwargs_bind(name):
    t = TABLES[name]
    sig = inspect.signature(t.harness)
    sig.bind(None, **t.paper)


@pytest.mark.parametrize("name", list(TABLES))
def test_committed_json_renders(name):
    rows = json.loads((OUT / f"{name}.json").read_text())
    md = show_rows(rows, TABLES[name].cols)  # KeyError if a column drifted
    assert md.splitlines()[0] == "| " + " | ".join(TABLES[name].cols) + " |"
    assert len(md.splitlines()) == len(rows) + 2


def test_get_spark_importable():
    from jobs._common import get_spark

    assert list(inspect.signature(get_spark).parameters) == ["app"]


def test_get_spark_one_reducer_per_core(spark):
    # Every shuffle reduces to at most m rows, so the session sizes it to
    # its cores, not to n. The fixture is get_spark's session, so the
    # width is set away from the core count before get_spark runs again.
    from jobs._common import get_spark

    key = "spark.sql.shuffle.partitions"
    before = spark.conf.get(key)
    assert before == str(spark.sparkContext.defaultParallelism)
    try:
        spark.conf.set(key, "64")
        s = get_spark("t")
        assert s.conf.get(key) == str(s.sparkContext.defaultParallelism)
    finally:
        spark.conf.set(key, before)


def test_run_tables_writes_json(spark, tmp_path, capsys):
    names = ["t1_compas", "t2_classifier"]
    got = run_tables(spark, names, tmp_path)
    printed = capsys.readouterr().out
    assert list(got) == names
    for name in names:
        assert TABLES[name].title in printed
        assert json.loads((tmp_path / f"{name}.json").read_text()) == got[name]
        # Both harnesses are deterministic: the committed table is reproduced.
        assert got[name] == json.loads((OUT / f"{name}.json").read_text())
