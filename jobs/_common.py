"""The SparkSession builder shared by ``jobs/run.py``, ``perfbench/`` and
the tests' ``spark`` fixture in ``conftest.py``.

Every shuffle this program makes is the dataset scan's
``groupBy(*attrs).count()`` (the audit's ``CoverageIndex.from_spark`` and
the remedy's ``verify_covered_level``) or a ``cube()`` over the same
columns. Its reduce side holds at most m rows, the distinct value
combinations (740 on the airbnb d=10 workload, 10,233 on the BlueNile
six-attribute one), or the cube's cells, whatever n is. So the session
plans one reducer per core: ``spark.sql.shuffle.partitions`` is the
session's ``defaultParallelism``. A constant 64 on ``local[4]`` made every
map task hash into 64 buckets and AQE plan and coalesce 64 reducers for
those few rows. On a 4-vCPU VM (``perfbench/run.py --seconds 34``, ten
pairs of runs a workload, 64 partitions → 4) the BlueNile workload's
``remedy_s`` fell from a median 0.321 s to 0.253 s and its ``audit_s``
from 0.213 s to 0.174 s, lower in every pair; the airbnb workload's fell
from 0.307 s to 0.281 s and from 0.384 s to 0.356 s. Traced, the verify
scan took 0.277 s → 0.165 s and the audit scan 0.203 s → 0.138 s on
BlueNile, with the same two jobs and five stages each.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """The session named ``app``, master ``$SPARK_MASTER`` (default
    ``local[*]``), Arrow transfers on and one shuffle partition per core.
    If a session is already running, ``getOrCreate`` returns it and only
    its shuffle width is set."""
    import os

    spark = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.conf.set("spark.sql.shuffle.partitions", str(spark.sparkContext.defaultParallelism))
    return spark
