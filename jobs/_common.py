"""The SparkSession builder shared by ``jobs/run.py`` and ``perfbench/``."""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """Session for a job. Under spark-submit the master comes from the
    CLI; under plain ``python jobs/<name>.py`` fall back to local[*]."""
    import os

    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
