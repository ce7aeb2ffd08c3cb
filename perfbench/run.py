"""Audit/remedy benchmark: one workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload airbnb10 --seed 1 --seconds 34 --trace 0

The run starts its Spark session with ``jobs/_common.get_spark``, the
session builder of the per-table jobs (64 shuffle partitions, Arrow on),
on the master ``local[N]``, N = min(4, cores). It prints a report, a
``RECORD`` line with every sample and parameter, and last a JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. It exits 0 only if every check passed.

Spark's scratch files and temporary files go to ``.perfbench_work/``
in the checkout, which the run removes before it exits.
"""
from __future__ import annotations

import argparse
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DRIVER_MEMORY = "2g"
CORES = min(4, os.cpu_count() or 1)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the value relabelling and row order")
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the timed rounds run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _stop(spark, proc) -> None:
    """Stop Spark and wait for its JVM, which exits when its stdin closes."""
    try:
        spark.stop()
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _run(args, work: Path, t_process: float) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    import bench
    from jobs._common import get_spark

    t0 = time.perf_counter()
    spark = get_spark(f"perfbench-{w.name}")
    session_s = time.perf_counter() - t0
    proc = spark.sparkContext._gateway.proc
    try:
        spark.sparkContext.setLogLevel("ERROR")
        return bench.run(
            spark, w, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            t_process=t_process, session_s=session_s,
        )
    finally:
        _stop(spark, proc)


def main(argv=None) -> int:
    t_process = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no {SRC / 'repro'}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    # Keep every file Spark, py4j and Python write inside the checkout.
    os.environ["TMPDIR"] = str(work)
    os.environ["SPARK_LOCAL_DIRS"] = str(work)
    tempfile.tempdir = str(work)
    # The JVM would otherwise keep its performance counters in /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = " ".join(
        filter(None, [os.environ.get("JAVA_TOOL_OPTIONS"), "-XX:-UsePerfData"]))
    # get_spark takes the master from SPARK_MASTER; the settings it does
    # not make go on the spark-submit command line.
    os.environ["SPARK_MASTER"] = f"local[{CORES}]"
    conf = {
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.driver.host": "127.0.0.1",
        "spark.sql.warehouse.dir": str(work / "warehouse"),
    }
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--driver-memory {DRIVER_MEMORY}",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={work}"),
        *(f"--conf {shlex.quote(f'{k}={v}')}" for k, v in conf.items()),
        "pyspark-shell",
    ])
    try:
        return _run(args, work, t_process)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
