"""Regenerate the EXPERIMENTS.md tables at paper scale.

    python jobs/run.py [NAME ...]

runs each named table of ``repro.experiments.tables.TABLES`` (default:
all of them) with its paper-scale arguments, prints it as markdown and
writes its rows to ``experiments_out/<NAME>.json``.
"""
from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, List, Sequence

from repro.experiments.common import show_rows
from repro.experiments.tables import TABLES

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "experiments_out"


def run_tables(spark, names: Sequence[str], out_dir) -> Dict[str, List[dict]]:
    """Run, print and save each named table; return its rows by name."""
    results = {}
    for name in names:
        t = TABLES[name]
        rows = t.harness(spark, **t.paper)
        print(f"\n## {t.title}\n\n{show_rows(rows, t.cols)}", flush=True)
        with open(pathlib.Path(out_dir) / f"{name}.json", "w") as f:
            json.dump(rows, f, indent=1, default=str)
        results[name] = rows
    return results


def main(argv: Sequence[str]) -> int:
    names = list(argv) or list(TABLES)
    unknown = [n for n in names if n not in TABLES]
    if unknown:
        print(f"unknown table(s) {unknown}; choose from {list(TABLES)}", file=sys.stderr)
        return 2
    # Resolved from this script's directory; tests import the module as
    # ``jobs.run`` and call run_tables with their own session.
    from _common import get_spark

    spark = get_spark("experiment tables")
    try:
        run_tables(spark, names, OUT_DIR)
    finally:
        spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
