"""The evaluation tables (DESIGN.md §5), one registry entry per table.

Each entry names the harness that produces the table's rows, the
keyword arguments it takes at paper scale (what ``jobs/run.py`` runs
and ``experiments_out/<name>.json`` records) and the columns the
rendered table shows. Harnesses are called as ``harness(spark, **kwargs)``;
``tests/test_experiments.py`` runs each one at a tiny scale of its own.
The performance tables share one sweep per question: ``mup_sweep`` for
T3–T7, ``enhance_sweep`` for T8–T9.
"""
from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence

from repro.experiments import classifier_effect, compas_validation
from repro.experiments.enhance_perf import enhance_sweep
from repro.experiments.mup_perf import level_histogram, mup_sweep


class Table(NamedTuple):
    title: str
    harness: Callable[..., List[dict]]
    paper: dict
    cols: Sequence[str]


MUP_COLS = ["seconds", "n_mups"]
ENHANCE_COLS = ["lam", "algorithm", "seconds", "n_input", "n_output"]
RATES = (1e-5, 1e-4, 1e-3, 1e-2)

TABLES: Dict[str, Table] = {
    "t1_compas": Table(
        "T1 — COMPAS coverage audit",
        compas_validation.run,
        paper=dict(n=6889, tau=10),
        cols=["metric", "value"],
    ),
    "t2_classifier": Table(
        "T2 — classifier effect (Fig 11)",
        classifier_effect.run,
        paper=dict(n=6889, hf_train_counts=(0, 20, 40, 60, 80)),
        cols=["setting", "hf_in_training", "accuracy", "f1"],
    ),
    "t3_airbnb_threshold": Table(
        "T3 — MUP identification vs threshold, AirBnB (Fig 12)",
        mup_sweep,
        paper=dict(dataset="airbnb", sizes=(100_000,), dims=(13,), rates=RATES,
                   time_limit=180.0),
        cols=["rate", "tau", "algorithm", *MUP_COLS],
    ),
    "t3_naive": Table(
        "T3 — naïve MUP identification, AirBnB (§III-A)",
        mup_sweep,
        paper=dict(dataset="airbnb", sizes=(100_000,), dims=(13,), rates=(1e-2, 1e-4),
                   algos=("naive",), time_limit=120.0),
        cols=["rate", "tau", "algorithm", *MUP_COLS],
    ),
    "t4_bluenile_threshold": Table(
        "T4 — MUP identification vs threshold, BlueNile (Fig 13)",
        mup_sweep,
        paper=dict(dataset="bluenile", sizes=(116_300,), dims=(7,), rates=RATES,
                   time_limit=180.0),
        cols=["rate", "tau", "algorithm", *MUP_COLS],
    ),
    "t5_datasize": Table(
        "T5 — MUP identification vs data size (Fig 14)",
        mup_sweep,
        paper=dict(sizes=(10_000, 100_000, 1_000_000), dims=(13,), rates=(1e-2,),
                   time_limit=180.0),
        cols=["n", "tau", "algorithm", *MUP_COLS],
    ),
    "t6_dimensions": Table(
        "T6 — MUP identification vs dimensions (Fig 15)",
        mup_sweep,
        paper=dict(sizes=(100_000,), dims=(5, 7, 9, 11, 13), rates=(1e-3,),
                   time_limit=180.0),
        cols=["d", "tau", "algorithm", *MUP_COLS],
    ),
    "t7_level_limited": Table(
        "T7 — level-limited DEEPDIVER (Fig 16)",
        mup_sweep,
        paper=dict(sizes=(100_000,), dims=(15, 20, 25, 30, 35), rates=(1e-3,),
                   algos=("deepdiver",), max_level=2, time_limit=180.0),
        cols=["d", "tau", "max_level", *MUP_COLS],
    ),
    "t8_enhance_threshold": Table(
        "T8 — coverage enhancement vs threshold (Fig 17)",
        enhance_sweep,
        paper=dict(n=100_000, dims=(13,), rates=RATES, lams=(3, 4, 5), include_naive=True,
                   time_limit=120.0),
        cols=["rate", "tau", *ENHANCE_COLS],
    ),
    "t9_enhance_dimensions": Table(
        "T9 — coverage enhancement vs dimensions (Figs 18–19)",
        enhance_sweep,
        paper=dict(n=100_000, dims=(5, 9, 13, 17), rates=(1e-2,), lams=(3, 4, 5),
                   include_naive=False, time_limit=120.0),
        cols=["d", "tau", *ENHANCE_COLS],
    ),
    "f6_level_hist": Table(
        "Fig 6 — MUP level distribution, AirBnB",
        level_histogram,
        paper=dict(n=1000, d=13, tau=50),
        cols=["level", "n_mups"],
    ),
}
