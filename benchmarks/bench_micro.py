"""Micro-benchmarks of the core primitives backing every table."""
import itertools

import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex
from repro.core.deepdiver import mups_deepdiver
from repro.core.mup_index import MupIndex
from repro.core.pattern_breaker import mups_pattern_breaker
from repro.enhance.apply import append_collected, verify_covered_level
from repro.enhance.expand import uncovered_at_level
from repro.enhance.hitting_set import (
    build_inverted_indices,
    greedy_hitting_set,
    greedy_hitting_set_dfs,
    hit_count,
)


def _index(d=12, n=50_000, seed=0):
    g = np.random.default_rng(seed)
    combos = g.integers(0, 2, size=(4000, d))
    counts = g.integers(1, 1 + n // 4000, size=4000)
    return CoverageIndex(combos, counts, [2] * d)


def test_bench_coverage_oracle(benchmark):
    # The index is built inside the timed call: its cells are memoised,
    # so a shared index would time only warm lookups after one round.
    base = _index()
    pats = [tuple(g if i % 3 else pt.X for i, g in enumerate(row))
            for row in base.combos[:200]]

    def audit():
        idx = CoverageIndex(base.combos, base.counts, base.cards)
        return [idx.cov(p) for p in pats]

    benchmark(audit)


def test_bench_max_covered_level(benchmark):
    base = _index()
    # τ=100 leaves levels ≤ 6 covered, so the check bincounts every
    # subset of up to six attributes and stops inside level 7. A fresh
    # index each call, as for the oracle, so those bincounts are timed.
    level = benchmark(
        lambda: CoverageIndex(base.combos, base.counts, base.cards).max_covered_level(100)
    )
    assert level == 6


@pytest.mark.parametrize(
    "search", [mups_deepdiver, mups_pattern_breaker], ids=["deepdiver", "pattern_breaker"]
)
def test_bench_mup_search(benchmark, search):
    # L3, all MUPs on the airbnb10 shape at a fifth of its rows. A fresh
    # index each call, as for the oracle, so the cell bincounts are timed.
    d, tau = 10, 100
    pdf = sd.airbnb_like_pdf(n=20_000, d=d)
    base = CoverageIndex.from_pandas(pdf, sd.airbnb_attrs(d), [2] * d)
    mups = benchmark(lambda: search(CoverageIndex(base.combos, base.counts, base.cards), tau))
    assert len(mups) == len(mups_deepdiver(base, tau)) == len(mups_pattern_breaker(base, tau))


def test_bench_mup_dominance(benchmark):
    g = np.random.default_rng(1)
    midx = MupIndex([2] * 12)
    for row in g.integers(-1, 2, size=(2000, 12)):
        midx.add(tuple(int(v) for v in row))
    probes = [tuple(int(v) for v in r) for r in g.integers(-1, 2, size=(200, 12))]
    benchmark(lambda: [midx.dominated_by_any(p) for p in probes])


def test_bench_hit_count(benchmark):
    g = np.random.default_rng(2)
    cards = [2] * 12
    pats = [tuple(int(v) for v in r) for r in g.integers(-1, 2, size=(3000, 12))]
    idx = build_inverted_indices(pats, cards)
    full = (1 << len(pats)) - 1
    benchmark(lambda: hit_count(full, idx, cards))


@pytest.mark.parametrize(
    "solve", [greedy_hitting_set, greedy_hitting_set_dfs], ids=["dense", "dfs"]
)
def test_bench_greedy_hitting_set(benchmark, solve):
    # 600 level-3 patterns over BlueNile's first six cardinalities: the
    # shape of a λ=3 remedy on a wide-domain dataset.
    cards = [10, 4, 7, 8, 3, 3]
    g = np.random.default_rng(3)
    subsets = list(itertools.combinations(range(len(cards)), 3))
    pats = set()
    while len(pats) < 600:
        p = [pt.X] * len(cards)
        for i in subsets[g.integers(len(subsets))]:
            p[i] = int(g.integers(cards[i]))
        pats.add(tuple(p))
    pats = sorted(pats)
    out = benchmark(lambda: solve(pats, cards))
    assert all(any(pt.matches(c, p) for c in out) for p in pats)


@pytest.mark.parametrize("partitions", ["64", "cores"])
def test_bench_append_verify(benchmark, spark, partitions):
    # L6 of the remedy: append τ copies of a real λ=3 GREEDY output to a
    # cached BlueNile-like frame (the perfbench bluenile6 shape at a
    # sixth of its rows and τ), then re-scan it for the covered level.
    # "64" is the test session's shuffle width, "cores" the one
    # jobs/_common.get_spark sets.
    attrs, cards = sd.BLUENILE_ATTRS[:6], sd.BLUENILE_CARDS[:6]
    lam, tau = 3, 60
    key = "spark.sql.shuffle.partitions"
    before = spark.conf.get(key)
    df = sd.bluenile_like(spark, n=20_000).select(*attrs).cache()
    try:
        width = spark.sparkContext.defaultParallelism if partitions == "cores" else 64
        spark.conf.set(key, str(width))
        idx = CoverageIndex.from_spark(df, attrs, cards)
        m_lam = sorted(uncovered_at_level(mups_deepdiver(idx, tau, max_level=lam), lam, cards))
        combos = greedy_hitting_set(m_lam, cards)
        assert combos
        level = benchmark.pedantic(
            lambda: verify_covered_level(append_collected(spark, df, combos, attrs, tau),
                                         attrs, cards, tau),
            rounds=5, iterations=1, warmup_rounds=1,
        )
    finally:
        spark.conf.set(key, before)
        df.unpersist()
    assert level >= lam
