"""Coverage oracle (Appendix A) over a Spark groupBy aggregate.

The scale-with-n work — scanning the (partitioned) dataset and reducing
it to distinct value combinations with multiplicities — is a single
Spark ``groupBy(*attrs).count()``. The reduced form (≤ min(n, Π c_i)
rows) is pulled to the driver, where Appendix A's inverted indices are
materialised as one numpy boolean mask per attribute value. ``cov(P)``
is then the AND of the masks of P's deterministic elements dotted with
the multiplicity vector.
"""
from __future__ import annotations

import itertools
import math
import time
from typing import Dict, List, Optional, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.patterns import X, Pattern


class TimeBudgetExceeded(Exception):
    """Raised by the algorithms when their wall-clock budget is spent."""


class Deadline:
    """Cheap cooperative wall-clock budget, checked every ``stride`` ticks."""

    def __init__(self, seconds: Optional[float], stride: int = 256):
        self.t_end = None if seconds is None else time.perf_counter() + seconds
        self.stride = stride
        self._tick = 0

    def check(self) -> None:
        if self.t_end is None:
            return
        self._tick += 1
        if (self._tick == 1 or self._tick % self.stride == 0) and (
            time.perf_counter() > self.t_end
        ):
            raise TimeBudgetExceeded()


class CoverageIndex:
    """Appendix-A inverted indices over the distinct value combinations.

    Attributes
    ----------
    combos : (m, d) int array of distinct value combinations in the data
    counts : (m,) int array of multiplicities (Σ counts == n)
    cards  : attribute cardinalities
    masks  : per attribute, per value, boolean mask over ``combos``
    cov_calls : number of coverage evaluations served (profiling aid)
    """

    def __init__(self, combos: np.ndarray, counts: np.ndarray, cards: Sequence[int]):
        combos = np.asarray(combos, dtype=np.int64).reshape(-1, len(cards))
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if combos.shape[0] != counts.shape[0]:
            raise ValueError("combos/counts length mismatch")
        self.combos = combos
        self.counts = counts
        self.cards = list(cards)
        self.d = len(self.cards)
        self.n = int(counts.sum())
        self.masks: List[Dict[int, np.ndarray]] = []
        for i, c in enumerate(self.cards):
            col = combos[:, i] if combos.size else np.empty(0, dtype=np.int64)
            if col.size and (col.min() < 0 or col.max() >= c):
                raise ValueError(f"attribute {i} has values outside [0, {c})")
            self.masks.append({v: col == v for v in range(c)})
        self.cov_calls = 0
        self._exact: Optional[Dict[Pattern, int]] = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pandas(cls, pdf: pd.DataFrame, attrs: Sequence[str], cards: Sequence[int]) -> "CoverageIndex":
        """Driver-side constructor (tests and tiny inputs)."""
        _check_columns(pdf, attrs)
        g = pdf.groupby(list(attrs), sort=False).size().reset_index(name="count")
        return cls(g[list(attrs)].to_numpy(), g["count"].to_numpy(), cards)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cards: Sequence[int]) -> "CoverageIndex":
        """From an in-memory list of tuples (used heavily in tests)."""
        attrs = [f"a{i}" for i in range(len(cards))]
        pdf = pd.DataFrame(list(rows), columns=attrs)
        return cls.from_pandas(pdf, attrs, cards)

    @classmethod
    def from_spark(cls, df: DataFrame, attrs: Sequence[str], cards: Sequence[int]) -> "CoverageIndex":
        """The production path: distributed groupBy/aggregate, then collect
        the (small) distinct-combination relation to the driver."""
        agg = df.groupBy(*attrs).count()
        pdf = agg.toPandas()
        _check_columns(pdf, attrs)
        return cls(pdf[list(attrs)].to_numpy(), pdf["count"].to_numpy(), cards)

    # -- coverage oracle ----------------------------------------------

    def max_covered_level(self, tau: int) -> int:
        """Definition 6 without enumerating MUPs: the largest λ such that
        every pattern of level ≤ λ has coverage ≥ ``tau`` (−1 when the
        root is uncovered).

        Level k is checked by one weighted ``np.bincount`` per k-subset S
        of the attributes over the mixed-radix codes of ``combos[:, S]``,
        which yields the coverage of all Π c_S level-k patterns on S at
        once. If Π c_S > m some combination of S is absent, so it has
        coverage 0 and the level is uncovered without counting; hence no
        bincount is larger than m. The answer equals the minimum MUP
        level minus one: if every level below L is covered and a level-L
        pattern is not, all its parents are covered, so it is a MUP.
        """
        if self.n < tau:
            return -1
        if tau <= 0:
            return self.d
        m = len(self.counts)
        # float64 weights sum exactly: every partial sum is ≤ n < 2**53.
        weights = self.counts.astype(np.float64)
        cols = np.ascontiguousarray(self.combos.T)
        for k in range(1, self.d + 1):
            for attrs in itertools.combinations(range(self.d), k):
                size = math.prod(self.cards[i] for i in attrs)
                if size > m:
                    return k - 1
                code = cols[attrs[0]]
                for i in attrs[1:]:
                    code = code * self.cards[i] + cols[i]
                if np.bincount(code, weights=weights, minlength=size).min() < tau:
                    return k - 1
        return self.d

    def cov(self, p: Pattern) -> int:
        """cov(P, D): AND the masks of the deterministic elements, dot counts."""
        self.cov_calls += 1
        mask: Optional[np.ndarray] = None
        for i, v in enumerate(p):
            if v == X:
                continue
            m = self.masks[i][v]
            mask = m if mask is None else (mask & m)
        if mask is None:
            return self.n
        return int(self.counts[mask].sum())

    def exact_counts(self) -> Dict[Pattern, int]:
        """Multiplicity of every *present* full value combination.

        This is the level-d input of PATTERN-COMBINER; combinations
        absent from the data have count 0 and are simply not listed.
        """
        if self._exact is None:
            self._exact = {
                tuple(int(v) for v in row): int(c)
                for row, c in zip(self.combos, self.counts)
            }
        return self._exact


def _check_columns(pdf: pd.DataFrame, attrs: Sequence[str]) -> None:
    """Audited columns must hold integer codes without NULLs."""
    for a in attrs:
        col = pdf[a]
        if col.isna().any():
            raise ValueError(f"attribute column {a!r} contains NULL")
        if not pd.api.types.is_integer_dtype(col.dtype):
            raise ValueError(f"attribute column {a!r} is not integer-typed ({col.dtype})")
