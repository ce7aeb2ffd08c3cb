"""Coverage oracle over a Spark groupBy aggregate.

The scale-with-n work — scanning the (partitioned) dataset and reducing
it to distinct value combinations with multiplicities — is a single
Spark ``groupBy(*attrs).count()``. The reduced form (≤ min(n, Π c_i)
rows) is pulled to the driver. There, for an attribute subset S, one
weighted bincount of the mixed-radix codes of ``combos[:, S]``
gives the coverage of every pattern whose deterministic positions are
exactly S: the data-cube cells of S (Gray et al., *Data Cube*, ICDE
1996). The cells are built only for the subsets a search asks about and
are memoised, so ``cov(P)`` is one array lookup. They replace Appendix
A's per-value inverted indices; the counts are the same, since both sum
the multiplicities of the combinations that agree with P on S.
"""
from __future__ import annotations

import itertools
import math
import time
from typing import Dict, Optional, Sequence, Tuple

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
    """Coverage of every pattern, as memoised per-subset cell counts.

    Attributes
    ----------
    combos : (m, d) int array of distinct value combinations in the data
    counts : (m,) int array of multiplicities (Σ counts == n)
    cards  : attribute cardinalities
    cov_calls : number of coverage evaluations served (profiling aid)

    Memory: the memo holds one int64 per cell of each attribute subset
    that was touched. Every cell is one pattern, so the memo never
    exceeds Π(c_i + 1) cells, the size of the pattern graph. A search
    limited to level L holds at most Σ_{|S|≤L} Π c_S cells, because
    PATTERN-BREAKER and DEEPDIVER never evaluate a pattern deeper than
    their ``max_level``. Nothing is allocated until a subset is asked for.
    """

    def __init__(self, combos: np.ndarray, counts: np.ndarray, cards: Sequence[int]):
        # Column-major: cells() reads one attribute's column at a time.
        combos = np.asfortranarray(np.asarray(combos, dtype=np.int64).reshape(-1, len(cards)))
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if combos.shape[0] != counts.shape[0]:
            raise ValueError("combos/counts length mismatch")
        self.combos = combos
        self.counts = counts
        self.cards = list(cards)
        self.d = len(self.cards)
        self.n = int(counts.sum())
        # float64 weights sum exactly: every partial sum is ≤ n < 2**53.
        self._weights = counts.astype(np.float64)
        for i, c in enumerate(self.cards):
            col = combos[:, i]
            if col.size and (col.min() < 0 or col.max() >= c):
                raise ValueError(f"attribute {i} has values outside [0, {c})")
        self.cov_calls = 0
        self._cells: Dict[Tuple[int, ...], np.ndarray] = {}

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
        # int64 even when there are no rows, where pandas would pick object.
        values = np.asarray(list(rows), dtype=np.int64).reshape(-1, len(cards))
        return cls.from_pandas(pd.DataFrame(values, columns=attrs), attrs, cards)

    @classmethod
    def from_spark(cls, df: DataFrame, attrs: Sequence[str], cards: Sequence[int]) -> "CoverageIndex":
        """The production path: distributed groupBy/aggregate, then collect
        the (small) distinct-combination relation to the driver."""
        agg = df.groupBy(*attrs).count()
        pdf = agg.toPandas()
        _check_columns(pdf, attrs)
        return cls(pdf[list(attrs)].to_numpy(), pdf["count"].to_numpy(), cards)

    # -- coverage oracle ----------------------------------------------

    def cells(self, attrs: Tuple[int, ...]) -> np.ndarray:
        """Coverage of every pattern whose deterministic positions are
        exactly ``attrs`` (ascending), indexed by the mixed-radix code of
        its values with the first attribute most significant. Memoised."""
        out = self._cells.get(attrs)
        if out is None:
            code = np.zeros(len(self.counts), dtype=np.int64)
            for i in attrs:
                code *= self.cards[i]
                code += self.combos[:, i]
            size = math.prod(self.cards[i] for i in attrs)
            out = np.bincount(code, weights=self._weights, minlength=size).astype(np.int64)
            self._cells[attrs] = out
        return out

    def max_covered_level(self, tau: int) -> int:
        """Definition 6 without enumerating MUPs: the largest λ such that
        every pattern of level ≤ λ has coverage ≥ ``tau`` (−1 when the
        root is uncovered).

        Level k is checked through the cells of each k-subset S of the
        attributes, the coverage of all Π c_S level-k patterns on S at
        once. If Π c_S > m some combination of S is absent, so it has
        coverage 0 and the level is uncovered without counting; hence no
        cell array built here is larger than m. The answer equals the
        minimum MUP level minus one: if every level below L is covered
        and a level-L pattern is not, all its parents are covered, so it
        is a MUP.
        """
        if self.n < tau:
            return -1
        if tau <= 0:
            return self.d
        m = len(self.counts)
        for k in range(1, self.d + 1):
            for attrs in itertools.combinations(range(self.d), k):
                if math.prod(self.cards[i] for i in attrs) > m:
                    return k - 1
                if self.cells(attrs).min() < tau:
                    return k - 1
        return self.d

    def cov(self, p: Pattern) -> int:
        """cov(P, D): P's cell among the cells of its deterministic positions."""
        self.cov_calls += 1
        attrs = []
        code = 0
        for i, v in enumerate(p):
            if v != X:
                attrs.append(i)
                code = code * self.cards[i] + v
        return int(self.cells(tuple(attrs))[code])

    def cov_many(self, attrs: Tuple[int, ...], codes: np.ndarray) -> np.ndarray:
        """``cov()`` of many patterns on one subset at once: the patterns
        whose deterministic positions are exactly ``attrs``, given by
        their cell codes (see ``cells``). Counts each as one evaluation."""
        self.cov_calls += len(codes)
        return self.cells(attrs)[codes]


def _check_columns(pdf: pd.DataFrame, attrs: Sequence[str]) -> None:
    """Audited columns must hold integer codes without NULLs."""
    for a in attrs:
        col = pdf[a]
        if col.isna().any():
            raise ValueError(f"attribute column {a!r} contains NULL")
        if not pd.api.types.is_integer_dtype(col.dtype):
            raise ValueError(f"attribute column {a!r} is not integer-typed ({col.dtype})")
