"""Greedy hitting set (Algorithm 5, §IV-B) with two argmax oracles.

The universe is the cross product of attribute values; the sets are the
uncovered patterns to hit. Each round collects the value combination
that hits the most still-unhit patterns (Chvátal's greedy rule, which
alone gives the ln-approximation). Two oracles find that combination:

* **Dense** (narrow universes): one int32 hit count per value
  combination, an array of shape ``cards``. The patterns are grouped by
  their deterministic positions S; each group's patterns are counted in
  the cells of S (mixed-radix codes, first attribute most significant,
  as in ``CoverageIndex.cells``) and broadcast-added into the hit array.
  A round is one ``argmax``; the groups the chosen combination hits
  subtract their cell from the hit-array slice that fixes S to the
  combination's values, and the cell is zeroed. Over a whole run that
  Python loop runs once per distinct pattern.
* **Algorithm 4** (wide universes): per attribute value (i, v) an
  inverted index holds the bitmask (python int, bit j ↔ pattern j) of
  patterns whose i-th element is v or X — exactly the Figure-9 indices.
  A DFS over the value tree (Figure 10) ANDs the running
  bitmask edge by edge, visits children in decreasing popcount order
  and cuts a subtree as soon as its popcount cannot beat the best
  combination found so far. A child equal to its parent's bitmask
  dominates every sibling leaf by leaf, so the DFS visits it alone.

``greedy_hitting_set`` uses the dense oracle when Π cᵢ plus the groups'
cell count is at most :data:`DENSE_MAX_CELLS` and Algorithm 4 otherwise.

Tie-break: the dense ``argmax`` takes the first maximum in mixed-radix
order, the order of ``itertools.product``, which is also the choice of
``naive_greedy_hitting_set`` (a scan with a strict ``>``). On every
narrow universe the dense output therefore equals the naïve greedy's,
duplicate patterns counted with their multiplicity in both. Algorithm 4
may break ties differently, so its output can differ in size by a few
combinations while keeping the same guarantee.
"""
from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.coverage import Deadline
from repro.core.patterns import X, Pattern

#: Most int32 cells (hit array plus group cells, 4 MiB) the dense oracle
#: takes. It also bounds the build, one broadcast add of Π cᵢ cells per
#: group. Besides these, k patterns take O(k·d) int64 temporaries.
#: Measured on airbnb-like data (τ=1000, 4 vCPUs), dense vs Algorithm 4:
#: d=17, λ=5 (T9's largest), 328,256 cells: 6.9 s vs 94.7 s;
#: d=19, λ=5, 894,016 cells, 11,554 groups: 40.1 s vs 569.3 s.
DENSE_MAX_CELLS = 1 << 20

_UNHITTABLE = (
    "no combination hits the remaining patterns — "
    "patterns must be over the same attribute domain"
)


def _checked_array(patterns: Sequence[Pattern], cards: Sequence[int]) -> np.ndarray:
    """The patterns as a (k, d) array. A value outside its attribute's
    domain makes the pattern unhittable; Algorithm 4 would read a value
    equal to cᵢ as X, so it is rejected here."""
    d = len(cards)
    pats = np.asarray(patterns, dtype=np.int64)
    if pats.shape != (len(patterns), d):
        raise ValueError(f"every pattern must have {d} elements, one per attribute")
    if ((pats < X) | (pats >= np.asarray(cards, dtype=np.int64))).any():
        raise AssertionError(_UNHITTABLE)
    return pats


def build_inverted_indices(
    patterns: Sequence[Pattern], cards: Sequence[int]
) -> List[List[int]]:
    """idx[i][v] = bitmask of patterns with element i ∈ {v, X} (Figure 9)."""
    pats = np.asarray(patterns, dtype=np.int64).reshape(len(patterns), len(cards))
    out = []
    for i, c in enumerate(cards):
        col = pats[:, i]
        # Little-endian packing puts pattern j at byte j // 8, bit j % 8.
        bits = [np.packbits((col == v) | (col == X), bitorder="little") for v in range(c)]
        out.append([int.from_bytes(b.tobytes(), "little") for b in bits])
    return out


def hit_count(
    filter_bv: int,
    idx: Sequence[Sequence[int]],
    cards: Sequence[int],
    deadline: Optional[Deadline] = None,
) -> Tuple[int, Optional[Pattern]]:
    """Algorithm 4: the combination hitting the most still-unhit patterns.

    Iterative DFS with the best-known hit count as a pruning threshold.
    Returns ``(count, combination)``; count 0 with ``None`` when the
    filter is empty (nothing left to hit).
    """
    d = len(cards)
    best_cnt = 0
    best: Optional[Pattern] = None

    def rec(bv: int, i: int, prefix: List[int]) -> None:
        nonlocal best_cnt, best
        if deadline is not None:
            deadline.check()
        # A subtree can only improve on the best-known combination if its
        # bitmask has strictly more set bits than best_cnt.
        scored = []
        for v in range(cards[i]):
            child = bv & idx[i][v]
            if child == bv:
                # Every leaf below a sibling hits a subset of what the
                # same leaf below this child hits, so under the strict >
                # no sibling can replace the best found here. rec is only
                # entered with more than best_cnt bits set in bv.
                scored = [(bv.bit_count(), v, child)]
                break
            c = child.bit_count()
            if c > best_cnt:
                scored.append((c, v, child))
        if i == d - 1:
            for c, v, _child in scored:
                if c > best_cnt:
                    best_cnt = c
                    best = tuple(prefix + [v])
            return
        scored.sort(key=lambda t: -t[0])
        for c, v, child in scored:
            if c <= best_cnt:
                continue  # best_cnt may have grown while visiting siblings
            prefix.append(v)
            rec(child, i + 1, prefix)
            prefix.pop()

    if filter_bv:
        rec(filter_bv, 0, [])
    return best_cnt, best


def greedy_hitting_set(
    patterns: Sequence[Pattern],
    cards: Sequence[int],
    *,
    time_limit: Optional[float] = None,
) -> List[Pattern]:
    """Algorithm 5: repeatedly collect the max-hitting combination until
    every pattern is hit. Returns the value combinations to collect.

    Uses the dense oracle when it fits in :data:`DENSE_MAX_CELLS`,
    otherwise :func:`greedy_hitting_set_dfs`.
    """
    patterns = list(patterns)
    if not patterns:
        return []
    cards = list(cards)
    d = len(cards)
    universe = math.prod(cards)
    # The hit array has one axis per attribute; NumPy 1.x allows 32.
    if d > 32 or not 0 < universe <= DENSE_MAX_CELLS:
        return greedy_hitting_set_dfs(patterns, cards, time_limit=time_limit)
    deadline = Deadline(time_limit, stride=64)
    pats = _checked_array(patterns, cards)

    # One group per set S of deterministic positions. radix is c_i on S
    # and 1 elsewhere, so its row is the shape of the group's cells
    # broadcast against the hit array; strides are 0 off S, so the X
    # elements (-1) add nothing to a pattern's code.
    mask = (pats != X) @ (1 << np.arange(d))
    _, first, inv = np.unique(mask, return_index=True, return_inverse=True)
    det = pats[first] != X
    radix = np.where(det, cards, 1)
    suffix = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1]
    strides = np.where(det, suffix // radix, 0)
    sizes = suffix[:, 0]
    total = int(sizes.sum())
    if universe + total > DENSE_MAX_CELLS:
        return greedy_hitting_set_dfs(patterns, cards, time_limit=time_limit)
    offs = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    codes = offs[inv]
    for i in range(d):  # by column: no second (k, d) array
        codes += pats[:, i] * strides[inv, i]
    flat = np.bincount(codes, minlength=total).astype(np.int32)

    hits = np.zeros(cards, dtype=np.int32)
    for g in range(len(det)):
        deadline.check()
        hits += flat[offs[g]:offs[g] + sizes[g]].reshape(tuple(radix[g]))
    positions = [np.flatnonzero(row).tolist() for row in det]

    remaining = len(patterns)
    out: List[Pattern] = []
    while remaining:
        deadline.check()
        best = int(hits.argmax())
        if hits.flat[best] <= 0:
            raise AssertionError(_UNHITTABLE)
        u = np.unravel_index(best, cards)
        cells = offs + strides @ u
        ks = flat[cells]
        combo = tuple(int(v) for v in u)
        for g in np.flatnonzero(ks).tolist():
            sl: List[object] = [slice(None)] * d
            for i in positions[g]:
                sl[i] = combo[i]
            hits[tuple(sl)] -= ks[g]
        flat[cells] = 0
        remaining -= int(ks.sum())
        out.append(combo)
    return out


def greedy_hitting_set_dfs(
    patterns: Sequence[Pattern],
    cards: Sequence[int],
    *,
    time_limit: Optional[float] = None,
) -> List[Pattern]:
    """Algorithm 5 over Algorithm 4's pruned DFS: the paper's GREEDY, for
    universes too wide for a hit array."""
    deadline = Deadline(time_limit, stride=64)
    patterns = list(patterns)
    if not patterns:
        return []
    _checked_array(patterns, cards)
    idx = build_inverted_indices(patterns, cards)
    filter_bv = (1 << len(patterns)) - 1
    out: List[Pattern] = []
    while filter_bv:
        deadline.check()
        cnt, combo = hit_count(filter_bv, idx, cards, deadline)
        if combo is None or cnt == 0:
            raise AssertionError(_UNHITTABLE)
        out.append(combo)
        hit = filter_bv
        for i, v in enumerate(combo):
            hit &= idx[i][v]
        filter_bv &= ~hit
    return out
