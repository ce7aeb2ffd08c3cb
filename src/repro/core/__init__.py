"""Core contribution of the paper: coverage model and MUP identification.

Modules:

* :mod:`repro.core.patterns` — the pattern abstraction (§II).
* :mod:`repro.core.coverage` — coverage oracle over a Spark groupBy
  aggregate: memoised per-attribute-subset cell counts.
* :mod:`repro.core.cube` — Spark-native all-pattern coverage (cube) and
  a distributed Definition-5 MUP check over it.
* :mod:`repro.core.naive` — driver-side naïve MUP identification (§III-A).
* :mod:`repro.core.pattern_breaker` — Algorithm 1 (§III-C), one numpy
  batch per attribute subset, level by level.
* :mod:`repro.core.pattern_combiner` — Algorithm 2 (§III-D).
* :mod:`repro.core.deepdiver` — Algorithm 3 (§III-E), the same batch
  per subset, depth-first.
* :mod:`repro.core.brute` — brute-force reference implementations.
"""
from repro.core.patterns import X, Pattern  # noqa: F401
