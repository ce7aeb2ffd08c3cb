"""Coverage enhancement (§IV): hitting-set formulation and GREEDY solver.

* :mod:`repro.enhance.expand` — Appendix C: all uncovered patterns at
  level λ, derived from the MUPs.
* :mod:`repro.enhance.hitting_set` — Algorithm 5 GREEDY: a dense
  hit-count argmax on narrow universes, Algorithm 4's inverted indices
  and threshold-pruned value tree on wide ones.
* :mod:`repro.enhance.naive_greedy` — the direct greedy baseline.
* :mod:`repro.enhance.apply` — materialise collected combinations into
  tuples and re-verify the maximum covered level end-to-end.
"""
