"""Experiment harnesses, one per evaluation table (DESIGN.md §5).

Each harness takes the session SparkSession, runs the paper's sweep at
the given (scaled) parameters, and returns a list of plain dicts — the
same rows the paper's figure reports. ``tables.py`` registers every
table; ``jobs/run.py`` renders its rows as the markdown EXPERIMENTS.md
records next to the paper's numbers.
"""
