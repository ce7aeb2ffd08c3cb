"""Experiment harnesses for the evaluation tables (DESIGN.md §5): one
per validation table (T1, T2, Fig 6) and one sweep per performance
question (MUP identification T3–T7, enhancement T8–T9).

Each harness takes the session SparkSession, runs the paper's sweep at
the given (scaled) parameters, and returns a list of plain dicts — the
same rows the paper's figure reports. ``tables.py`` registers every
table; ``jobs/run.py`` renders its rows as the markdown EXPERIMENTS.md
records next to the paper's numbers.
"""
