"""Benchmark of the bmtrunc CLI; run it with `python3 perfbench/run.py` (see README.md)."""
