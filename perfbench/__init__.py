"""Benchmark of the three Tableau paths; see README.md."""
