"""Benchmark of the SeeSAw reproduction; see README.md."""
