"""Benchmark of the fpinoise package; see README.md in this directory."""
