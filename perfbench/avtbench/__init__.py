"""Benchmark package for the anchored vertex tracking library (see ../README.md)."""
