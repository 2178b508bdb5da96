"""Setuptools shim with no package metadata of its own.

Nothing needs installing: the library, its tests, the benchmarks and the
examples all run from the source tree with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
