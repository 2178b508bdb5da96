"""Package metadata and the ``avt-bench`` console script.

Installing is optional: the library, its tests, the benchmarks and the
examples all run from the source tree with ``PYTHONPATH=src``.
``pip install -e .`` adds the ``avt-bench`` command, the same as
``python -m repro.cli``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["avt-bench = repro.cli:main"]},
)
