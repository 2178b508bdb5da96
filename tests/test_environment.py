"""The library's environment surface: every variable ``src/repro`` reads.

A new environment switch is a new option, so adding one must be a deliberate
edit of :data:`EXPECTED` here.  The benchmark's environment guard relies on
knowing this set.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import repro

EXPECTED = {"REPRO_TRACE", "REPRO_DISABLE_NUMPY", "AVT_BENCH_PROFILE", "AVT_BENCH_SCALE"}


def _is_environ(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _read_variables(tree: ast.AST) -> Iterator[str]:
    """Constant names passed to ``os.environ.get``, ``os.environ[...]``,
    ``os.getenv`` and ``env_flag``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            environ_get = name == "get" and _is_environ(getattr(func, "value", None))
            if not (environ_get or name in ("getenv", "env_flag")):
                continue
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield key.value


def test_library_reads_only_the_known_environment_variables():
    package = Path(repro.__file__).parent
    read = set()
    for module in sorted(package.rglob("*.py")):
        read.update(_read_variables(ast.parse(module.read_text(encoding="utf-8"))))
    assert read == EXPECTED
