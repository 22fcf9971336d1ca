"""Every CLI config key is set by some test or benchmark.

A key of ``cli.COMMAND_KEYS``, at any depth, that no file in ``tests/`` or
``benchmark/`` names, either as a string literal or as a keyword argument,
selects a behaviour that no test or benchmark run ever turns on: give a test
a non-default value for it, or delete the key.  This file's own literals do
not count.
"""

import ast
from pathlib import Path

from hypstruct import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for path in sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "benchmark").glob("*.py"))
           if path.resolve() != Path(__file__).resolve()]


def config_keys(keys, path):
    """``(dotted path, key name)`` of every key in the table ``keys`` and below."""
    for name, spec in keys.items():
        yield f"{path}.{name}", name
        nested = cli._key(spec).keys
        if nested:
            yield from config_keys(nested, f"{path}.{name}")


def named_in_sources():
    """Every string literal and keyword-argument name in ``SOURCES``."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
    return names


def test_every_config_key_is_named_by_a_test_or_the_benchmark():
    named = named_in_sources()
    unset = [dotted for command, keys in cli.COMMAND_KEYS.items()
             for dotted, name in config_keys(keys, command) if name not in named]
    assert not unset, f"no test or benchmark sets: {unset}"
