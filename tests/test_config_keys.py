"""Every CLI config key is set by some test or benchmark.

A key of ``cli.COMMAND_KEYS`` that no file in ``tests/`` or ``benchmark/``
sets selects a behaviour that no test or benchmark run ever turns on: give a
test a non-default value for it, or delete the key.  A top-level key counts
as set when its name appears as a string literal or a keyword argument.  A
nested key counts only under its own parent: as ``"parent": {"name": ...}``
in a nested dict literal, or as ``"parent.name"`` inside a dotted string
literal (``"objective.curvature"``).  So a key does not pass because a key of
the same name in another section is set (``seed``, ``n``, ``k``, ``csv``,
``hierarchy``).  This file's own literals do not count.

Every key also takes only values of its type: each key, under a working
config of its command, is set to values of other types, and the command must
exit with a ConfigError that names the key before it writes any output.
"""

import ast
from pathlib import Path

import pytest

from hypstruct import cli
from test_cli import command_configs, edited, rejected, trained  # noqa: F401 (a fixture)

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for path in sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "benchmark").glob("*.py"))
           if path.resolve() != Path(__file__).resolve()]

# Sections that map names the user picks to one table each: the key under
# such a section is a name, and the table's keys have the section as parent.
NAMED_ENTRIES = {"ood_sets"}


def config_keys(keys, path, parent=None):
    """``(dotted path, parent key or None, key name)`` of every key in the
    table ``keys`` and below."""
    for name, spec in keys.items():
        yield f"{path}.{name}", parent, name
        nested = cli._key(spec).keys
        if nested:
            yield from config_keys(nested, f"{path}.{name}", name)


def key_pairs(path):
    """``(parent, name)`` of each nested key along a path of config keys."""
    keys = [key for i, key in enumerate(path) if i == 0 or path[i - 1] not in NAMED_ENTRIES]
    return zip(keys, keys[1:])


def dict_paths(node, path=(), bound=None):
    """Key paths of a dict literal, through the dict literals nested in it,
    directly or through a name ``bound`` maps to dict literals."""
    bound = bound or {}
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield path + (key.value,)
            nested = [value] if isinstance(value, ast.Dict) else (
                bound.get(value.id, []) if isinstance(value, ast.Name) else [])
            for inner in nested:
                yield from dict_paths(inner, path + (key.value,), bound)


def literal_keys(tree):
    """Bare names (string literals and keyword arguments) and ``(parent,
    name)`` pairs (nested dict literals, also as keyword-argument values, and
    dotted strings) in the parsed module ``tree``."""
    # names assigned a dict literal (``DATA = {"synthetic": ...}``)
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
            bound.setdefault(node.targets[0].id, []).append(node.value)
    names, pairs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
            pairs.update(key_pairs(tuple(node.value.split("."))))
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
            if isinstance(node.value, ast.Dict):
                for keys in dict_paths(node.value, (node.arg,), bound):
                    pairs.update(key_pairs(keys))
        elif isinstance(node, ast.Dict):
            for keys in dict_paths(node, (), bound):
                pairs.update(key_pairs(keys))
    return names, pairs


def test_every_config_key_is_named_by_a_test_or_the_benchmark():
    names, pairs = set(), set()
    for path in SOURCES:
        file_names, file_pairs = literal_keys(ast.parse(path.read_text()))
        names |= file_names
        pairs |= file_pairs
    unset = [dotted for command, keys in cli.COMMAND_KEYS.items()
             for dotted, parent, name in config_keys(keys, command)
             if (name not in names if parent is None else (parent, name) not in pairs)]
    assert not unset, f"no test or benchmark sets: {unset}"


def test_a_nested_key_counts_only_under_its_parent():
    names, pairs = literal_keys(ast.parse(
        'DATA = {"synthetic": {"dim": 4}}\n'
        'run({"train": {"seed": 1}, "dataset": DATA, "ood_sets": {"far": {"far_cluster": {}}}},'
        ' delta={"k": 5}, edits="objective.c")'))
    assert {("train", "seed"), ("dataset", "synthetic"), ("synthetic", "dim"), ("delta", "k"),
            ("ood_sets", "far_cluster"), ("objective", "c")} <= pairs
    assert ("encoder", "seed") not in pairs and "seed" in names and "edits" in names


# Values of the wrong type for a key of each kind: an int key also gets a
# non-integral number, and a seed a negative one.  A kind without an entry
# here fails the test below, so a key of a new kind cannot skip the check.
WRONG = {int: ["3", 2.5], cli.SEED: ["3", 2.5, -1], float: ["x", True], bool: ["false", 1],
         str: [5, {"x": 1}], dict: [5], cli.HIERARCHY: [5], cli.NUMBERS: [0.5, ["x", 0.2]],
         cli.INTEGERS: [4, [1, 4.5, 8]], cli.CHECKPOINTS: [{"a": 5}, {}], cli.OOD_SETS: [{}]}
NO_WRONG_VALUES = object()


def typed_keys(keys, path=()):
    """``(config path, Key)`` of every key in the table ``keys`` and below.  The
    keys of a named-entry section sit under its entry ``far`` of the working
    oodsim config."""
    for name, spec in keys.items():
        key = cli._key(spec)
        yield path + (name,), key
        if key.keys:
            yield from typed_keys(key.keys, path + ((name, "far") if name in NAMED_ENTRIES
                                                    else (name,)))


@pytest.mark.parametrize("command,dotted,value", [
    (command, ".".join(path), value) for command, keys in cli.COMMAND_KEYS.items()
    for path, key in typed_keys(keys) for value in WRONG.get(key.kind, [NO_WRONG_VALUES])])
def test_a_value_of_the_wrong_type_is_a_config_error_naming_its_key(trained, tmp_path, capsys,
                                                                   command, dotted, value):
    assert value is not NO_WRONG_VALUES, f"WRONG has no values for the kind of {dotted}"
    err = rejected(command, edited(command_configs(trained)[command], {dotted: value}),
                   tmp_path, capsys)
    assert err.startswith(f"error: ConfigError: {dotted}: must be "), err
