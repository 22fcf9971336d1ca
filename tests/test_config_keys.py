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
exit with a ConfigError that names the key before it writes any output.  The
same holds for a value out of range: outside a key's own check, outside a
field rule of the spec dataclass the command builds from its section, or
outside a rule the command checks against the data (a batch larger than the
dataset, an exact delta over too many rows, one ``r`` value per tree level),
and every such rule in cli.py has a case.  So no value out of range reaches
the numerical code below the command line.
"""

import ast
import re
from pathlib import Path

import pytest

from hypstruct import cli
from hypstruct import objective as obj
from hypstruct import training as tr
from hypstruct.hierarchy import balanced_tree
from test_cli import DELETE, TREE, command_configs, edited, rejected, trained  # noqa: F401

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
# non-integral number, a seed a negative one, and a path the empty string
# (the working directory).  A kind without an entry
# here fails the test below, so a key of a new kind cannot skip the check.
WRONG = {int: ["3", 2.5], cli.SEED: ["3", 2.5, -1], float: ["x", True], bool: ["false", 1],
         str: [5, {"x": 1}], cli.PATH: [5, ""], dict: [5], cli.HIERARCHY: [5, ""],
         cli.NUMBERS: [0.5, ["x", 0.2]], cli.INTEGERS: [4, [1, 4.5, 8]],
         cli.CHECKPOINTS: [{"a": 5}, {}, {"a": ""}], cli.OOD_SETS: [{}]}
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


# A value outside each rule of ``cli.RULES``; a tuple of allowed values is
# left by a string not in it, or by the other bool.  A rule without an entry
# fails the test below, so a key with a new rule cannot skip it.
BEYOND = {"positive": [0.0, -1.0], "at least 1": [0, -3]}


def beyond(check):
    if isinstance(check, tuple):
        return ["bogus"] if isinstance(check[0], str) else [not check[0]]
    return BEYOND.get(check, [NO_WRONG_VALUES])


# The sections each command builds a spec dataclass from: its fields are the
# section's keys ("" is the top level).
SPEC_SECTIONS = {
    tr.EncoderSpec: [("train", "encoder")],
    tr.TrainConfig: [("train", "train")],
    obj.ObjectiveConfig: [("train", "objective"), ("embed-tree", "")],
    tr.EmbedBudget: [("embed-tree", "")],
    tr.SyntheticSpec: [("train", "dataset.synthetic"), ("eval", "train_dataset.synthetic"),
                       ("eval", "eval_dataset.synthetic"), ("oodsim", "id_train.synthetic"),
                       ("oodsim", "id_eval.synthetic")],
}
# A value outside each field rule of a spec dataclass; a field whose rule has
# no entry fails the test below.
SPEC_BEYOND = {"kind": ["cnn"], "input_dim": [0], "hidden_dim": [0], "output_dim": [0],
               "epochs": [0], "batch_size": [0], "lr0": [0.0], "momentum": [1.0, -0.1],
               "weight_decay": [-1e-4], "schedule": ["step"], "alpha": [-1.0],
               "beta": [-0.01], "tau": [0.0], "c": [0.0], "tree_scope": ["bogus"],
               "centroid_mode": ["bogus"], "flat_loss": ["bogus"], "cpcc_distance": ["bogus"],
               "restarts": [0], "steps": [-1], "dim": [0], "n_per_leaf": [0]}


def judged_fields(cls):
    """The fields whose rules ``cls`` checks through ``errors.check_fields``."""
    judged = []

    def spy(spec, checks):
        judged.extend(name for name, _, _ in checks)

    with pytest.MonkeyPatch.context() as patch:
        for module in (tr, obj):
            patch.setattr(module, "check_fields", spy)
        cls(**({"tree": balanced_tree((1, 2))} if cls is tr.SyntheticSpec else {}))
    return judged


def section_keys(command, section):
    keys = cli.COMMAND_KEYS[command]
    for name in filter(None, section.split(".")):
        keys = cli._key(keys[name]).keys
    return keys


def out_of_range_cases():
    """``(command, dotted key, edits, rule)`` of every key check and every
    spec field rule a config key reaches; a case without a command or a
    value fails the test."""
    for command, keys in cli.COMMAND_KEYS.items():
        for path, key in typed_keys(keys):
            if key.check:
                dotted = ".".join(path)
                for value in beyond(key.check):
                    yield pytest.param(command, dotted, {dotted: value}, "",
                                       id=f"{command}:{dotted}={value!r}")
    for cls, sections in SPEC_SECTIONS.items():
        for field in judged_fields(cls):
            reached = [(command, f"{section}.{field}".lstrip(".")) for command, section
                       in sections if field in section_keys(command, section)]
            for command, dotted in reached or [(None, f"{cls.__name__}.{field}")]:
                for value in SPEC_BEYOND.get(field, [NO_WRONG_VALUES]):
                    yield pytest.param(command, dotted, {dotted: value}, "",
                                       id=f"{command}:{dotted}={value!r}")


class File:
    """The path of a file of ``text``, as an edit's value; written when the case runs."""

    def __init__(self, text):
        self.text = text

    def write(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.text)
        return str(path)


# 40 rows of one view each
ONE_VIEW_CSV = "label,a,b,c,d\n" + "".join(f"leaf_{i % 4},{i},0,0,1\n" for i in range(40))

# Rules the commands check against the data, each with the start of its rule text.
DATA_RULES = [
    ("train", "train.batch_size", {"train.batch_size": 41}, "at most the dataset's 40 rows"),
    ("train", "encoder.input_dim", {"encoder.input_dim": 5},
     "the dataset's feature dimension 4"),
    ("train", "dataset.csv",
     {"dataset.synthetic": DELETE, "dataset.csv": File("label\nleaf_0\nleaf_1\n")},
     "a CSV file with a feature column"),
    ("train", "objective.flat_loss", {"dataset.synthetic": DELETE,
                                      "dataset.csv": File(ONE_VIEW_CSV),
                                      "objective.flat_loss": "supcon"},
     "'cross_entropy' on a csv dataset"),
    ("eval", "train_dataset", {"train_dataset.synthetic.dim": 5}, "4 features wide"),
    ("eval", "delta.k", {"delta.mode": "sampled", "delta.k": 0}, "at least 1 in sampled mode"),
    ("eval", "delta.mode", {"delta.mode": "exact", "eval_dataset.synthetic.n_per_leaf": 101},
     "'sampled' on 404 points: exact mode is capped at n <= 400"),
    ("oodsim", "methods.method", {"id_eval.synthetic.dim": 5},
     "a checkpoint of the data's feature dimension [4, 5]"),
    ("spectra", "block_spec.r", {"block_spec.r": [0.8]},
     "2 values, one per level below the root"),
    ("spectra", "block_spec.r", {"block_spec.r": [0.8, 0.4, 0.2]},
     "2 values, one per level below the root"),
    ("spectra", "block_spec.r", {"block_spec.balanced_level_counts": DELETE,
                                 "block_spec.hierarchy": TREE, "block_spec.r": [0.8, 0.4, 0.2]},
     "2 values, one per level below the root"),
    ("spectra", "block_spec.balanced_level_counts",
     {"block_spec.balanced_level_counts": [2, 4]},
     "balanced level counts (the root level count must be 1)"),
    ("spectra", "block_spec.balanced_level_counts",
     {"block_spec.balanced_level_counts": [1, 2, 5]}, "balanced level counts (2 does not divide 5)"),
    ("spectra", "block_spec.balanced_level_counts", {"block_spec.balanced_level_counts": [1]},
     "balanced level counts (need at least a root level and a leaf level)"),
    ("spectra", "block_spec.hierarchy",
     {"block_spec.balanced_level_counts": DELETE, "block_spec.r": [0.5],
      "block_spec.hierarchy": {"name": "root", "children": [{"name": "a"}]}},
     "a tree of at least two leaves"),
    ("spectra", "block_spec.balanced_level_counts",
     {"block_spec.balanced_level_counts": [1, 1], "block_spec.r": [0.5]},
     "a tree of at least two leaves"),
    ("spectra", "features_csv",
     {"block_spec": DELETE, "hierarchy": TREE, "features_csv": File("label,a,b\nleaf_0,1,2\n")},
     "a CSV file of at least two data rows"),
    ("spectra", "matrix_csv", {"block_spec": DELETE, "matrix_csv": File("1,a\na,1\n")},
     "a CSV file of equal rows of numbers (could not convert string 'a' to float64"),
    ("spectra", "matrix_csv", {"block_spec": DELETE, "matrix_csv": File("1,0\n0\n")},
     "a CSV file of equal rows of numbers (the number of columns changed"),
    # an edit named like a command-line option is passed as that option
    ("spectra", "--out", {"--out": File("not a directory")},
     "a writable directory or a new path under one"),
]


@pytest.mark.parametrize("command,dotted,edits,rule", [
    *out_of_range_cases(),
    *(pytest.param(*case, id=f"{case[0]}:{case[1]}:data{i}") for i, case in enumerate(DATA_RULES))])
def test_a_value_out_of_range_is_a_config_error_naming_its_key(trained, tmp_path, capsys,
                                                              command, dotted, edits, rule):
    assert command is not None, f"no config key reaches the rule on {dotted}"
    assert NO_WRONG_VALUES not in edits.values(), f"no out-of-range value for {dotted}"
    edits = {key: value.write(tmp_path) if isinstance(value, File) else value
             for key, value in edits.items()}
    args = [arg for key, value in edits.items() if key.startswith("--") for arg in (key, value)]
    config = edited(command_configs(trained)[command],
                    {key: value for key, value in edits.items() if not key.startswith("--")})
    err = rejected(command, config, tmp_path, capsys, *args)
    assert err.startswith(f"error: ConfigError: {dotted}: must be {rule}"), err


def template(node, placeholder):
    """A ``str`` or f-string argument of a call as text, each replacement
    field (and an argument that is a name) as ``placeholder``."""
    if isinstance(node, ast.Constant):
        return [node.value]
    parts = node.values if isinstance(node, ast.JoinedStr) else [node]
    return [p.value if isinstance(p, ast.Constant) else placeholder for p in parts]


def data_rule_sites():
    """``(line, key pattern, rule start)`` of every ``_must`` call and
    ``must_be`` message in cli.py but the key checks of ``Key.cast``: the
    key as a regex, the rule up to its first replacement field."""
    tree = ast.parse((ROOT / "src" / "hypstruct" / "cli.py").read_text())
    inside = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              and fn.name in ("cast", "_must") for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and id(node) not in inside
                and node.func.id in ("_must", "must_be")):
            key, rule = node.args[0], node.args[2 if node.func.id == "_must" else 1]
            pattern = "".join(re.escape(p) if p else ".+" for p in template(key, None))
            yield node.lineno, pattern, "".join(template(rule, "\0")).split("\0")[0]


def test_every_data_rule_has_a_case():
    # a case covers a rule when it names a key of the rule's pattern and its
    # rule text agrees with the rule's leading text as far as both go
    sites = list(data_rule_sites())
    missing = [(line, pattern, start) for line, pattern, start in sites
               if not any(re.fullmatch(pattern, dotted) and text[:len(start)] == start[:len(text)]
                          for _, dotted, _, text in DATA_RULES)]
    assert sites and missing == []
