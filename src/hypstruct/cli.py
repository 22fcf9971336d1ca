"""Reproducible experiment driver.

Subcommands: embed-tree, train, eval, spectra, oodsim.  Each takes a JSON
config (--config), an output directory (--out), and an optional --seed that
overrides the config seed.  ``hypstruct <command> --help`` lists the
command's config keys and their defaults; a key the command does not know is
an error.  Only once a command has finished are --out, its artifacts and
resolved_config.json written, so a failed command writes nothing.  That file,
like each JSON artifact, holds the config with every default filled in: fed
back through --config, it reruns to byte-identical artifacts.

Config values are strictly typed: an int key takes an integer or an integral
float (kept as an int), a float key any number (kept as a float), a bool key
only true or false, a str key only a string, a path key only a non-empty
string.  A value of the wrong type or range is a ConfigError naming its key,
raised before any output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

# One BLAS thread, forced before numpy loads: a threaded BLAS may split a
# product's sums by thread count, and fixed seeds must give the same bytes
# whatever the machine's cores or BLAS settings.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

import numpy as np

from . import __version__
from . import autodiff as ad
from . import diagnostics as dg
from . import geometry as geo
from . import spectral as sp
from . import svg
from . import training as tr
from .errors import (ConfigError, DivergedError, HypstructError, InvalidLevelCounts, NotSymmetric,
                     must_be)
from .hierarchy import LabelTree, balanced_tree, builtin_cifar10_tree, parse_tree, tree_metric
from .objective import CPCC_DISTANCES, ObjectiveConfig
from .training import EmbedBudget, EncoderSpec, LabeledDataset, SyntheticSpec, TrainConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGED = 2

OBJECTIVE_VARIANTS = {"flat": {"alpha": 0.0, "beta": 0.0},
                      "l2cpcc": {"cpcc_distance": "l2", "beta": 0.0},
                      "hypstructure": {"cpcc_distance": "poincare"}}


# config keys -------------------------------------------------------------------

REQUIRED = "required"
CASTS = {int: ("an integer", lambda v: type(v) in (int, float) and v % 1 == 0, int),
         float: ("a number", lambda v: type(v) in (int, float), float),
         bool: ("true or false", lambda v: type(v) is bool, bool),
         str: ("a string", lambda v: type(v) is str, str),
         dict: ("a JSON object", lambda v: type(v) is dict, dict)}
SEED = ("a nonnegative integer", lambda v: CASTS[int][1](v) and v >= 0, int)
# "" would be the working directory
PATH = ("a non-empty path string", lambda v: type(v) is str and v != "", str)
HIERARCHY = ("a non-empty path string or a tree object",
             lambda v: type(v) is dict or PATH[1](v), lambda v: v)
NUMBERS = ("a list of numbers", lambda v: type(v) is list and all(map(CASTS[float][1], v)), list)
INTEGERS = ("a list of integers", lambda v: type(v) is list and all(map(CASTS[int][1], v)),
            lambda v: [int(x) for x in v])
CHECKPOINTS = ("an object of one or more checkpoint paths", lambda v: type(v) is dict
               and v and all(map(PATH[1], v.values())), dict)
OOD_SETS = ("an object of one or more OOD sets", lambda v: type(v) is dict and v, dict)
RULES = {"positive": lambda v: v > 0, "at least 1": lambda v: v >= 1}


def _must(path, ok, rule, value):
    if not ok:
        raise ConfigError(must_be(path, rule, value))


class Key:
    """A config key.  A given value must be of ``kind``, by default the
    default's type.  An int key takes an integer or an integral float, kept as
    an int; a float key any number, kept as a float; a bool key true or false;
    a str key a string; a dict key an object.  CASTS maps these, the kinds
    after it are the other shapes (PATH a non-empty string), and ``check`` is
    a rule of RULES or a tuple of the allowed values.  An absent key takes
    ``default``, else the command's seed plus ``offset``, else a value the
    command derives (``rule`` says how, for --help), else stays out; a
    REQUIRED rule makes it an error.  ``keys`` is a nested section's table,
    which the command checks."""

    def __init__(self, kind=None, rule="optional", default=None, keys=None, offset=None,
                 check=None):
        if offset is not None:
            rule = f"seed + {offset}" if offset else "seed"
        self.kind, self.rule, self.default = type(default) if kind is None else kind, rule, default
        self.keys, self.offset, self.check = keys, offset, check

    def cast(self, value, path):
        """``value`` as the key keeps it, or ConfigError naming ``path``."""
        what, ok, keep = CASTS.get(self.kind, self.kind)
        _must(path, ok(value), what, value)
        value, check = keep(value), self.check
        if isinstance(check, tuple):
            _must(path, value in check, f"one of {check}", value)
        elif check:
            _must(path, RULES[check](value), check, value)
        return value


def _key(spec) -> Key:
    """A table entry as a Key; a plain value is a default of its own type."""
    return spec if isinstance(spec, Key) else Key(default=spec)


def _defaults(cls, *skip):
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


def _dataset_key(noise_seed):
    synthetic = {**_defaults(SyntheticSpec, "tree"), "seed": Key(SEED, offset=0),
                 "noise_seed": noise_seed}
    return Key(dict, default={"synthetic": {}},
               keys={"csv": Key(PATH), "synthetic": Key(dict, keys=synthetic)})


DEFAULT_HIERARCHY = "builtin:cifar10"
DATASET = _dataset_key(Key(SEED, "optional: noise drawn from seed"))
# a held-out set keeps the training set's class centres and draws fresh noise
HELD_OUT = _dataset_key(Key(SEED, offset=10))
ENCODER_KEYS = {**_defaults(EncoderSpec), "input_dim": Key(int, "feature dim of the data"),
                "seed": Key(SEED, offset=1)}
TRAIN_KEYS = {**_defaults(TrainConfig), "seed": Key(SEED, offset=2)}
OBJECTIVE_KEYS = {"variant": Key(str, "optional: " + " | ".join(OBJECTIVE_VARIANTS),
                                 check=tuple(OBJECTIVE_VARIANTS)),
                  **_defaults(ObjectiveConfig)}
DELTA_KEYS = {"mode": Key(default="auto", check=("auto", "exact", "sampled")),
              "k": 2_000_000, "seed": Key(SEED, offset=0)}
FAR_CLUSTER_KEYS = {"offset_sigmas": 10.0, "n": Key(default=200, check="at least 1"),
                    "seed": Key(SEED, offset=0)}
OOD_SET_KEYS = {"csv": Key(PATH), "far_cluster": Key(dict, keys=FAR_CLUSTER_KEYS),
                "id_eval": Key(bool, check=(True,))}
BLOCK_SPEC_KEYS = {"r": Key(NUMBERS, REQUIRED), "balanced_level_counts": Key(INTEGERS),
                   "hierarchy": Key(HIERARCHY)}
EMBED_BUDGET_KEYS = _defaults(EmbedBudget, "seed")

# each command's top-level table
COMMAND_KEYS = {name: {"command": Key(default=name, check=(name,)),
                       "hierarchy": Key(HIERARCHY, default=DEFAULT_HIERARCHY),
                       "seed": Key(SEED, default=0), **keys} for name, keys in {
    "embed-tree": {"dim": Key(default=2, check="at least 1"),
                   "tree_scope": ObjectiveConfig.tree_scope,
                   "curvature": Key(default=ObjectiveConfig.c, check="positive"),
                   **EMBED_BUDGET_KEYS},
    "train": {"dataset": DATASET, "encoder": Key(dict, default={}, keys=ENCODER_KEYS),
              "objective": Key(dict, default={}, keys=OBJECTIVE_KEYS),
              "train": Key(dict, default={}, keys=TRAIN_KEYS)},
    "eval": {"checkpoint": Key(PATH, REQUIRED), "train_dataset": DATASET,
             "eval_dataset": HELD_OUT, "knn_k": Key(default=50, check="at least 1"),
             "delta": Key(dict, default={}, keys=DELTA_KEYS), "gram_csv": False,
             "cpcc_distance": Key(default="native", check=("native", *CPCC_DISTANCES))},
    "spectra": {"hierarchy": Key(HIERARCHY, f"{DEFAULT_HIERARCHY} with features_csv"),
                "block_spec": Key(dict, keys=BLOCK_SPEC_KEYS), "features_csv": Key(PATH),
                "matrix_csv": Key(PATH), "top_k": Key(default=100, check="at least 1")},
    "oodsim": {"methods": Key(CHECKPOINTS, f"{REQUIRED}: {{name: checkpoint path}}"),
               "id_train": DATASET, "id_eval": HELD_OUT,
               "ood_sets": Key(OOD_SETS, f"{REQUIRED}: {{name: OOD set}}", keys=OOD_SET_KEYS)},
}.items()}


def _checked(doc, keys, path="", seed=None, **derived):
    """``doc`` checked against the table ``keys``, as one new dict: a given
    value cast by its Key, an absent one taken from ``derived``, else the
    default or ``seed`` plus the offset.  An unknown or a missing required
    key raises ConfigError naming its path."""
    prefix = f"{path}." if path else ""
    for name in Key(dict).cast(doc, path or "config"):
        if name not in keys:
            raise ConfigError(f"{prefix}{name}: unknown key; known: {', '.join(keys)}")
    out = {}
    for name, spec in keys.items():
        key = _key(spec)
        if name in doc:
            out[name] = key.cast(doc[name], prefix + name)
        elif name in derived:
            out[name] = derived[name]
        elif key.default is not None:
            out[name] = key.default
        elif key.offset is not None:
            out[name] = seed + key.offset
        elif key.rule.startswith(REQUIRED):
            raise ConfigError(f"{prefix}{name}: required key is missing")
    return out


def _spec(make, doc, path=""):
    """``make(**doc)``; its ValueError, which names the field, a ConfigError under ``path``."""
    try:
        return make(**doc)
    except ValueError as e:
        raise ConfigError(f"{path}.{e}".lstrip(".")) from None


def _one_of(doc, names, path, default=None):
    """The one key of ``names`` that ``doc`` sets; ``default`` when it sets none."""
    given = [name for name in names if name in doc]
    if len(given) > 1 or not (given or default):
        raise ConfigError(f"{path or 'config'}: set {'at most' if default else 'exactly'} "
                          f"one of {', '.join(names)}")
    return given[0] if given else default


def _keys_help(keys, indent=2):
    """One line per key with its default; a section's keys indented below it."""
    lines = []
    for name, spec in keys.items():
        key = _key(spec)
        shown = key.rule if key.default is None else json.dumps(key.default)
        lines.append(f"{' ' * indent}{name:<{26 - indent}} {shown}")
        if key.keys:
            lines += _keys_help(key.keys, indent + 2)
    return lines


# artifacts ---------------------------------------------------------------------

def _existing(path, what) -> Path:
    path = Path(path)
    if not path.exists():
        raise HypstructError(f"{what} not found: {path}")
    return path


def _write_json(path: Path, payload: dict, resolved_config: dict):
    """Write ``payload``, the resolved config and the version as indented JSON.

    ``json.dump`` writes each piece of the text as the encoder makes it;
    ``json.dumps`` would first hold all the pieces and then their join, 0.57
    MB traced for a 146 KB checkpoint against 0.05 MB streamed.  The bytes
    are the same either way.
    """
    doc = {**payload, "config": resolved_config, "version": __version__}
    with path.open("w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def float_text(x) -> str:
    """Shortest text that reads back to the same float, for numpy scalars too."""
    return repr(float(x))


def _csv_text(rows):
    """CSV text; strings and ints verbatim, every other cell as a round-trip float."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([x if isinstance(x, (str, int)) else float_text(x) for x in row])
    return buf.getvalue()


# rows of a block that _write_matrix_csv formats together
MATRIX_CSV_BLOCK_ROWS = 4


def _write_matrix_csv(path: Path, matrix: np.ndarray):
    """Write a symmetric 2-D float matrix as headerless CSV.

    The text is ``_csv_text``'s: csv.writer writes a Python float with repr,
    as float_text does, quotes none of its characters and ends each row
    with CRLF.  Each cell of the upper triangle is formatted once and its
    text reused for the mirror cell: a block of rows is formatted from the
    diagonal rightwards and written, and the text of its columns right of
    the block is kept as the start of those columns' own rows.  What is kept
    peaks at about n²/4 cell texts, under 2 MB at n = 500.  A mirror cell has
    the same text only if it has the same bits, so a matrix that is not
    square or not equal to its transpose bit for bit raises NotSymmetric
    before the file is opened.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {matrix.shape}")
    bits = matrix.view(f"u{matrix.itemsize}")
    if not np.array_equal(bits, bits.T):
        raise NotSymmetric("matrix does not equal its transpose bit for bit")
    n = matrix.shape[0]
    heads = [bytearray() for _ in range(n)]  # each row's text left of the block
    with path.open("wb") as f:
        for i0 in range(0, n, MATRIX_CSV_BLOCK_ROWS):
            i1 = min(i0 + MATRIX_CSV_BLOCK_ROWS, n)
            rows = [list(map(repr, row)) for row in matrix[i0:i1, i0:].tolist()]
            # the block's cells right of it are the mirror cells of the rows below it
            for head, column in zip(heads[i1:], zip(*(row[i1 - i0:] for row in rows))):
                head += (",".join(column) + ",").encode()
            for i, row in enumerate(rows, i0):
                line, heads[i] = heads[i], None
                line += (",".join(row) + "\r\n").encode()
                f.write(line)


def _write_run(out: Path, cfg: dict, files: dict):
    """Make ``out`` and write into it the resolved config and a command's ``files``."""
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "resolved_config.json", {"resolved": True}, cfg)
    for name, content in files.items():
        if isinstance(content, dict):
            _write_json(out / name, content, cfg)
        elif isinstance(content, np.ndarray):
            _write_matrix_csv(out / name, content)
        else:
            (out / name).write_text(content)


def load_hierarchy(spec) -> LabelTree:
    """Accept 'builtin:cifar10', a path to a JSON document, or an inline tree."""
    if isinstance(spec, dict):
        return parse_tree(json.dumps(spec))
    if spec == DEFAULT_HIERARCHY:
        return builtin_cifar10_tree()
    return parse_tree(_existing(spec, "hierarchy file").read_text())


def load_dataset(spec, tree: LabelTree, seed, path="dataset", keys=DATASET.keys):
    """The dataset of a ``{"csv": path}`` or ``{"synthetic": {...}}`` section and
    the section checked against ``keys``, its seeds derived from ``seed``."""
    spec = _checked(spec, keys, path)
    if _one_of(spec, ("csv", "synthetic"), path, default="synthetic") == "csv":
        dataset = tr.load_dataset_csv(_existing(spec["csv"], "dataset file"), tree)
        _must(f"{path}.csv", dataset.dim >= 1, "a CSV file with a feature column", spec["csv"])
        return dataset, spec
    synthetic = _checked(spec.get("synthetic", {}), keys["synthetic"].keys,
                         f"{path}.synthetic", seed=seed)
    return (tr.generate_hierarchical_gaussians(
        _spec(SyntheticSpec, dict(synthetic, tree=tree), f"{path}.synthetic")),
            {"synthetic": synthetic})


def _dataset(cfg, key, tree, dim=None) -> LabeledDataset:
    """Load ``cfg[key]``, of ``dim`` features if given; put its checked form there."""
    dataset, cfg[key] = load_dataset(cfg[key], tree, cfg["seed"], key,
                                     COMMAND_KEYS[cfg["command"]][key].keys)
    _must(key, dim in (None, dataset.dim), f"{dim} features wide, the checkpoint's input_dim",
          dataset.dim)
    return dataset


def _objective(doc, path="objective") -> ObjectiveConfig:
    return _spec(ObjectiveConfig, {k: v for k, v in doc.items() if k != "variant"}, path)


# embed-tree ------------------------------------------------------------------

def cmd_embed_tree(cfg: dict) -> dict:
    tree = load_hierarchy(cfg["hierarchy"])
    dim, c = cfg["dim"], cfg["curvature"]
    objective = _spec(ObjectiveConfig, {"c": c, "tree_scope": cfg["tree_scope"]})
    budget = _spec(EmbedBudget, {**{k: cfg[k] for k in EMBED_BUDGET_KEYS}, "seed": cfg["seed"]})

    metric = tree_metric(tree)
    results, files = {}, {}
    for mode in ("poincare", "l2"):
        res = results[mode] = tr.embed_tree_direct(tree, dim, mode, objective, budget)
        # every pair i < j of the sorted vertex ids, in pair_index order
        vertices = np.array(sorted(res.coords))
        ii, jj, _ = geo.pair_index(len(vertices))
        coords = np.stack([res.coords[v] for v in vertices])
        if mode == "poincare":
            emb_d = geo.dist_rows(coords[ii], coords[jj], c)
        else:
            # one dot product per pair, bit for bit the np.linalg.norm of each
            diff = coords[ii] - coords[jj]
            emb_d = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
        u, v = vertices[ii], vertices[jj]
        tree_d = metric[u, v]
        rows = zip((tree.names[a] for a in u), (tree.names[b] for b in v), tree_d, emb_d)
        files[f"pairs_{mode}.csv"] = _csv_text(
            [("vertex_a", "vertex_b", "tree_dist", "embedded_dist"), *rows])
        files[f"scatter_{mode}.svg"] = svg.scatter_svg(
            tree_d, emb_d, xlabel="tree metric", ylabel=f"{mode} distance",
            title=f"{mode} embedding, CPCC={res.cpcc:.4f}")
    if dim == 2:
        named = [(tree.names[v], xy) for v, xy in sorted(results["poincare"].coords.items())]
        files["poincare_disk.svg"] = svg.disk_svg(named, title="Poincare-disk tree embedding")
    files["cpcc.json"] = {
        "poincare_cpcc": results["poincare"].cpcc,
        "l2_cpcc": results["l2"].cpcc,
        "poincare_per_restart": results["poincare"].per_restart,
        "l2_per_restart": results["l2"].per_restart,
    }
    return files


# train -----------------------------------------------------------------------

def cmd_train(cfg: dict) -> dict:
    tree = load_hierarchy(cfg["hierarchy"])
    dataset = _dataset(cfg, "dataset", tree)
    cfg["encoder"] = _checked(cfg["encoder"], ENCODER_KEYS, "encoder", cfg["seed"],
                              input_dim=dataset.dim)
    _must("encoder.input_dim", cfg["encoder"]["input_dim"] == dataset.dim,
          f"the dataset's feature dimension {dataset.dim}", cfg["encoder"]["input_dim"])
    # the variant's preset stands in for each key the section does not give
    variant = _checked(cfg["objective"], OBJECTIVE_KEYS, "objective").get("variant")
    cfg["objective"] = _checked(cfg["objective"], OBJECTIVE_KEYS, "objective",
                                **OBJECTIVE_VARIANTS.get(variant, {}))
    cfg["train"] = _checked(cfg["train"], TRAIN_KEYS, "train", cfg["seed"])
    enc = _spec(EncoderSpec, cfg["encoder"], "encoder")
    objective = _objective(cfg["objective"])
    tc = _spec(TrainConfig, cfg["train"], "train")
    _must("train.batch_size", tc.batch_size <= dataset.n,
          f"at most the dataset's {dataset.n} rows", tc.batch_size)
    _must("objective.flat_loss", objective.flat_loss != "supcon" or dataset.view2 is not None,
          "'cross_entropy' on a csv dataset, which has one view per sample", objective.flat_loss)
    if objective.flat_loss != "supcon":
        dataset.view2 = None  # only SupCon reads the second view

    result = tr.train(dataset, tree, enc, objective, tc)
    last = result.history[-1]
    return {
        "history.csv": _csv_text([("epoch", "flat", "cpcc", "center", "lr"),
                                  *map(astuple, result.history)]),
        "checkpoint.json": {"params": {k: v.tolist() for k, v in result.params.items()},
                            **{k: cfg[k] for k in ("encoder", "objective", "train")}},
        "summary.json": {"final_flat": last.flat, "final_cpcc": last.cpcc,
                         "final_center": last.center, "epochs": tc.epochs,
                         "skipped_cpcc_steps": result.skipped_cpcc_steps},
    }


def load_checkpoint(path):
    """The encoder parameters, encoder spec and objective of a checkpoint.json.

    A file that is not valid JSON raises ConfigError naming the file; a
    missing key, a key ``train`` does not accept (e.g. the removed
    ``objective.map_mode``) or an encoder parameter not of the shape that
    ``training.encoder_shapes`` gives raises ConfigError naming the file and
    the key."""
    try:
        doc = json.loads(_existing(path, "checkpoint").read_text())
    except ValueError as e:  # a JSONDecodeError, or bytes that are not text
        raise ConfigError(f"{path}: not valid JSON: {e}") from None
    doc = Key(dict).cast(doc, str(path))
    for name in ("params", "encoder", "objective"):
        if name not in doc:
            raise ConfigError(f"{path}: {name}: required key is missing")
    # the encoder seed only drew the initial weights; it is not read again
    enc = _spec(EncoderSpec, _checked(doc["encoder"], ENCODER_KEYS, f"{path}: encoder", seed=0),
                f"{path}: encoder")
    objective = _checked(doc["objective"], OBJECTIVE_KEYS, f"{path}: objective")
    stored = Key(dict).cast(doc["params"], f"{path}: params")
    params = {}
    for name, shape in tr.encoder_shapes(enc).items():
        if name not in stored:
            raise ConfigError(f"{path}: params.{name}: required key is missing")
        try:
            params[name] = np.asarray(stored[name], dtype=np.float64)
        except (TypeError, ValueError):  # ragged or not numbers
            raise ConfigError(f"{path}: params.{name}: not a {shape} array") from None
        if params[name].shape != shape:
            raise ConfigError(f"{path}: params.{name}: shape {params[name].shape} is not {shape}")
    return params, enc, _objective(objective, f"{path}: objective")


# eval ------------------------------------------------------------------------

def cmd_eval(cfg: dict) -> dict:
    tree = load_hierarchy(cfg["hierarchy"])
    cfg["delta"] = delta = _checked(cfg["delta"], DELTA_KEYS, "delta", cfg["seed"])
    params, enc, objective = load_checkpoint(cfg["checkpoint"])
    train_ds = _dataset(cfg, "train_dataset", tree, enc.input_dim)
    eval_ds = _dataset(cfg, "eval_dataset", tree, enc.input_dim)
    # auto resolves from the held-out row count; exact ignores k
    run_mode = delta["mode"]
    if run_mode == "auto":
        run_mode = "exact" if eval_ds.n <= dg.AUTO_EXACT_DELTA_MAX_N else "sampled"
    _spec(dg.check_delta_mode, {"mode": run_mode, "k": delta["k"], "n": eval_ds.n}, "delta")

    feats_train = tr.encode_rows(params, enc, train_ds.features)
    feats_eval = tr.encode_rows(params, enc, eval_ds.features)

    cpcc_distance = cfg["cpcc_distance"]
    if cpcc_distance == "native":
        cpcc_distance = objective.cpcc_distance if objective.alpha > 0 else "l2"
    # each prototype pair's Poincare distance takes one atanh
    clamps_before = ad.total_atanh_clamps()
    cpcc_val = dg.test_cpcc(feats_eval, eval_ds.labels, tree,
                            distance_mode=cpcc_distance, c=objective.c)
    clamped_pairs = ad.total_atanh_clamps() - clamps_before
    dm = dg.pairwise_l2(feats_eval)
    _, delta_rel = dg.delta_hyperbolicity(dm, mode=run_mode, k=delta["k"], seed=delta["seed"])
    fine_acc, coarse_acc = dg.knn_accuracies(feats_train, train_ds.labels, feats_eval,
                                             eval_ds.labels, tree,
                                             k=min(cfg["knn_k"], feats_train.shape[0]))
    files = {"metrics.json": {
        "delta_rel": delta_rel,
        "test_cpcc": cpcc_val,
        "test_cpcc_clamped_pairs": clamped_pairs,
        "knn_fine_accuracy": fine_acc,
        "knn_coarse_accuracy": coarse_acc,
        "delta_mode": run_mode,
        "n_eval": int(eval_ds.n),
    }}
    if cfg["gram_csv"]:
        # headerless, so that spectra's matrix_csv reads it back with np.loadtxt
        files["gram.csv"] = sp.gram_matrix(feats_eval, eval_ds.labels, tree)
    return files


# spectra ---------------------------------------------------------------------

def cmd_spectra(cfg: dict) -> dict:
    closed = None
    source = _one_of(cfg, ("block_spec", "features_csv", "matrix_csv"), "")
    if "hierarchy" in cfg and source != "features_csv":
        raise ConfigError(f"hierarchy: read only with features_csv, not with {source}")
    if source == "block_spec":
        cfg["block_spec"] = spec = _checked(cfg["block_spec"], BLOCK_SPEC_KEYS, "block_spec")
        form = _one_of(spec, ("balanced_level_counts", "hierarchy"), "block_spec")
        if form == "hierarchy":
            tree = load_hierarchy(spec["hierarchy"])
        else:
            try:
                tree = balanced_tree(counts := spec["balanced_level_counts"])
            except InvalidLevelCounts as e:
                raise ConfigError(must_be("block_spec.balanced_level_counts",
                                          f"balanced level counts ({e})", counts)) from None
        # one leaf is a 1 x 1 matrix: no gap between eigenvalues to report
        _must(f"block_spec.{form}", tree.n_classes >= 2, "a tree of at least two leaves",
              spec[form])
        height = max(map(tree.depth, tree.leaf_classes))
        _must("block_spec.r", len(spec["r"]) == height,
              f"{height} values, one per level below the root", spec["r"])
        if "balanced_level_counts" in spec:
            closed = sp.balanced_eigenvalues_closed_form(counts[::-1], spec["r"])
        K = sp.build_block_matrix(tree, spec["r"])
    elif source == "features_csv":
        tree = load_hierarchy(cfg.setdefault("hierarchy", DEFAULT_HIERARCHY))
        ds, _ = load_dataset({"csv": cfg["features_csv"]}, tree, cfg["seed"])
        _must("features_csv", ds.n >= 2, "a CSV file of at least two data rows",
              cfg["features_csv"])
        K = sp.gram_matrix(ds.features, ds.labels, tree)
    else:
        try:
            K = np.loadtxt(_existing(cfg["matrix_csv"], "matrix file"), delimiter=",",
                           dtype=np.float64)
        except ValueError as e:  # a cell that is not a number, or ragged rows
            raise ConfigError(must_be("matrix_csv", f"a CSV file of equal rows of numbers ({e})",
                                      cfg["matrix_csv"])) from None

    numerical = sp.numerical_eigenvalues(K)

    def spectrum_rows(spectrum):
        groups = np.repeat(np.arange(len(spectrum.values)), spectrum.multiplicities)
        return [(rank, spectrum.values[g], int(g)) for rank, g in enumerate(groups, 1)]

    header = ("rank", "eigenvalue", "multiplicity_group")
    files = {"spectrum_numerical.csv": _csv_text([header, *spectrum_rows(numerical)])}
    discrepancy = None
    if closed is not None:
        files["spectrum_closed.csv"] = _csv_text([header, *spectrum_rows(closed)])
        discrepancy = float(np.max(np.abs(closed.expand() - numerical.expand())))
    transitions = sp.phase_transition_detect(numerical, top_k=cfg["top_k"])
    files["report.json"] = {
        "max_abs_discrepancy": discrepancy,
        "transitions": [{"position": p, "relative_drop": d} for p, d in transitions],
        "n": numerical.order,
    }
    return files


# oodsim ----------------------------------------------------------------------

def _far_cluster(doc, id_train: LabeledDataset):
    rng = np.random.default_rng(doc["seed"])
    x = id_train.features
    mean = x.mean(axis=0)
    sigma = float(np.mean(x.std(axis=0)))
    if sigma == 0.0:
        sigma = 1.0
    max_radius = float(np.max(np.linalg.norm(x - mean, axis=1)))
    direction = rng.standard_normal(x.shape[1])
    direction /= np.linalg.norm(direction)
    center = mean + direction * (max_radius + doc["offset_sigmas"] * sigma)
    return center + sigma * rng.standard_normal((doc["n"], x.shape[1]))


def cmd_oodsim(cfg: dict) -> dict:
    tree = load_hierarchy(cfg["hierarchy"])
    id_train = _dataset(cfg, "id_train", tree)
    id_eval = _dataset(cfg, "id_eval", tree)

    ood_inputs = {}
    for name, doc in cfg["ood_sets"].items():
        path = f"ood_sets.{name}"
        cfg["ood_sets"][name] = doc = _checked(doc, OOD_SET_KEYS, path)
        source = _one_of(doc, tuple(OOD_SET_KEYS), path)
        if source == "csv":
            rows = tr.load_dataset_csv(_existing(doc["csv"], "OOD dataset"), tree).features
        elif source == "far_cluster":
            doc["far_cluster"] = _checked(doc["far_cluster"], FAR_CLUSTER_KEYS,
                                          f"{path}.far_cluster", cfg["seed"])
            rows = _far_cluster(doc["far_cluster"], id_train)
        else:
            rows = id_eval.features
        ood_inputs[name] = rows
    checkpoints = {}
    dims = {id_train.dim, id_eval.dim, *(rows.shape[1] for rows in ood_inputs.values())}
    for method, ckpt in cfg["methods"].items():
        checkpoints[method] = params, enc, _ = load_checkpoint(ckpt)
        _must(f"methods.{method}", dims == {enc.input_dim},
              f"a checkpoint of the data's feature dimension {sorted(dims)}", enc.input_dim)

    table = {}
    hist_rows = []
    for method, (params, enc, _) in checkpoints.items():
        fit = dg.fit_gaussian(tr.encode_rows(params, enc, id_train.features))

        def scores(rows):
            return dg.mahalanobis_scores(tr.encode_rows(params, enc, rows), fit)

        id_scores = scores(id_eval.features)
        table[method] = {}
        for name, rows in ood_inputs.items():
            ood_scores = scores(rows)
            table[method][name] = dg.auroc(id_scores, ood_scores)
            hist_rows.extend(_histogram_rows(method, name, id_scores, ood_scores))

    payload = {"auroc": table}
    if len(table) >= 2:
        payload["borda"] = dg.borda_count(table)
    return {"auroc.json": payload, "score_histograms.csv": _csv_text(
        [("method", "ood_set", "bin_left", "bin_right", "id_count", "ood_count"), *hist_rows])}


def _histogram_rows(method, name, id_scores, ood_scores):
    bins = 50
    lo = float(min(id_scores.min(), ood_scores.min()))
    hi = float(max(id_scores.max(), ood_scores.max()))
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    id_hist, _ = np.histogram(id_scores, bins=edges)
    ood_hist, _ = np.histogram(ood_scores, bins=edges)
    return [(method, name, float(edges[i]), float(edges[i + 1]),
             int(id_hist[i]), int(ood_hist[i])) for i in range(bins)]


# entry point -------------------------------------------------------------------

COMMANDS = {"embed-tree": cmd_embed_tree, "train": cmd_train, "eval": cmd_eval,
            "spectra": cmd_spectra, "oodsim": cmd_oodsim}


def build_parser():
    parser = argparse.ArgumentParser(prog="hypstruct",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON config file (defaults apply when omitted)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--out", type=Path, required=True,
                        help="output directory for artifacts")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in COMMAND_KEYS.items():
        sub.add_parser(name, parents=[common], formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="config keys and defaults:\n" + "\n".join(_keys_help(keys)))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        existing = next(p for p in (args.out, *args.out.parents) if p.exists())
        _must("--out", existing.is_dir() and os.access(existing, os.W_OK | os.X_OK),
              "a writable directory or a new path under one", str(args.out))
        config = {}
        if args.config is not None:
            if not args.config.exists():
                raise FileNotFoundError(f"config file not found: {args.config}")
            try:
                config = json.loads(args.config.read_text())
            except json.JSONDecodeError as e:
                raise ValueError(f"bad config JSON: {e}") from None
        if args.seed is not None:
            config = {**Key(dict).cast(config, "config"), "seed": args.seed}
        cfg = _checked(config, COMMAND_KEYS[args.command])
        _write_run(args.out, cfg, COMMANDS[args.command](cfg))
        return EXIT_OK
    except HypstructError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DIVERGED if isinstance(e, DivergedError) else EXIT_ERROR
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def run():
    """Process entry of both ``hypstruct`` and ``python -m hypstruct.cli``.

    Ends the process with ``os._exit`` once ``main`` returns, which skips
    interpreter teardown: module finalization, mostly numpy's, that takes
    30-40 ms per command and that a finished command does not need.  It is
    safe because ``_write_run`` has closed every file before ``main`` returns,
    and both streams are flushed here.  An exception, or argparse's
    SystemExit, leaves by the normal exit.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
