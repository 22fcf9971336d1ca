"""Reproducible experiment driver.

Subcommands: embed-tree, train, eval, spectra, oodsim.  Each takes a JSON
config (--config), an output directory (--out), and an optional --seed that
overrides the config seed.  ``hypstruct <command> --help`` lists the
command's config keys and their defaults; a key the command does not know is
an error.  Every run materializes its fully-resolved config (defaults
included) into the output directory and into each emitted JSON, so a rerun
never depends on built-in defaults drifting: fed back through --config, that
config gives the same artifacts.  Fixed seeds give byte-identical artifacts.
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
from .errors import ConfigError, DivergedError, HypstructError
from .hierarchy import LabelTree, balanced_tree, builtin_cifar10_tree, parse_tree, tree_metric
from .objective import ObjectiveConfig
from .training import EmbedBudget, EncoderSpec, LabeledDataset, SyntheticSpec, TrainConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGED = 2

OBJECTIVE_VARIANTS = {
    "flat": {"alpha": 0.0, "beta": 0.0},
    "l2cpcc": {"cpcc_distance": "l2", "centroid_mode": "euclidean_then_map", "beta": 0.0},
    "hypstructure": {"cpcc_distance": "poincare"},
}


# config keys -------------------------------------------------------------------

REQUIRED = "required"


class Key:
    """A config key without one fixed default.  An absent key takes ``default``,
    else the command's seed plus ``offset``, else a value the command derives
    (``rule`` says how, for --help), else stays out; a rule starting with
    REQUIRED makes it an error.
    ``cast`` converts a given value (None keeps it); ``keys`` is a nested
    section's table, which the command checks."""

    def __init__(self, cast=None, rule="optional", default=None, keys=None, offset=None):
        if offset is not None:
            rule = f"seed + {offset}" if offset else "seed"
        self.cast, self.rule, self.default, self.keys = cast, rule, default, keys
        self.offset = offset


def _key(spec) -> Key:
    """A table entry as a Key; a plain value is a default cast to its type."""
    return spec if isinstance(spec, Key) else Key(type(spec), default=spec)


def _defaults(cls, *skip):
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


def _dataset_key(noise_seed):
    synthetic = {**_defaults(SyntheticSpec, "tree"), "seed": Key(int, offset=0),
                 "noise_seed": noise_seed}
    return Key(default={"synthetic": {}},
               keys={"csv": Key(), "synthetic": Key(keys=synthetic)})


DEFAULT_HIERARCHY = "builtin:cifar10"
DATASET = _dataset_key(Key(int, "optional: noise drawn from seed"))
# a held-out set keeps the training set's class centres and draws fresh noise
HELD_OUT = _dataset_key(Key(int, offset=10))
ENCODER_KEYS = {**_defaults(EncoderSpec), "input_dim": Key(int, "feature dim of the data"),
                "seed": Key(int, offset=1)}
TRAIN_KEYS = {**_defaults(TrainConfig), "seed": Key(int, offset=2)}
OBJECTIVE_KEYS = {"variant": Key(str, "optional: " + " | ".join(OBJECTIVE_VARIANTS)),
                  **_defaults(ObjectiveConfig)}
DELTA_KEYS = {"mode": "auto", "k": 2_000_000, "seed": Key(int, offset=0)}
FAR_CLUSTER_KEYS = {"offset_sigmas": 10.0, "n": 200, "seed": Key(int, offset=0)}
OOD_SET_KEYS = {"csv": Key(), "far_cluster": Key(keys=FAR_CLUSTER_KEYS), "id_eval": Key()}
BLOCK_SPEC_KEYS = {"r": Key(rule=REQUIRED), "balanced_level_counts": Key(), "hierarchy": Key()}
EMBED_BUDGET_KEYS = _defaults(EmbedBudget, "seed")

# each command's top-level table
COMMAND_KEYS = {name: {"command": name, "hierarchy": Key(default=DEFAULT_HIERARCHY),
                       "seed": 0, **keys} for name, keys in {
    "embed-tree": {"dim": 2, "tree_scope": ObjectiveConfig.tree_scope,
                   "curvature": ObjectiveConfig.c, **EMBED_BUDGET_KEYS},
    "train": {"dataset": DATASET, "encoder": Key(default={}, keys=ENCODER_KEYS),
              "objective": Key(default={}, keys=OBJECTIVE_KEYS),
              "train": Key(default={}, keys=TRAIN_KEYS)},
    "eval": {"checkpoint": Key(rule=REQUIRED), "train_dataset": DATASET,
             "eval_dataset": HELD_OUT, "knn_k": 50, "delta": Key(default={}, keys=DELTA_KEYS),
             "cpcc_distance": "native", "gram_csv": False},
    "spectra": {"hierarchy": Key(rule=f"{DEFAULT_HIERARCHY} with features_csv"),
                "block_spec": Key(keys=BLOCK_SPEC_KEYS), "features_csv": Key(),
                "matrix_csv": Key(), "top_k": 100},
    "oodsim": {"methods": Key(rule=f"{REQUIRED}: {{name: checkpoint path}}"),
               "id_train": DATASET, "id_eval": HELD_OUT,
               "ood_sets": Key(rule=f"{REQUIRED}: {{name: OOD set}}", keys=OOD_SET_KEYS)},
}.items()}


def _object(doc, path):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: must be a JSON object")
    return doc


def _checked(doc, keys, path="", seed=None, **derived):
    """``doc`` checked against the table ``keys``, as one new dict.

    A given value is cast; an absent key takes its value from ``derived``, else
    from the table's default or ``seed`` plus its offset.  An unknown or a
    missing required key raises ConfigError naming its path.
    """
    prefix = f"{path}." if path else ""
    for name in _object(doc, path):
        if name not in keys:
            raise ConfigError(f"{prefix}{name}: unknown key; known: {', '.join(keys)}")
    out = {}
    for name, spec in keys.items():
        key = _key(spec)
        if name in doc:
            value = doc[name]
            out[name] = value if key.cast is None or value is None else key.cast(value)
        elif name in derived:
            out[name] = derived[name]
        elif key.default is not None:
            out[name] = key.default
        elif key.offset is not None:
            out[name] = seed + key.offset
        elif key.rule.startswith(REQUIRED):
            raise ConfigError(f"{prefix}{name}: required key is missing")
    return out


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
    doc = {**payload, "config": resolved_config, "version": __version__}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


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


def _write_matrix_csv(path: Path, matrix: np.ndarray):
    """Write a 2-D float matrix as headerless CSV, one row at a time.

    The text is ``_csv_text``'s: csv.writer writes a Python float with repr,
    as float_text does, quotes none of its characters and ends each row
    with CRLF.  Only one row's text is held at a time.
    """
    with path.open("w") as f:
        for row in matrix:
            f.write(",".join(map(repr, row.tolist())) + "\r\n")


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
        return tr.load_dataset_csv(_existing(spec["csv"], "dataset file"), tree), spec
    synthetic = _checked(spec.get("synthetic", {}), keys["synthetic"].keys,
                         f"{path}.synthetic", seed=seed)
    return (tr.generate_hierarchical_gaussians(SyntheticSpec(tree=tree, **synthetic)),
            {"synthetic": synthetic})


def _dataset(cfg, key, tree) -> LabeledDataset:
    """Load the dataset section ``cfg[key]`` and put its checked form in its place."""
    dataset, cfg[key] = load_dataset(cfg[key], tree, cfg["seed"], key,
                                     COMMAND_KEYS[cfg["command"]][key].keys)
    return dataset


def objective_config(doc, path="objective") -> dict:
    """The objective section checked: its variant's preset under the given
    keys, every other key at its ObjectiveConfig default."""
    variant = _object(doc, path).get("variant")
    if variant is not None and variant not in OBJECTIVE_VARIANTS:
        raise ConfigError(f"{path}.variant: unknown objective variant {variant!r}")
    return _checked(doc, OBJECTIVE_KEYS, path, **OBJECTIVE_VARIANTS.get(variant, {}))


def _objective(doc) -> ObjectiveConfig:
    return ObjectiveConfig(**{k: v for k, v in doc.items() if k != "variant"})


# embed-tree ------------------------------------------------------------------

def cmd_embed_tree(cfg: dict, out: Path) -> int:
    tree = load_hierarchy(cfg["hierarchy"])
    dim, c = cfg["dim"], cfg["curvature"]
    budget = EmbedBudget(**{k: cfg[k] for k in EMBED_BUDGET_KEYS}, seed=cfg["seed"])
    _write_json(out / "resolved_config.json", {"resolved": True}, cfg)

    objective = ObjectiveConfig(c=c, tree_scope=cfg["tree_scope"])
    metric = tree_metric(tree)
    results = {}
    for mode in ("poincare", "l2"):
        res = tr.embed_tree_direct(tree, dim, mode, objective, budget)
        results[mode] = res
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
        (out / f"pairs_{mode}.csv").write_text(
            _csv_text([("vertex_a", "vertex_b", "tree_dist", "embedded_dist"), *rows]))
        (out / f"scatter_{mode}.svg").write_text(
            svg.scatter_svg(tree_d, emb_d, xlabel="tree metric", ylabel=f"{mode} distance",
                            title=f"{mode} embedding, CPCC={res.cpcc:.4f}"))
    if dim == 2:
        named = [(tree.names[v], xy) for v, xy in sorted(results["poincare"].coords.items())]
        (out / "poincare_disk.svg").write_text(
            svg.disk_svg(named, title="Poincare-disk tree embedding"))
    _write_json(out / "cpcc.json", {
        "poincare_cpcc": results["poincare"].cpcc,
        "l2_cpcc": results["l2"].cpcc,
        "poincare_per_restart": results["poincare"].per_restart,
        "l2_per_restart": results["l2"].per_restart,
    }, cfg)
    return EXIT_OK


# train -----------------------------------------------------------------------

def cmd_train(cfg: dict, out: Path) -> int:
    tree = load_hierarchy(cfg["hierarchy"])
    seed = cfg["seed"]
    dataset = _dataset(cfg, "dataset", tree)
    cfg["encoder"] = _checked(cfg["encoder"], ENCODER_KEYS, "encoder", seed,
                              input_dim=dataset.dim)
    if cfg["encoder"]["input_dim"] != dataset.dim:
        raise ConfigError(f"encoder.input_dim: {cfg['encoder']['input_dim']} does not match "
                          f"the dataset's feature dimension {dataset.dim}")
    cfg["objective"] = objective_config(cfg["objective"])
    cfg["train"] = _checked(cfg["train"], TRAIN_KEYS, "train", seed)
    enc = EncoderSpec(**cfg["encoder"])
    objective = _objective(cfg["objective"])
    tc = TrainConfig(**cfg["train"])
    _write_json(out / "resolved_config.json", {"resolved": True}, cfg)

    result = tr.train(dataset, tree, enc, objective, tc)
    (out / "history.csv").write_text(
        _csv_text([("epoch", "flat", "cpcc", "center", "lr"), *map(astuple, result.history)]))
    checkpoint = {
        "params": {k: v.tolist() for k, v in result.params.items()},
        **{k: cfg[k] for k in ("encoder", "objective", "train")},
    }
    _write_json(out / "checkpoint.json", checkpoint, cfg)
    last = result.history[-1]
    _write_json(out / "summary.json", {
        "final_flat": last.flat,
        "final_cpcc": last.cpcc,
        "final_center": last.center,
        "skipped_cpcc_steps": result.skipped_cpcc_steps,
        "epochs": tc.epochs,
    }, cfg)
    return EXIT_OK


def load_checkpoint(path):
    """The parameter dict, encoder spec and objective of a checkpoint.json."""
    doc = json.loads(_existing(path, "checkpoint").read_text())
    params = {k: np.asarray(v, dtype=np.float64) for k, v in doc["params"].items()}
    return params, EncoderSpec(**doc["encoder"]), _objective(doc["objective"])


# eval ------------------------------------------------------------------------

def cmd_eval(cfg: dict, out: Path) -> int:
    tree = load_hierarchy(cfg["hierarchy"])
    cfg["delta"] = delta = _checked(cfg["delta"], DELTA_KEYS, "delta", cfg["seed"])
    params, enc, objective = load_checkpoint(cfg["checkpoint"])
    train_ds = _dataset(cfg, "train_dataset", tree)
    eval_ds = _dataset(cfg, "eval_dataset", tree)
    if train_ds.dim != enc.input_dim or eval_ds.dim != enc.input_dim:
        raise HypstructError(f"feature dimension {train_ds.dim}/{eval_ds.dim} does not "
                             f"match checkpoint input_dim {enc.input_dim}")
    # auto resolves from the held-out row count; exact ignores k
    run_mode = delta["mode"]
    if run_mode == "auto":
        run_mode = "exact" if eval_ds.n <= dg.AUTO_EXACT_DELTA_MAX_N else "sampled"
    dg.check_delta_mode(run_mode, delta["k"], eval_ds.n)
    _write_json(out / "resolved_config.json", {"resolved": True}, cfg)

    feats_train = tr.encode(params, enc, train_ds.features)
    feats_eval = tr.encode(params, enc, eval_ds.features)

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
    _write_json(out / "metrics.json", {
        "delta_rel": delta_rel,
        "test_cpcc": cpcc_val,
        "test_cpcc_clamped_pairs": clamped_pairs,
        "knn_fine_accuracy": fine_acc,
        "knn_coarse_accuracy": coarse_acc,
        "delta_mode": run_mode,
        "n_eval": int(eval_ds.n),
    }, cfg)
    if cfg["gram_csv"]:
        # headerless, so that spectra's matrix_csv reads it back with np.loadtxt
        _write_matrix_csv(out / "gram.csv", sp.gram_matrix(feats_eval, eval_ds.labels, tree))
    return EXIT_OK


# spectra ---------------------------------------------------------------------

def cmd_spectra(cfg: dict, out: Path) -> int:
    closed = None
    source = _one_of(cfg, ("block_spec", "features_csv", "matrix_csv"), "")
    if "hierarchy" in cfg and source != "features_csv":
        raise ConfigError(f"hierarchy: read only with features_csv, not with {source}")
    if source == "block_spec":
        cfg["block_spec"] = spec = _checked(cfg["block_spec"], BLOCK_SPEC_KEYS, "block_spec")
        r = [float(x) for x in spec["r"]]
        if _one_of(spec, ("balanced_level_counts", "hierarchy"), "block_spec") == "hierarchy":
            tree = load_hierarchy(spec["hierarchy"])
        else:
            counts = [int(c) for c in spec["balanced_level_counts"]]
            tree = balanced_tree(counts)
            closed = sp.balanced_eigenvalues_closed_form(list(reversed(counts)), r)
        K = sp.build_block_matrix(tree, r)
    elif source == "features_csv":
        tree = load_hierarchy(cfg.setdefault("hierarchy", DEFAULT_HIERARCHY))
        ds, _ = load_dataset({"csv": cfg["features_csv"]}, tree, cfg["seed"])
        K = sp.gram_matrix(ds.features, ds.labels, tree)
    else:
        K = np.loadtxt(_existing(cfg["matrix_csv"], "matrix file"), delimiter=",",
                       dtype=np.float64)

    numerical = sp.numerical_eigenvalues(K)
    _write_json(out / "resolved_config.json", {"resolved": True}, cfg)

    def spectrum_rows(spectrum):
        groups = np.repeat(np.arange(len(spectrum.values)), spectrum.multiplicities)
        return [(rank, spectrum.values[g], int(g)) for rank, g in enumerate(groups, 1)]

    header = ("rank", "eigenvalue", "multiplicity_group")
    (out / "spectrum_numerical.csv").write_text(_csv_text([header, *spectrum_rows(numerical)]))
    discrepancy = None
    if closed is not None:
        (out / "spectrum_closed.csv").write_text(_csv_text([header, *spectrum_rows(closed)]))
        discrepancy = float(np.max(np.abs(closed.expand() - numerical.expand())))
    transitions = sp.phase_transition_detect(numerical, top_k=cfg["top_k"])
    _write_json(out / "report.json", {
        "max_abs_discrepancy": discrepancy,
        "transitions": [{"position": p, "relative_drop": d} for p, d in transitions],
        "n": numerical.order,
    }, cfg)
    return EXIT_OK


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


def cmd_oodsim(cfg: dict, out: Path) -> int:
    tree = load_hierarchy(cfg["hierarchy"])
    id_train = _dataset(cfg, "id_train", tree)
    id_eval = _dataset(cfg, "id_eval", tree)
    methods = _object(cfg["methods"], "methods")
    if not _object(cfg["ood_sets"], "ood_sets"):
        raise ConfigError("ood_sets: needs at least one OOD set")

    ood_sets, ood_inputs = {}, {}
    for name, doc in cfg["ood_sets"].items():
        path = f"ood_sets.{name}"
        ood_sets[name] = doc = _checked(doc, OOD_SET_KEYS, path)
        source = _one_of(doc, tuple(OOD_SET_KEYS), path)
        if source == "csv":
            rows = tr.load_dataset_csv(_existing(doc["csv"], "OOD dataset"), tree).features
        elif source == "far_cluster":
            doc["far_cluster"] = _checked(doc["far_cluster"], FAR_CLUSTER_KEYS,
                                          f"{path}.far_cluster", cfg["seed"])
            rows = _far_cluster(doc["far_cluster"], id_train)
        else:
            rows = id_eval.features
        if rows.shape[0] == 0:
            raise HypstructError(f"OOD set {name!r} is empty")
        ood_inputs[name] = rows
    cfg["ood_sets"] = ood_sets
    _write_json(out / "resolved_config.json", {"resolved": True}, cfg)

    table = {}
    hist_rows = []
    for method, ckpt in methods.items():
        params, enc, _ = load_checkpoint(ckpt)
        fit = dg.fit_gaussian(tr.encode(params, enc, id_train.features))

        def scores(rows):
            return dg.mahalanobis_scores(tr.encode(params, enc, rows), fit)

        id_scores = scores(id_eval.features)
        table[method] = {}
        for name, rows in ood_inputs.items():
            ood_scores = scores(rows)
            table[method][name] = dg.auroc(id_scores, ood_scores)
            hist_rows.extend(_histogram_rows(method, name, id_scores, ood_scores))

    payload = {"auroc": table}
    if len(table) >= 2:
        payload["borda"] = dg.borda_count(table)
    _write_json(out / "auroc.json", payload, cfg)
    (out / "score_histograms.csv").write_text(_csv_text(
        [("method", "ood_set", "bin_left", "bin_right", "id_count", "ood_count"), *hist_rows]))
    return EXIT_OK


def _histogram_rows(method, name, id_scores, ood_scores, bins=50):
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

COMMANDS = {
    "embed-tree": cmd_embed_tree,
    "train": cmd_train,
    "eval": cmd_eval,
    "spectra": cmd_spectra,
    "oodsim": cmd_oodsim,
}


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
    config = {}
    if args.config is not None:
        if not args.config.exists():
            print(f"error: config file not found: {args.config}", file=sys.stderr)
            return EXIT_ERROR
        try:
            config = json.loads(args.config.read_text())
        except json.JSONDecodeError as e:
            print(f"error: bad config JSON: {e}", file=sys.stderr)
            return EXIT_ERROR
    try:
        cfg = _checked(config, COMMAND_KEYS[args.command])
        if cfg["command"] != args.command:
            raise ConfigError(f"command: this config is for {cfg['command']!r}")
        if args.seed is not None:
            cfg["seed"] = args.seed
        args.out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out)
    except DivergedError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except HypstructError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
