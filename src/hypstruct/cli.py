"""Reproducible experiment driver.

Subcommands: embed-tree, train, eval, spectra, oodsim.  Each takes a JSON
config (--config), an output directory (--out), and an optional --seed that
overrides the config seed.  Every run materializes its fully-resolved config
(defaults included) into the output directory and into each emitted JSON, so
a rerun never depends on built-in defaults drifting.  Fixed seeds give
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import spectral as sp
from . import svg
from . import training as tr
from .errors import DivergedError, HypstructError
from .hierarchy import LabelTree, balanced_tree, builtin_cifar10_tree, parse_tree, tree_metric
from .objective import ObjectiveConfig
from .training import EmbedBudget, EncoderSpec, LabeledDataset, SyntheticSpec, TrainConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGED = 2

# SyntheticSpec's generator settings and their defaults; the seeds are
# resolved per command
SYNTHETIC_SETTINGS = {f.name: f.default for f in fields(SyntheticSpec)
                      if f.name not in ("tree", "seed", "noise_seed")}

OBJECTIVE_VARIANTS = {
    "flat": {"alpha": 0.0, "beta": 0.0},
    "l2cpcc": {"cpcc_distance": "l2", "centroid_mode": "euclidean_then_map", "beta": 0.0},
    "hypstructure": {"cpcc_distance": "poincare"},
}


def _fail(message):
    raise HypstructError(message)


def _write_text(path: Path, text: str):
    path.write_text(text)


def _write_json(path: Path, payload: dict, resolved_config: dict):
    doc = dict(payload)
    doc["config"] = resolved_config
    doc["version"] = __version__
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _csv_text(rows):
    """CSV text; strings and ints verbatim, every other cell as a round-trip float."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([x if isinstance(x, (str, int)) else tr.float_text(x) for x in row])
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
    if spec == "builtin:cifar10":
        return builtin_cifar10_tree()
    path = Path(spec)
    if not path.exists():
        _fail(f"hierarchy file not found: {spec}")
    return parse_tree(path.read_text())


def load_dataset(spec, tree: LabelTree, default_seed, default_noise_seed=None) -> LabeledDataset:
    """Dataset from ``{"csv": path}`` or ``{"synthetic": {...}}``.

    A synthetic spec without ``seed`` uses ``default_seed``; one without
    ``noise_seed`` uses ``default_noise_seed`` when given.  Held-out sets pass
    the training seed and a different noise seed, so they keep the training
    set's class centres and draw fresh noise.
    """
    if not isinstance(spec, dict):
        _fail("dataset must be an object with 'csv' or 'synthetic'")
    if "csv" in spec:
        path = Path(spec["csv"])
        if not path.exists():
            _fail(f"dataset file not found: {path}")
        return tr.load_dataset_csv(path, tree)
    if "synthetic" in spec:
        s = resolve_synthetic_echo(spec, default_seed, default_noise_seed)["synthetic"]
        noise_seed = s.get("noise_seed")
        # each setting is cast to the type of its default
        settings = {k: type(v)(s[k]) for k, v in SYNTHETIC_SETTINGS.items()}
        synth = SyntheticSpec(tree=tree, **settings, seed=int(s["seed"]),
                              noise_seed=None if noise_seed is None else int(noise_seed))
        return tr.generate_hierarchical_gaussians(synth)
    _fail("dataset must provide 'csv' or 'synthetic'")


def resolve_synthetic_echo(spec, default_seed, default_noise_seed=None):
    """A synthetic spec with every setting and seed filled in; others as given."""
    if isinstance(spec, dict) and "synthetic" in spec:
        s = {**SYNTHETIC_SETTINGS, **spec["synthetic"]}
        s.setdefault("seed", default_seed)
        if default_noise_seed is not None:
            s.setdefault("noise_seed", default_noise_seed)
        return {"synthetic": s}
    return spec


def objective_from_config(doc: dict) -> ObjectiveConfig:
    cfg = dict(doc)
    variant = cfg.pop("variant", None)
    merged = {}
    if variant is not None:
        if variant not in OBJECTIVE_VARIANTS:
            _fail(f"unknown objective variant {variant!r}")
        merged.update(OBJECTIVE_VARIANTS[variant])
    for key, value in cfg.items():
        merged[key] = value
    curvature = merged.pop("curvature", None)
    if curvature is not None:
        merged["c"] = float(curvature)
    return ObjectiveConfig(**merged)


def objective_echo(cfg: ObjectiveConfig, variant=None) -> dict:
    doc = asdict(cfg)
    if variant is not None:
        doc["variant"] = variant
    return doc


# embed-tree ------------------------------------------------------------------

def cmd_embed_tree(config: dict, out: Path) -> int:
    tree = load_hierarchy(config.get("hierarchy", "builtin:cifar10"))
    seed = int(config.get("seed", 0))
    dim = int(config.get("dim", 2))
    scope = config.get("tree_scope", "full_tree")
    c = float(config.get("curvature", 1.0))
    budget = EmbedBudget(restarts=int(config.get("restarts", 8)),
                         steps=int(config.get("steps", 5000)),
                         lr=float(config.get("lr", 0.5)),
                         init_scale=float(config.get("init_scale", 0.5)),
                         seed=seed)
    resolved = {
        "command": "embed-tree",
        "hierarchy": config.get("hierarchy", "builtin:cifar10"),
        "dim": dim, "tree_scope": scope, "curvature": c, "seed": seed,
        "restarts": budget.restarts, "steps": budget.steps,
        "lr": budget.lr, "init_scale": budget.init_scale,
    }
    _write_json(out / "resolved_config.json", {"resolved": True}, resolved)

    cfg = ObjectiveConfig(c=c, tree_scope=scope)
    metric = tree_metric(tree)
    results = {}
    for mode in ("poincare", "l2"):
        res = tr.embed_tree_direct(tree, dim, mode, cfg, budget)
        results[mode] = res
        vertices = sorted(res.coords.keys())
        rows = []
        for i, u in enumerate(vertices):
            for v in vertices[i + 1:]:
                rows.append((tree.names[u], tree.names[v],
                             float(metric.dist[u, v]),
                             _embedded_distance(res, u, v, mode, c)))
        _write_text(out / f"pairs_{mode}.csv",
                    _csv_text([("vertex_a", "vertex_b", "tree_dist", "embedded_dist"), *rows]))
        tree_d = [r[2] for r in rows]
        emb_d = [r[3] for r in rows]
        _write_text(out / f"scatter_{mode}.svg",
                    svg.scatter_svg(tree_d, emb_d, xlabel="tree metric",
                                    ylabel=f"{mode} distance",
                                    title=f"{mode} embedding, CPCC={res.cpcc:.4f}"))
    if dim == 2:
        named = [(tree.names[v], xy) for v, xy in sorted(results["poincare"].coords.items())]
        _write_text(out / "poincare_disk.svg",
                    svg.disk_svg(named, title="Poincare-disk tree embedding"))
    _write_json(out / "cpcc.json", {
        "poincare_cpcc": results["poincare"].cpcc,
        "l2_cpcc": results["l2"].cpcc,
        "poincare_per_restart": results["poincare"].per_restart,
        "l2_per_restart": results["l2"].per_restart,
    }, resolved)
    return EXIT_OK


def _embedded_distance(res, u, v, mode, c):
    if mode == "poincare":
        from . import geometry as geo
        return float(geo.dist_rows(res.coords[u][None, :], res.coords[v][None, :], c)[0])
    return float(np.linalg.norm(res.coords[u] - res.coords[v]))


# train -----------------------------------------------------------------------

def _seeded(config, key, fallback):
    return int(config.get(key, fallback))


def cmd_train(config: dict, out: Path) -> int:
    tree = load_hierarchy(config.get("hierarchy", "builtin:cifar10"))
    seed = int(config.get("seed", 0))
    dataset_spec = config.get("dataset", {"synthetic": {}})
    dataset = load_dataset(dataset_spec, tree, default_seed=seed)

    enc_doc = dict(config.get("encoder", {}))
    enc = EncoderSpec(kind=enc_doc.get("kind", "mlp_1hidden"),
                      input_dim=int(enc_doc.get("input_dim", dataset.dim)),
                      hidden_dim=int(enc_doc.get("hidden_dim", 32)),
                      output_dim=int(enc_doc.get("output_dim", 16)),
                      seed=_seeded(enc_doc, "seed", seed + 1))
    variant = config.get("objective", {}).get("variant")
    cfg = objective_from_config(config.get("objective", {}))
    tc_doc = dict(config.get("train", {}))
    tc = TrainConfig(epochs=int(tc_doc.get("epochs", 100)),
                     batch_size=int(tc_doc.get("batch_size", 128)),
                     lr0=float(tc_doc.get("lr0", 0.05)),
                     momentum=float(tc_doc.get("momentum", 0.9)),
                     schedule=tc_doc.get("schedule", "cosine"),
                     weight_decay=float(tc_doc.get("weight_decay", 1e-4)),
                     seed=_seeded(tc_doc, "seed", seed + 2))

    resolved = {
        "command": "train",
        "hierarchy": config.get("hierarchy", "builtin:cifar10"),
        "dataset": resolve_synthetic_echo(dataset_spec, seed),
        "encoder": asdict(enc),
        "objective": objective_echo(cfg, variant),
        "train": asdict(tc),
        "seed": seed,
    }
    _write_json(out / "resolved_config.json", {"resolved": True}, resolved)

    result = tr.train(dataset, tree, enc, cfg, tc)
    _write_text(out / "history.csv", tr.history_to_csv(result.history))
    checkpoint = {
        "params": {k: v.tolist() for k, v in result.params.items()},
        "encoder": asdict(enc),
        "objective": objective_echo(cfg, variant),
        "train": asdict(tc),
    }
    _write_json(out / "checkpoint.json", checkpoint, resolved)
    last = result.history[-1]
    _write_json(out / "summary.json", {
        "final_flat": last.flat,
        "final_cpcc": last.cpcc,
        "final_center": last.center,
        "skipped_cpcc_steps": result.skipped_cpcc_steps,
        "epochs": tc.epochs,
    }, resolved)
    return EXIT_OK


def load_checkpoint(path):
    doc = json.loads(Path(path).read_text())
    enc = EncoderSpec(**doc["encoder"])
    obj_doc = dict(doc["objective"])
    variant = obj_doc.pop("variant", None)
    cfg = ObjectiveConfig(**obj_doc)
    params = {k: np.asarray(v, dtype=np.float64) for k, v in doc["params"].items()}
    layout = tr.layout_from_shapes({k: v.shape for k, v in params.items()})
    result = tr.TrainResult(params=params, layout=layout, history=[])
    return result, enc, cfg, variant


# eval ------------------------------------------------------------------------

def cmd_eval(config: dict, out: Path) -> int:
    tree = load_hierarchy(config.get("hierarchy", "builtin:cifar10"))
    seed = int(config.get("seed", 0))
    ckpt_path = config.get("checkpoint")
    if not ckpt_path or not Path(ckpt_path).exists():
        _fail(f"checkpoint not found: {ckpt_path}")
    result, enc, cfg, variant = load_checkpoint(ckpt_path)
    train_ds = load_dataset(config.get("train_dataset", {"synthetic": {}}), tree, seed)
    eval_spec = config.get("eval_dataset", {"synthetic": {}})
    eval_ds = load_dataset(eval_spec, tree, seed, seed + 10)
    if train_ds.dim != enc.input_dim or eval_ds.dim != enc.input_dim:
        _fail(f"feature dimension {train_ds.dim}/{eval_ds.dim} does not match "
              f"checkpoint input_dim {enc.input_dim}")
    knn_k = int(config.get("knn_k", 50))
    delta_doc = dict(config.get("delta", {}))
    delta_mode = delta_doc.get("mode", "auto")
    delta_k = int(delta_doc.get("k", 2_000_000))
    delta_seed = int(delta_doc.get("seed", seed))
    # auto resolves from the held-out row count; exact ignores k
    run_mode = delta_mode
    if run_mode == "auto":
        run_mode = "exact" if eval_ds.n <= dg.AUTO_EXACT_DELTA_MAX_N else "sampled"
    dg.check_delta_mode(run_mode, delta_k, eval_ds.n)
    cpcc_distance = config.get("cpcc_distance", "native")
    emit_gram = bool(config.get("gram_csv", False))

    resolved = {
        "command": "eval", "hierarchy": config.get("hierarchy", "builtin:cifar10"),
        "checkpoint": ckpt_path,
        "train_dataset": resolve_synthetic_echo(config.get("train_dataset", {"synthetic": {}}), seed),
        "eval_dataset": resolve_synthetic_echo(eval_spec, seed, seed + 10),
        "knn_k": knn_k,
        "delta": {"mode": delta_mode, "k": delta_k, "seed": delta_seed},
        "cpcc_distance": cpcc_distance, "gram_csv": emit_gram, "seed": seed,
    }
    _write_json(out / "resolved_config.json", {"resolved": True}, resolved)

    feats_train = tr.encode_dataset(result, enc, train_ds.features)
    feats_eval = tr.encode_dataset(result, enc, eval_ds.features)

    if cpcc_distance == "native":
        cpcc_distance = cfg.cpcc_distance if cfg.alpha > 0 else "l2"
    cpcc_val = dg.test_cpcc(feats_eval, eval_ds.labels, tree,
                            distance_mode=cpcc_distance, c=cfg.c)
    dm = dg.pairwise_l2(feats_eval)
    _, delta_rel = dg.delta_hyperbolicity(dm, mode=run_mode, k=delta_k, seed=delta_seed)
    fine_acc, coarse_acc = dg.knn_accuracies(feats_train, train_ds.labels, feats_eval,
                                             eval_ds.labels, tree,
                                             k=min(knn_k, feats_train.shape[0]))
    _write_json(out / "metrics.json", {
        "delta_rel": delta_rel,
        "test_cpcc": cpcc_val,
        "knn_fine_accuracy": fine_acc,
        "knn_coarse_accuracy": coarse_acc,
        "delta_mode": run_mode,
        "n_eval": int(eval_ds.n),
    }, resolved)
    if emit_gram:
        # headerless, so that spectra's matrix_csv reads it back with np.loadtxt
        _write_matrix_csv(out / "gram.csv", sp.gram_matrix(feats_eval, eval_ds.labels, tree))
    return EXIT_OK


# spectra ---------------------------------------------------------------------

def cmd_spectra(config: dict, out: Path) -> int:
    seed = int(config.get("seed", 0))
    top_k = config.get("top_k")
    resolved = {"command": "spectra", "seed": seed}
    closed = None
    if "block_spec" in config:
        doc = dict(config["block_spec"])
        r = [float(x) for x in doc["r"]]
        if "balanced_level_counts" in doc:
            counts = [int(c) for c in doc["balanced_level_counts"]]
            tree = balanced_tree(counts)
            closed = sp.balanced_eigenvalues_closed_form(list(reversed(counts)), r)
        else:
            tree = load_hierarchy(doc.get("tree") or doc.get("hierarchy"))
        spec = sp.BlockCorrelationSpec(tree, tuple(r))
        K = sp.build_block_matrix(spec)
        resolved["block_spec"] = {k: doc[k] for k in sorted(doc)}
    elif "features_csv" in config:
        tree = load_hierarchy(config.get("hierarchy", "builtin:cifar10"))
        ds = load_dataset({"csv": config["features_csv"]}, tree, seed)
        K = sp.gram_matrix(ds.features, ds.labels, tree)
        resolved["features_csv"] = config["features_csv"]
        resolved["hierarchy"] = config.get("hierarchy", "builtin:cifar10")
    elif "matrix_csv" in config:
        path = Path(config["matrix_csv"])
        if not path.exists():
            _fail(f"matrix file not found: {path}")
        K = np.loadtxt(path, delimiter=",", dtype=np.float64)
        resolved["matrix_csv"] = config["matrix_csv"]
    else:
        _fail("spectra config needs 'block_spec', 'features_csv', or 'matrix_csv'")

    numerical = sp.numerical_eigenvalues(K)
    if top_k is None:
        top_k = min(100, numerical.order)
    resolved["top_k"] = int(top_k)
    _write_json(out / "resolved_config.json", {"resolved": True}, resolved)

    def spectrum_rows(spectrum):
        rows = []
        rank = 1
        for group, (v, m) in enumerate(zip(spectrum.values, spectrum.multiplicities)):
            for _ in range(m):
                rows.append((rank, v, group))
                rank += 1
        return rows

    header = ("rank", "eigenvalue", "multiplicity_group")
    _write_text(out / "spectrum_numerical.csv",
                _csv_text([header, *spectrum_rows(numerical)]))
    discrepancy = None
    if closed is not None:
        _write_text(out / "spectrum_closed.csv", _csv_text([header, *spectrum_rows(closed)]))
        discrepancy = float(np.max(np.abs(closed.expand() - numerical.expand())))
    transitions = sp.phase_transition_detect(numerical, top_k=int(top_k))
    _write_json(out / "report.json", {
        "max_abs_discrepancy": discrepancy,
        "transitions": [{"position": p, "relative_drop": d} for p, d in transitions],
        "n": numerical.order,
    }, resolved)
    return EXIT_OK


# oodsim ----------------------------------------------------------------------

def _far_cluster(doc, id_train: LabeledDataset, seed):
    offset_sigmas = float(doc.get("offset_sigmas", 10.0))
    n = int(doc.get("n", 200))
    cluster_seed = int(doc.get("seed", seed))
    rng = np.random.default_rng(cluster_seed)
    x = id_train.features
    mean = x.mean(axis=0)
    sigma = float(np.mean(x.std(axis=0)))
    if sigma == 0.0:
        sigma = 1.0
    max_radius = float(np.max(np.linalg.norm(x - mean, axis=1)))
    direction = rng.standard_normal(x.shape[1])
    direction /= np.linalg.norm(direction)
    center = mean + direction * (max_radius + offset_sigmas * sigma)
    return center + sigma * rng.standard_normal((n, x.shape[1]))


def cmd_oodsim(config: dict, out: Path) -> int:
    tree = load_hierarchy(config.get("hierarchy", "builtin:cifar10"))
    seed = int(config.get("seed", 0))
    methods_doc = config.get("methods")
    if methods_doc is None:
        if "checkpoint" not in config:
            _fail("oodsim needs 'checkpoint' or a 'methods' table")
        methods_doc = {"method": config["checkpoint"]}
    id_train = load_dataset(config.get("id_train", {"synthetic": {}}), tree, seed)
    id_eval_spec = config.get("id_eval", {"synthetic": {}})
    id_eval = load_dataset(id_eval_spec, tree, seed, seed + 10)
    ood_docs = config.get("ood_sets")
    if not ood_docs:
        _fail("oodsim needs a nonempty 'ood_sets' table")
    raw_features = bool(config.get("raw_features", False))

    ood_inputs = {}
    for name, doc in ood_docs.items():
        if "csv" in doc:
            path = Path(doc["csv"])
            if not path.exists():
                _fail(f"OOD dataset not found: {path}")
            rows = tr.load_dataset_csv(path, tree).features
        elif "far_cluster" in doc:
            rows = _far_cluster(dict(doc["far_cluster"]), id_train, seed)
        elif "id_eval" in doc:
            rows = id_eval.features
        else:
            _fail(f"OOD set {name!r} needs 'csv', 'far_cluster', or 'id_eval'")
        if rows.shape[0] == 0:
            _fail(f"OOD set {name!r} is empty")
        ood_inputs[name] = rows

    resolved = {
        "command": "oodsim", "hierarchy": config.get("hierarchy", "builtin:cifar10"),
        "methods": dict(methods_doc),
        "id_train": resolve_synthetic_echo(config.get("id_train", {"synthetic": {}}), seed),
        "id_eval": resolve_synthetic_echo(id_eval_spec, seed, seed + 10),
        "ood_sets": {k: dict(v) for k, v in ood_docs.items()},
        "raw_features": raw_features, "seed": seed,
    }
    _write_json(out / "resolved_config.json", {"resolved": True}, resolved)

    table = {}
    hist_rows = []
    for method, ckpt in methods_doc.items():
        if not Path(ckpt).exists():
            _fail(f"checkpoint not found: {ckpt}")
        result, enc, _, _ = load_checkpoint(ckpt)
        f_train = tr.encode_dataset(result, enc, id_train.features)
        f_eval = tr.encode_dataset(result, enc, id_eval.features)
        if raw_features:
            transform = None
            train_feats, eval_feats = f_train, f_eval
        else:
            transform = dg.FeatureTransform.fit(f_train)
            train_feats = transform.apply(f_train)
            eval_feats = transform.apply(f_eval)
        fit = dg.fit_gaussian(train_feats)
        id_scores = dg.mahalanobis_scores(eval_feats, fit)
        table[method] = {}
        for name, rows in ood_inputs.items():
            f_ood = tr.encode_dataset(result, enc, rows)
            ood_feats = transform.apply(f_ood) if transform is not None else f_ood
            ood_scores = dg.mahalanobis_scores(ood_feats, fit)
            table[method][name] = dg.auroc(id_scores, ood_scores)
            hist_rows.extend(_histogram_rows(method, name, id_scores, ood_scores))

    payload = {"auroc": table}
    if len(table) >= 2:
        payload["borda"] = dg.borda_count(table)
    _write_json(out / "auroc.json", payload, resolved)
    _write_text(out / "score_histograms.csv",
                _csv_text([("method", "ood_set", "bin_left", "bin_right",
                            "id_count", "ood_count"), *hist_rows]))
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
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
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
    if args.seed is not None:
        config["seed"] = args.seed
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](config, out)
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
