"""End-to-end CLI pipelines on a small tree: read-back and determinism."""

import csv
import json
from xml.etree import ElementTree

import numpy as np
import pytest

from hypstruct import cli
from hypstruct import diagnostics as dg
from hypstruct import spectral as sp
from hypstruct import training as tr
from hypstruct.hierarchy import balanced_tree, builtin_cifar10_tree, parse_tree, tree_metric
from hypstruct.objective import ObjectiveConfig

from conftest import save_dataset_csv, traced_peak_mb

TREE = json.loads(balanced_tree((1, 2, 4)).serialize())
DATA = {"synthetic": {"n_per_leaf": 10, "dim": 4}}
TRAIN = {
    "hierarchy": TREE, "seed": 3, "dataset": DATA,
    "encoder": {"hidden_dim": 8, "output_dim": 4},
    "objective": {"variant": "hypstructure"},
    "train": {"epochs": 3, "batch_size": 16},
}


def run(command, config, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return run("train", TRAIN, tmp_path_factory.mktemp("cli"), "train")


def test_history_cells_read_back_as_floats(trained):
    with open(trained / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "flat", "cpcc", "center", "lr"]
    assert len(rows) == 1 + TRAIN["train"]["epochs"]
    for row in rows[1:]:
        assert all(np.isfinite(float(x)) for x in row)


def test_train_eval_spectra_pipeline(trained, tmp_path):
    held_out = {"synthetic": {"seed": 3, "noise_seed": 13, "n_per_leaf": 5, "dim": 4}}
    evaluated = run("eval", {"hierarchy": TREE, "seed": 3,
                             "checkpoint": str(trained / "checkpoint.json"),
                             "train_dataset": DATA, "eval_dataset": held_out,
                             "knn_k": 5, "gram_csv": True}, tmp_path, "eval")
    gram = np.loadtxt(evaluated / "gram.csv", delimiter=",")
    assert gram.shape == (20, 20)
    spectra = run("spectra", {"matrix_csv": str(evaluated / "gram.csv")}, tmp_path, "spectra")
    report = json.loads((spectra / "report.json").read_text())
    assert report["n"] == 20



def test_spectra_rejects_a_non_finite_matrix_csv(tmp_path, capsys):
    matrix = tmp_path / "nan.csv"
    matrix.write_text("1,nan\nnan,1\n")
    config = tmp_path / "spectra.json"
    config.write_text(json.dumps({"matrix_csv": str(matrix)}))
    code = cli.main(["spectra", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert "NonFiniteMatrix" in capsys.readouterr().err

def test_same_seed_gives_byte_identical_artifacts(trained, tmp_path):
    again = run("train", TRAIN, tmp_path, "again")
    names = sorted(p.name for p in trained.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (trained / name).read_bytes() == (again / name).read_bytes(), name


def test_eval_default_held_out_set_shares_class_centres(tmp_path):
    # the default held-out set keeps the training seed (class centres) and
    # draws fresh noise, so kNN accuracy is far above chance (1/4 here)
    seed = 5
    train_cfg = {key: value for key, value in TRAIN.items() if key != "dataset"}
    train_cfg["seed"] = seed
    trained = run("train", train_cfg, tmp_path, "train")
    evaluated = run("eval", {"hierarchy": TREE, "seed": seed,
                             "checkpoint": str(trained / "checkpoint.json")}, tmp_path, "eval")
    metrics = json.loads((evaluated / "metrics.json").read_text())
    assert metrics["knn_fine_accuracy"] >= 0.75
    echo = metrics["config"]["eval_dataset"]["synthetic"]
    assert (echo["seed"], echo["noise_seed"]) == (seed, seed + 10)


def test_spectra_reads_features_csv(tmp_path):
    tree = balanced_tree((1, 2, 4))
    spec = tr.SyntheticSpec(tree=tree, dim=4, n_per_leaf=6, seed=2)
    dataset = tr.generate_hierarchical_gaussians(spec)
    path = tmp_path / "features.csv"
    save_dataset_csv(path, dataset, tree)
    spectra = run("spectra", {"features_csv": str(path), "hierarchy": TREE}, tmp_path, "spectra")
    report = json.loads((spectra / "report.json").read_text())
    assert report["n"] == dataset.n == 24


def test_embed_tree_same_seed_gives_byte_identical_artifacts(tmp_path):
    config = {"hierarchy": TREE, "seed": 2, "dim": 2, "restarts": 3, "steps": 60}
    first = run("embed-tree", config, tmp_path, "first")
    again = run("embed-tree", config, tmp_path, "again")
    names = sorted(p.name for p in first.iterdir())
    assert "cpcc.json" in names and "poincare_disk.svg" in names
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


@pytest.mark.parametrize("dim,curvature", [(2, 1.0), (5, 0.5)])
def test_embed_tree_pairs_csv_hold_every_pair_at_the_reported_cpcc(tmp_path, dim, curvature):
    tree = builtin_cifar10_tree()
    out = run("embed-tree", {"hierarchy": "builtin:cifar10", "seed": 1, "dim": dim,
                             "curvature": curvature, "restarts": 2, "steps": 100},
              tmp_path, "embed")
    cpcc = json.loads((out / "cpcc.json").read_text())
    metric = tree_metric(tree)
    pairs = [(a, b) for a in range(tree.n_vertices) for b in range(a + 1, tree.n_vertices)]
    for mode in ("poincare", "l2"):
        with open(out / f"pairs_{mode}.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["vertex_a", "vertex_b", "tree_dist", "embedded_dist"]
        assert [(tree.id_of(a), tree.id_of(b)) for a, b, *_ in rows] == pairs
        tree_d, emb_d = (np.array([float(row[i]) for row in rows]) for i in (2, 3))
        np.testing.assert_array_equal(tree_d, [metric[a, b] for a, b in pairs])
        pearson = np.corrcoef(tree_d, emb_d)[0, 1]
        assert abs(pearson - cpcc[f"{mode}_cpcc"]) <= 1e-12, mode


UNEVEN_TREE = {"name": "root", "children": [
    {"name": "a", "children": [{"name": "a1"},
                               {"name": "a2", "children": [{"name": "x"}, {"name": "y"}]}]},
    {"name": "b"},
    {"name": "c", "children": [{"name": "c1"}]}]}


def test_spectra_block_spec_on_an_uneven_hierarchy_has_no_closed_form(tmp_path):
    r = [0.9, 0.6, 0.3]
    out = run("spectra", {"block_spec": {"hierarchy": UNEVEN_TREE, "r": r}}, tmp_path, "spectra")
    assert not (out / "spectrum_closed.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["max_abs_discrepancy"] is None and report["n"] == 5
    with open(out / "spectrum_numerical.csv", newline="") as fh:
        got = [float(row[1]) for row in list(csv.reader(fh))[1:]]
    K = sp.build_block_matrix(parse_tree(json.dumps(UNEVEN_TREE)), r)
    np.testing.assert_allclose(got, np.linalg.eigvalsh(K)[::-1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_float_matrix_csv_matches_the_per_cell_path(dtype, tmp_path):
    rng = np.random.default_rng(8)
    span = np.finfo(dtype).maxexp // 4
    K = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-span, span, (6, 5))
    K[0, :4] = [np.nan, np.inf, -0.0, 5e-324]
    K = K.astype(dtype)
    per_cell = cli._csv_text(list(K))
    cli._write_matrix_csv(tmp_path / "K.csv", K)
    assert (tmp_path / "K.csv").read_bytes() == per_cell.encode()
    assert per_cell.splitlines()[1] == ",".join(cli.float_text(x) for x in K[1])


def test_matrix_csv_writer_holds_one_row_of_text(tmp_path):
    # the whole text of a 500 x 500 matrix is about 8 MB
    K = np.random.default_rng(9).standard_normal((500, 500))
    assert traced_peak_mb(cli._write_matrix_csv, tmp_path / "K.csv", K) < 2.0


def test_eval_with_gram_csv_is_byte_identical_across_runs(trained, tmp_path):
    config = {"hierarchy": TREE, "seed": 3, "checkpoint": str(trained / "checkpoint.json"),
              "train_dataset": DATA, "eval_dataset": {"synthetic": {"n_per_leaf": 5, "dim": 4}},
              "knn_k": 5, "gram_csv": True}
    first = run("eval", config, tmp_path, "first")
    again = run("eval", config, tmp_path, "again")
    names = sorted(p.name for p in first.iterdir())
    assert "gram.csv" in names and "metrics.json" in names
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_svg_text_is_escaped(tmp_path):
    # markup characters in vertex names must not break the SVG documents
    names = ["a&b", "<x>", "y\"z", "c", "d", "e"]
    tree = {"name": "root", "children": [
        {"name": names[0], "children": [{"name": names[1]}, {"name": names[2]}]},
        {"name": names[3], "children": [{"name": names[4]}, {"name": names[5]}]}]}
    out = run("embed-tree", {"hierarchy": tree, "seed": 1, "dim": 2, "restarts": 2,
                             "steps": 20}, tmp_path, "embed")
    svg_ns = "{http://www.w3.org/2000/svg}"
    for name in ("poincare_disk.svg", "scatter_poincare.svg", "scatter_l2.svg"):
        ElementTree.parse(out / name)
    disk = ElementTree.parse(out / "poincare_disk.svg").getroot()
    labels = {el.text for el in disk.iter(f"{svg_ns}text")}
    assert set(names) | {"root"} <= labels


def run_code(command, config_path, tmp_path):
    return cli.main([command, "--config", str(config_path), "--out", str(tmp_path / "out")])


def test_missing_config_file_is_an_error(tmp_path, capsys):
    assert run_code("train", tmp_path / "absent.json", tmp_path) == cli.EXIT_ERROR
    assert "config file not found" in capsys.readouterr().err


def test_malformed_config_json_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,')
    assert run_code("train", path, tmp_path) == cli.EXIT_ERROR
    assert "bad config JSON" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_train_exits_with_the_diverged_code(tmp_path, capsys):
    config = dict(TRAIN, objective={"variant": "flat"},
                  train={"epochs": 50, "batch_size": 16, "lr0": 1e12, "weight_decay": 0.0})
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(config))
    assert run_code("train", path, tmp_path) == cli.EXIT_DIVERGED
    assert "DivergedError" in capsys.readouterr().err


def oodsim_config(trained):
    return {"hierarchy": TREE, "seed": 3, "methods": {"method": str(trained / "checkpoint.json")},
            "id_train": DATA, "id_eval": {"synthetic": {"n_per_leaf": 5, "dim": 4}},
            "ood_sets": {"far": {"far_cluster": {"n": 20}}, "same": {"id_eval": True}}}


def test_oodsim_writes_aurocs_in_the_unit_interval(trained, tmp_path):
    out = run("oodsim", oodsim_config(trained), tmp_path, "oodsim")
    table = json.loads((out / "auroc.json").read_text())["auroc"]
    assert set(table["method"]) == {"far", "same"}
    assert all(0.0 <= value <= 1.0 for value in table["method"].values())


def test_oodsim_same_seed_gives_byte_identical_artifacts(trained, tmp_path):
    first = run("oodsim", oodsim_config(trained), tmp_path, "first")
    again = run("oodsim", oodsim_config(trained), tmp_path, "again")
    names = sorted(p.name for p in first.iterdir())
    assert "auroc.json" in names and "score_histograms.csv" in names
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_oodsim_histograms_bin_every_score_once(trained, tmp_path):
    out = run("oodsim", oodsim_config(trained), tmp_path, "oodsim")
    with open(out / "score_histograms.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["method", "ood_set", "bin_left", "bin_right", "id_count", "ood_count"]
    n_id = 5 * 4  # id_eval: n_per_leaf 5 on 4 leaves
    for ood_set, n_ood in (("far", 20), ("same", n_id)):
        bins = [row[2:] for row in rows if row[:2] == ["method", ood_set]]
        assert len(bins) == 50
        left, right = (np.array([float(b[i]) for b in bins]) for i in (0, 1))
        assert np.all(left < right) and np.array_equal(left[1:], right[:-1])
        assert sum(int(b[2]) for b in bins) == n_id
        assert sum(int(b[3]) for b in bins) == n_ood
    assert len(rows) == 2 * 50


@pytest.mark.parametrize("seed", range(1, 7))
def test_oodsim_ranks_a_far_cluster_above_held_out_rows(tmp_path, seed):
    tree = json.loads(balanced_tree((1, 4, 12)).serialize())
    data = {"synthetic": {"n_per_leaf": 10, "dim": 16}}
    methods = {}
    for variant in ("hypstructure", "l2cpcc"):
        out = run("train", {"hierarchy": tree, "seed": seed, "dataset": data,
                            "encoder": {"hidden_dim": 16, "output_dim": 8},
                            "objective": {"variant": variant},
                            "train": {"epochs": 3, "batch_size": 32}}, tmp_path, variant)
        methods[variant] = str(out / "checkpoint.json")
    held_out = {"synthetic": {"noise_seed": seed + 10, "n_per_leaf": 5, "dim": 16}}
    out = run("oodsim", {"hierarchy": tree, "seed": seed, "methods": methods,
                         "id_train": data, "id_eval": held_out,
                         "ood_sets": {"far": {"far_cluster": {"n": 50}},
                                      "same": {"id_eval": True}}}, tmp_path, "oodsim")
    table = json.loads((out / "auroc.json").read_text())["auroc"]
    for variant in methods:
        assert table[variant]["far"] >= 0.9, (variant, table[variant])
        assert table[variant]["same"] == 0.5


def eval_config(trained, tmp_path, eval_dataset, **overrides):
    config = {"hierarchy": TREE, "seed": 3, "checkpoint": str(trained / "checkpoint.json"),
              "train_dataset": DATA, "eval_dataset": eval_dataset, "knn_k": 5,
              "delta": {"mode": "auto", "k": 1000}}
    config.update(overrides)
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(config))
    return path


def test_eval_rejects_a_zero_knn_k(trained, tmp_path, capsys):
    path = eval_config(trained, tmp_path, {"synthetic": {"n_per_leaf": 5, "dim": 4}}, knn_k=0)
    assert run_code("eval", path, tmp_path) == cli.EXIT_ERROR
    assert "k must lie in" in capsys.readouterr().err


@pytest.mark.parametrize("delta,message", [
    pytest.param({"mode": "sampled", "k": 0}, "k >= 1", id="0"),
    pytest.param({"mode": "sampled", "k": -1}, "k >= 1", id="-1"),
    pytest.param({"mode": "auto", "k": 0}, "k >= 1", id="auto_sampled"),
    pytest.param({"mode": "hyperbolic", "k": 1000}, "mode must be", id="unknown_mode"),
    pytest.param({"mode": "exact", "k": 1000}, "capped at", id="exact_over_cap"),
])
def test_eval_rejects_a_sampled_delta_without_quadruples(trained, tmp_path, capsys,
                                                         monkeypatch, delta, message):
    # 20 held-out rows: auto resolves to sampled, and exact is over its cap,
    # when both limits are 12
    monkeypatch.setattr(dg, "AUTO_EXACT_DELTA_MAX_N", 12)
    monkeypatch.setattr(dg, "EXACT_DELTA_MAX_N", 12)
    path = eval_config(trained, tmp_path, {"synthetic": {"n_per_leaf": 5, "dim": 4}},
                       delta=delta)
    assert run_code("eval", path, tmp_path) == cli.EXIT_ERROR
    assert message in capsys.readouterr().err
    # rejected before any output is written
    assert not (tmp_path / "out" / "resolved_config.json").exists()
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_eval_auto_delta_that_resolves_to_exact_ignores_k(trained, tmp_path):
    path = eval_config(trained, tmp_path, {"synthetic": {"n_per_leaf": 5, "dim": 4}},
                       delta={"mode": "auto", "k": 0})
    assert run_code("eval", path, tmp_path) == cli.EXIT_OK
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["delta_mode"] == "exact"


@pytest.mark.parametrize("n_eval,want", [(12, "exact"), (13, "sampled")])
def test_eval_auto_delta_is_exact_up_to_200_rows(trained, tmp_path, monkeypatch, n_eval, want):
    # eval reads the limit when it runs, so a limit of 12 stands in for 200
    assert dg.AUTO_EXACT_DELTA_MAX_N == 200
    monkeypatch.setattr(dg, "AUTO_EXACT_DELTA_MAX_N", 12)
    tree = balanced_tree((1, 2, 4))
    spec = tr.SyntheticSpec(tree=tree, dim=4, n_per_leaf=4, seed=3, noise_seed=13)
    full = tr.generate_hierarchical_gaussians(spec)
    rows = np.arange(n_eval) % 4 * 4 + np.arange(n_eval) // 4  # classes interleaved
    held_out = tr.LabeledDataset(full.features[rows], full.labels[rows])
    csv_path = tmp_path / "held_out.csv"
    save_dataset_csv(csv_path, held_out, tree)
    path = eval_config(trained, tmp_path, {"csv": str(csv_path)})
    assert run_code("eval", path, tmp_path) == cli.EXIT_OK
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert (metrics["n_eval"], metrics["delta_mode"]) == (n_eval, want)


# config keys ---------------------------------------------------------------------

def command_configs(trained):
    """One small working config per command."""
    return {
        "embed-tree": {"hierarchy": TREE, "seed": 2, "dim": 2, "restarts": 2, "steps": 20},
        "train": TRAIN,
        "eval": {"hierarchy": TREE, "seed": 3, "checkpoint": str(trained / "checkpoint.json"),
                 "train_dataset": DATA, "eval_dataset": {"synthetic": {"n_per_leaf": 5, "dim": 4}},
                 "knn_k": 5, "gram_csv": True},
        "spectra": {"seed": 3,
                    "block_spec": {"balanced_level_counts": [1, 2, 4], "r": [0.8, 0.4]}},
        "oodsim": oodsim_config(trained),
    }


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_resolved_config_reruns_to_byte_identical_artifacts(trained, tmp_path, command):
    first = run(command, command_configs(trained)[command], tmp_path, "first")
    resolved = json.loads((first / "resolved_config.json").read_text())["config"]
    if command == "oodsim":
        # each OOD set is echoed with its defaults filled in
        assert resolved["ood_sets"] == {"far": {"far_cluster": {"offset_sigmas": 10.0, "n": 20,
                                                                "seed": 3}},
                                        "same": {"id_eval": True}}
    again = run(command, resolved, tmp_path, "again")
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


DELETE = object()


@pytest.mark.parametrize("command,path,edits", [
    ("embed-tree", "step", {"step": 10}),
    ("train", "objectve", {"objectve": {"variant": "flat"}}),
    ("train", "train.epoch", {"train.epoch": 1}),
    ("train", "encoder.hidden", {"encoder.hidden": 4}),
    ("train", "dataset.synthetic.n_per_lef", {"dataset.synthetic.n_per_lef": 3}),
    ("train", "objective.curvature", {"objective.curvature": 0.5}),
    ("train", "dataset", {"dataset.csv": "data.csv"}),
    ("train", "command", {"command": "eval"}),
    ("eval", "knn", {"knn": 3}),
    ("eval", "delta.sed", {"delta.sed": 1}),
    ("eval", "eval_dataset.synthetic.noise_sed", {"eval_dataset.synthetic.noise_sed": 4}),
    ("eval", "checkpoint", {"checkpoint": DELETE}),
    ("spectra", "topk", {"topk": 3}),
    ("spectra", "block_spec.extra", {"block_spec.extra": 1}),
    ("spectra", "block_spec.r", {"block_spec.r": DELETE}),
    ("spectra", "", {"matrix_csv": "gram.csv"}),
    ("oodsim", "raw_feature", {"raw_feature": True}),
    ("oodsim", "ood_sets.far.far_cluster.sigma", {"ood_sets.far.far_cluster.sigma": 2.0}),
    ("oodsim", "ood_sets.same", {"ood_sets.same.csv": "ood.csv"}),
    ("oodsim", "ood_sets", {"ood_sets": DELETE}),
    ("spectra", "hierarchy", {"hierarchy": "builtin:cifar10"}),
    ("oodsim", "raw_features", {"raw_features": True}),
    ("oodsim", "checkpoint", {"checkpoint": "checkpoint.json"}),
    ("spectra", "block_spec.tree", {"block_spec.tree": TREE,
                                    "block_spec.balanced_level_counts": DELETE}),
    ("train", "encoder.input_dim", {"encoder.input_dim": 5}),
])
def test_bad_config_key_is_a_typed_error_naming_its_path(trained, tmp_path, capsys,
                                                         command, path, edits):
    config = json.loads(json.dumps(command_configs(trained)[command]))
    for dotted, value in edits.items():
        *parents, last = dotted.split(".")
        doc = config
        for name in parents:
            doc = doc.setdefault(name, {})
        if value is DELETE:
            del doc[last]
        else:
            doc[last] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert run_code(command, config_path, tmp_path) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: ConfigError: {path or 'config'}:" in err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_lists_every_top_level_key(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for key in cli.COMMAND_KEYS[command]:
        assert f"\n  {key} " in text, key


def test_eval_counts_test_cpcc_pairs_that_hit_the_atanh_clamp(tmp_path):
    # a linear encoder that scales by 100: classes 0 and 1 map onto the ball's
    # boundary, classes 2 and 3 stay near the origin, so every pair but (2, 3)
    # clamps
    config = dict(TRAIN, encoder={"kind": "linear", "output_dim": 4},
                  train={"epochs": 1, "batch_size": 16})
    trained = run("train", config, tmp_path, "train")
    checkpoint = json.loads((trained / "checkpoint.json").read_text())
    checkpoint["params"]["enc.w"] = (100.0 * np.eye(4)).tolist()
    checkpoint["params"]["enc.b"] = [0.0] * 4
    ckpt_path = tmp_path / "boundary.json"
    ckpt_path.write_text(json.dumps(checkpoint))
    tree = balanced_tree((1, 2, 4))
    rows = np.repeat(np.diag([1.0, 1.0, 1e-3, 2e-3]), 2, axis=0)
    rows[1::2] *= 1.5
    csv_path = tmp_path / "rows.csv"
    save_dataset_csv(csv_path, tr.LabeledDataset(rows, np.repeat(np.arange(4), 2)), tree)
    evaluated = run("eval", {"hierarchy": TREE, "seed": 3, "checkpoint": str(ckpt_path),
                             "train_dataset": {"csv": str(csv_path)},
                             "eval_dataset": {"csv": str(csv_path)}, "knn_k": 2},
                    tmp_path, "eval")
    metrics = json.loads((evaluated / "metrics.json").read_text())
    assert metrics["test_cpcc_clamped_pairs"] == 5
    # the trained weights keep every prototype off the boundary
    inside = run("eval", {"hierarchy": TREE, "seed": 3, "train_dataset": DATA,
                          "eval_dataset": DATA, "checkpoint": str(trained / "checkpoint.json")},
                 tmp_path, "inside")
    assert json.loads((inside / "metrics.json").read_text())["test_cpcc_clamped_pairs"] == 0


@pytest.mark.parametrize("config", [
    {"objective": {"alpha": 0.5, "beta": 0.05, "c": 0.5, "centroid_mode": "euclidean_then_map",
                   "map_mode": "clip", "clip_epsilon": 1e-3},
     "train": {"epochs": 3, "batch_size": 16, "momentum": 0.5, "schedule": "constant"},
     "encoder": {"input_dim": 4, "hidden_dim": 8, "output_dim": 4}},
    {"objective": {"cpcc_distance": "l2", "flat_loss": "supcon", "tau": 0.2},
     "train": {"epochs": 3, "batch_size": 16, "weight_decay": 0.0},
     "encoder": {"kind": "linear", "output_dim": 3}},
], ids=["poincare-clip", "l2-supcon"])
def test_train_keys_reach_the_training_run(tmp_path, config):
    # the same run through tr.train, from dataclasses that hold the given
    # values and the defaults of every other key
    out = run("train", {"hierarchy": TREE, "seed": 3, "dataset": DATA, **config}, tmp_path,
              "train")
    tree = balanced_tree((1, 2, 4))
    dataset = tr.generate_hierarchical_gaussians(
        tr.SyntheticSpec(tree=tree, n_per_leaf=10, dim=4, seed=3))
    enc = tr.EncoderSpec(**{"input_dim": 4, **config["encoder"], "seed": 4})
    res = tr.train(dataset, tree, enc, ObjectiveConfig(**config["objective"]),
                   tr.TrainConfig(**config["train"], seed=5))
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [[str(row.epoch), *(repr(float(x)) for x in
                                       (row.flat, row.cpcc, row.center, row.lr))]
                    for row in res.history]
    resolved = json.loads((out / "resolved_config.json").read_text())["config"]
    for section in ("objective", "train", "encoder"):
        assert config[section].items() <= resolved[section].items()


def test_eval_sampled_delta_draws_from_its_seed(trained, tmp_path):
    held_out = {"synthetic": {"n_per_leaf": 5, "dim": 4}}
    params, enc, _ = cli.load_checkpoint(trained / "checkpoint.json")
    spec = tr.SyntheticSpec(tree=balanced_tree((1, 2, 4)), dim=4, n_per_leaf=5, seed=3,
                            noise_seed=13)
    dm = dg.pairwise_l2(tr.encode(params, enc, tr.generate_hierarchical_gaussians(spec).features))
    values = []
    for seed in (7, 8):
        path = eval_config(trained, tmp_path, held_out,
                           delta={"mode": "sampled", "k": 50, "seed": seed})
        assert run_code("eval", path, tmp_path) == cli.EXIT_OK
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["delta_rel"] == dg.delta_hyperbolicity(dm, mode="sampled", k=50,
                                                              seed=seed)[1]
        values.append(metrics["delta_rel"])
    assert values[0] != values[1]


def test_oodsim_reads_its_in_distribution_sets_from_csv(trained, tmp_path):
    # the CSVs hold exactly the rows the synthetic configs draw
    tree = balanced_tree((1, 2, 4))
    for name, spec in (("id_train", tr.SyntheticSpec(tree=tree, dim=4, n_per_leaf=10, seed=3)),
                       ("id_eval", tr.SyntheticSpec(tree=tree, dim=4, n_per_leaf=5, seed=3,
                                                    noise_seed=13))):
        save_dataset_csv(tmp_path / f"{name}.csv", tr.generate_hierarchical_gaussians(spec), tree)
    from_csv = dict(oodsim_config(trained), id_train={"csv": str(tmp_path / "id_train.csv")},
                    id_eval={"csv": str(tmp_path / "id_eval.csv")})
    synthetic = run("oodsim", oodsim_config(trained), tmp_path, "synthetic")
    csv_run = run("oodsim", from_csv, tmp_path, "csv")
    assert (json.loads((csv_run / "auroc.json").read_text())["auroc"]
            == json.loads((synthetic / "auroc.json").read_text())["auroc"])
    assert ((csv_run / "score_histograms.csv").read_bytes()
            == (synthetic / "score_histograms.csv").read_bytes())
