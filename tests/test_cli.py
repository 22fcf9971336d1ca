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
from hypstruct.errors import ConfigError, NotSymmetric
from hypstruct.hierarchy import balanced_tree, builtin_cifar10_tree, parse_tree, tree_metric
from hypstruct.objective import ObjectiveConfig

from conftest import save_dataset_csv, traced_peak_mb
from csv_oracle import row_join_matrix_csv
from delta_oracle import nine_gather_delta_sampled

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
    tree = parse_tree(json.dumps(TREE))
    params, enc, _ = cli.load_checkpoint(trained / "checkpoint.json")
    eval_ds, _ = cli.load_dataset(held_out, tree, 3)
    K = sp.gram_matrix(tr.encode(params, enc, eval_ds.features), eval_ds.labels, tree)
    assert gram.shape == (20, 20)
    assert gram.tobytes() == K.tobytes()
    spectra = run("spectra", {"matrix_csv": str(evaluated / "gram.csv")}, tmp_path, "spectra")
    report = json.loads((spectra / "report.json").read_text())
    assert report["n"] == 20
    with open(spectra / "spectrum_numerical.csv", newline="") as fh:
        got = [float(row[1]) for row in list(csv.reader(fh))[1:]]
    assert got == sp.numerical_eigenvalues(K).expand().tolist()



def test_spectra_rejects_a_non_finite_matrix_csv(tmp_path, capsys):
    matrix = tmp_path / "nan.csv"
    matrix.write_text("1,nan\nnan,1\n")
    config = tmp_path / "spectra.json"
    config.write_text(json.dumps({"matrix_csv": str(matrix)}))
    code = cli.main(["spectra", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_ERROR
    assert "NonFiniteMatrix" in capsys.readouterr().err

# an artifact each command must write; embed-tree and oodsim have same-seed
# tests of their own below
SAME_SEED_ARTIFACT = {"train": "checkpoint.json", "eval": "gram.csv",
                      "spectra": "spectrum_closed.csv"}


@pytest.mark.parametrize("command", list(SAME_SEED_ARTIFACT))
def test_same_seed_gives_byte_identical_artifacts(trained, tmp_path, command):
    config = command_configs(trained)[command]
    first = run(command, config, tmp_path, "first")
    again = run(command, config, tmp_path, "again")
    names = sorted(p.name for p in first.iterdir())
    assert SAME_SEED_ARTIFACT[command] in names
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


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


def symmetric_matrix(n, dtype, seed):
    """A symmetric matrix of floats over the dtype's exponent range, with
    ``nan``, ``inf``, ``-0.0`` and ``5e-324`` in mirrored cells."""
    rng = np.random.default_rng(seed)
    span = np.finfo(dtype).maxexp // 4
    K = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-span, span, (n, n))
    K = np.triu(K) + np.triu(K, 1).T
    specials = [np.nan, np.inf, -0.0, 5e-324]
    # spread over the cells above the diagonal (the one cell when n is 1)
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)] or [(0, 0)]
    for k, x in enumerate(specials):
        i, j = cells[k * len(cells) // len(specials)]
        K[i, j] = K[j, i] = x
    return K.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_float_matrix_csv_matches_the_per_cell_path(dtype, tmp_path):
    K = symmetric_matrix(6, dtype, seed=8)
    per_cell = cli._csv_text(list(K))
    cli._write_matrix_csv(tmp_path / "K.csv", K)
    assert (tmp_path / "K.csv").read_bytes() == per_cell.encode()
    assert per_cell.splitlines()[1] == ",".join(cli.float_text(x) for x in K[1])


@pytest.mark.parametrize("n", [1, 2, 17, 500])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mirrored_matrix_csv_matches_the_row_join(n, dtype, tmp_path):
    K = symmetric_matrix(n, dtype, seed=n)
    row_join_matrix_csv(tmp_path / "rows.csv", K)
    cli._write_matrix_csv(tmp_path / "K.csv", K)
    assert (tmp_path / "K.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("K", [np.zeros((3, 4)), np.zeros(3),
                               np.array([[1.0, 0.0], [-0.0, 1.0]]),
                               np.array([[1.0, 2.0], [2.0 + 2**-51, 1.0]])])
def test_matrix_csv_writer_rejects_a_matrix_unequal_to_its_transpose(K, tmp_path):
    with pytest.raises(NotSymmetric):
        cli._write_matrix_csv(tmp_path / "K.csv", K)
    assert not (tmp_path / "K.csv").exists()


def test_matrix_csv_writer_holds_under_2_mb_of_text(tmp_path):
    # the whole text of a 500 x 500 matrix is about 8 MB; the writer keeps
    # about a quarter of it
    A = np.random.default_rng(9).standard_normal((500, 500))
    assert traced_peak_mb(cli._write_matrix_csv, tmp_path / "K.csv", A + A.T) < 2.0


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


@pytest.mark.parametrize("delta,message", [
    pytest.param({"mode": "sampled", "k": 0}, "delta.k: must be at least 1", id="0"),
    pytest.param({"mode": "sampled", "k": -1}, "delta.k: must be at least 1", id="-1"),
    pytest.param({"mode": "auto", "k": 0}, "delta.k: must be at least 1", id="auto_sampled"),
    pytest.param({"mode": "hyperbolic", "k": 1000}, "delta.mode: must be one of",
                 id="unknown_mode"),
    pytest.param({"mode": "exact", "k": 1000}, "delta.mode: must be 'sampled' on 20 points: "
                 "exact mode is capped at n <= 12", id="exact_over_cap"),
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
    assert capsys.readouterr().err.startswith(f"error: ConfigError: {message}")
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


def edited(config, edits):
    """A deep copy of ``config`` with each dotted path of ``edits`` set to its
    value, or deleted for DELETE."""
    config = json.loads(json.dumps(config))
    for dotted, value in edits.items():
        *parents, last = dotted.split(".")
        doc = config
        for name in parents:
            doc = doc.setdefault(name, {})
        if value is DELETE:
            del doc[last]
        else:
            doc[last] = value
    return config


def rejected(command, config, tmp_path, capsys, *args):
    """The stderr of a run of ``config`` that exits 1 and writes nothing."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config_path), "--out", str(out),
                     *args]) == cli.EXIT_ERROR
    assert not out.exists() or not any(out.iterdir())
    return capsys.readouterr().err


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
    ("train", "objective.map_mode", {"objective.map_mode": "clip"}),
    ("train", "objective.clip_epsilon", {"objective.clip_epsilon": 1e-3}),
])
def test_bad_config_key_is_a_typed_error_naming_its_path(trained, tmp_path, capsys,
                                                         command, path, edits):
    err = rejected(command, edited(command_configs(trained)[command], edits), tmp_path, capsys)
    assert f"error: ConfigError: {path or 'config'}:" in err


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_negative_seed_override_is_a_config_error_before_any_output(trained, tmp_path,
                                                                      capsys, command):
    err = rejected(command, command_configs(trained)[command], tmp_path, capsys,
                   "--seed", "-1")
    assert err == "error: ConfigError: seed: must be a nonnegative integer, got -1\n"


def test_write_json_streams_the_bytes_of_one_indented_dump(tmp_path):
    # a checkpoint's shape: nested float lists, ints, None and nested sections
    rng = np.random.default_rng(0)
    payload = {"params": {"enc.w1": rng.standard_normal((3, 4)).tolist(),
                          "enc.b1": [0.1, -0.0, 1e-300, 5e16, 2.5e-7]},
               "train": {"epochs": 3, "lr0": 0.05}, "loss": None, "name": "é"}
    config = {"seed": 3, "hierarchy": TREE}
    cli._write_json(tmp_path / "doc.json", payload, config)
    doc = {**payload, "config": config, "version": cli.__version__}
    assert ((tmp_path / "doc.json").read_bytes()
            == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


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
    {"objective": {"alpha": 0.5, "beta": 0.05, "c": 0.5, "centroid_mode": "euclidean_then_clip"},
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


def held_out_distances(trained):
    """The L2 distances of the encoded held-out rows that eval_config's
    ``{"synthetic": {"n_per_leaf": 5, "dim": 4}}`` draws."""
    params, enc, _ = cli.load_checkpoint(trained / "checkpoint.json")
    spec = tr.SyntheticSpec(tree=balanced_tree((1, 2, 4)), dim=4, n_per_leaf=5, seed=3,
                            noise_seed=13)
    return dg.pairwise_l2(tr.encode(params, enc, tr.generate_hierarchical_gaussians(spec).features))


def test_eval_sampled_delta_draws_from_its_seed(trained, tmp_path):
    held_out = {"synthetic": {"n_per_leaf": 5, "dim": 4}}
    dm = held_out_distances(trained)
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


def test_eval_sampled_delta_is_the_direct_formula(trained, tmp_path):
    # two full blocks and a partial one of the scan
    k = 2 * dg.DELTA_BLOCK + 5
    path = eval_config(trained, tmp_path, {"synthetic": {"n_per_leaf": 5, "dim": 4}},
                       delta={"mode": "sampled", "k": k, "seed": 9})
    assert run_code("eval", path, tmp_path) == cli.EXIT_OK
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    dm = held_out_distances(trained)
    delta = nine_gather_delta_sampled(dm.dist, k, 9)
    assert delta > 0.0
    assert metrics["delta_rel"] == 2.0 * delta / dm.diameter


# what each fault reads as after "<path>, ": the header is line 1, so the
# first data row is line 2 and the second line 3
CSV_FAULTS = {
    "nan": "line 3: a feature is NaN or infinite",
    "-inf": "line 3: a feature is NaN or infinite",
    "ragged": "line 3: 3 features where the header has 4",
    "abc": "line 3: could not convert string to float: 'abc'",
    "zebra": "line 3: unknown vertex name 'zebra'",
    "short_first": "line 2: 3 features where the header has 4",
    "narrow_header": "line 2: 4 features where the header has 3",
}


@pytest.mark.parametrize("bad", [np.nan, -np.inf, "ragged", "abc", "zebra", "short_first",
                                 "narrow_header"])
@pytest.mark.parametrize("command,key", [("train", "dataset"), ("eval", "train_dataset"),
                                         ("eval", "eval_dataset"), ("oodsim", "id_train"),
                                         ("oodsim", "ood_sets"), ("spectra", "features_csv")])
def test_a_non_finite_csv_feature_is_an_error_before_any_output(trained, tmp_path, capsys,
                                                               command, key, bad):
    tree = balanced_tree((1, 2, 4))
    dataset = tr.generate_hierarchical_gaussians(
        tr.SyntheticSpec(tree=tree, dim=4, n_per_leaf=5, seed=3))
    if not isinstance(bad, str):
        dataset.features[1, 2] = bad
    path = tmp_path / "bad.csv"
    save_dataset_csv(path, dataset, tree)
    if isinstance(bad, str):
        lines = path.read_text().splitlines()
        if bad == "narrow_header":
            # every row carries one feature more than the header names
            lines[0] = ",".join(lines[0].split(",")[:-1])
        else:
            row = 1 if bad == "short_first" else 2
            cells = lines[row].split(",")
            lines[row] = ",".join({"ragged": cells[:-1], "short_first": cells[:-1],
                                   "abc": cells[:3] + ["abc"] + cells[4:],
                                   "zebra": ["zebra"] + cells[1:]}[bad])
        path.write_text("\n".join(lines) + "\n")
    config = dict(command_configs(trained)[command])
    if key == "features_csv":
        config = {"features_csv": str(path), "hierarchy": TREE}
    elif key == "ood_sets":
        config["ood_sets"] = {"far": {"csv": str(path)}}
    else:
        config[key] = {"csv": str(path)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert run_code(command, config_path, tmp_path) == cli.EXIT_ERROR
    assert (f"error: ValidationError: {path}, {CSV_FAULTS[str(bad)]}"
            in capsys.readouterr().err)
    assert not any((tmp_path / "out").iterdir())


def test_checkpoint_with_a_removed_objective_key_is_a_config_error(trained, tmp_path):
    checkpoint = json.loads((trained / "checkpoint.json").read_text())
    checkpoint["objective"]["map_mode"] = "exp_map"
    path = tmp_path / "old.json"
    path.write_text(json.dumps(checkpoint))
    with pytest.raises(ConfigError, match=r"old\.json: objective\.map_mode: unknown key"):
        cli.load_checkpoint(path)


# a fault of a checkpoint.json, and the ConfigError it reads as after its path
CHECKPOINT_FAULTS = {
    "no_encoder": "encoder: required key is missing",
    "no_param": "params.enc.b2: required key is missing",
    "param_shape": "params.enc.w1: shape (4, 7) is not (4, 8)",
    "ragged_param": "params.enc.w1: not a (4, 8) array",
    "not_json": "not valid JSON: Expecting property name enclosed in double quotes: "
                "line 2 column 1 (char 2)",
}


def broken_checkpoint(trained, tmp_path, fault):
    path = tmp_path / "broken.json"
    if fault == "not_json":
        # cut off after its first line, "{"
        path.write_text((trained / "checkpoint.json").read_text()[:2])
        return path
    checkpoint = json.loads((trained / "checkpoint.json").read_text())
    if fault == "no_encoder":
        del checkpoint["encoder"]
    elif fault == "no_param":
        del checkpoint["params"]["enc.b2"]
    elif fault == "param_shape":
        checkpoint["params"]["enc.w1"] = [row[:7] for row in checkpoint["params"]["enc.w1"]]
    else:
        checkpoint["params"]["enc.w1"][2].pop()
    path.write_text(json.dumps(checkpoint))
    return path


@pytest.mark.parametrize("fault,message", [("missing", "checkpoint not found"),
                                           ("input_dim", "methods.method: must be a checkpoint of the data's"),
                                           *(pytest.param(fault, message, id=fault)
                                             for fault, message in CHECKPOINT_FAULTS.items())])
def test_oodsim_checks_every_checkpoint_before_any_output(trained, tmp_path, capsys,
                                                          fault, message):
    config = oodsim_config(trained)
    if fault == "missing":
        config["methods"]["missing"] = str(tmp_path / "no" / "checkpoint.json")
    elif fault == "input_dim":
        config["id_train"] = config["id_eval"] = {"synthetic": {"n_per_leaf": 5, "dim": 5}}
    else:
        path = broken_checkpoint(trained, tmp_path, fault)
        config["methods"]["broken"] = str(path)
        message = f"ConfigError: {path}: {message}"
    config_path = tmp_path / "oodsim.json"
    config_path.write_text(json.dumps(config))
    assert run_code("oodsim", config_path, tmp_path) == cli.EXIT_ERROR
    assert message in capsys.readouterr().err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("fault", list(CHECKPOINT_FAULTS))
def test_eval_checks_its_checkpoint_before_any_output(trained, tmp_path, capsys, fault):
    path = broken_checkpoint(trained, tmp_path, fault)
    config_path = tmp_path / "eval.json"
    config_path.write_text(json.dumps(dict(command_configs(trained)["eval"],
                                           checkpoint=str(path))))
    assert run_code("eval", config_path, tmp_path) == cli.EXIT_ERROR
    assert (f"error: ConfigError: {path}: {CHECKPOINT_FAULTS[fault]}"
            in capsys.readouterr().err)
    assert not any((tmp_path / "out").iterdir())


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
