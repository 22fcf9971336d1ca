"""Synthetic data generation, the training loop, and direct tree embedding."""

import json
import sys
from dataclasses import fields

import numpy as np
import pytest

from hypstruct import autodiff as ad
from hypstruct import cli
from hypstruct import geometry as geo
from hypstruct import hierarchy as hi
from hypstruct import objective as obj
from hypstruct import training as tr
from hypstruct.errors import DegenerateVariance, DivergedError, InsufficientVertices

import composed_ops as composed
from conftest import event_totals, save_dataset_csv, traced_peak_mb
from synthetic_oracle import per_class_gaussians


@pytest.fixture(scope="module")
def tree():
    return hi.builtin_cifar10_tree()


class TestGenerator:
    def test_counts_and_labels(self, tree):
        spec = tr.SyntheticSpec(tree=tree, dim=16, n_per_leaf=50, seed=0)
        ds = tr.generate_hierarchical_gaussians(spec)
        assert ds.features.shape == (500, 16)
        assert ds.view2.shape == (500, 16)
        np.testing.assert_array_equal(np.bincount(ds.labels), [50] * 10)

    def test_zero_noise_hits_centers(self, tree):
        spec = tr.SyntheticSpec(tree=tree, dim=8, noise_sigma=1e-12, n_per_leaf=1, seed=1)
        ds = tr.generate_hierarchical_gaussians(spec)
        centers = tr.leaf_centers(spec)
        np.testing.assert_allclose(ds.features, centers, atol=1e-9)

    def test_same_seed_bitwise_identical(self, tree):
        spec = tr.SyntheticSpec(tree=tree, dim=16, n_per_leaf=10, seed=7)
        a = tr.generate_hierarchical_gaussians(spec)
        b = tr.generate_hierarchical_gaussians(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.view2, b.view2)

    @pytest.mark.parametrize("n_per_leaf,dim,seed,noise_seed", [
        (1, 1, 0, None), (3, 4, 2, None), (10, 16, 7, 17), (50, 3, 11, 21), (7, 32, 5, 0),
    ])
    def test_one_draw_matches_the_per_class_loop(self, tree, n_per_leaf, dim, seed,
                                                 noise_seed):
        spec = tr.SyntheticSpec(tree=tree, dim=dim, n_per_leaf=n_per_leaf, seed=seed,
                                noise_seed=noise_seed)
        got, want = tr.generate_hierarchical_gaussians(spec), per_class_gaussians(spec)
        for name in ("features", "view2", "labels"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert getattr(got, name).shape == getattr(want, name).shape, name

    def test_noise_seed_shares_centers(self, tree):
        base = dict(tree=tree, dim=16, n_per_leaf=30, seed=3, noise_sigma=1e-9)
        a = tr.generate_hierarchical_gaussians(tr.SyntheticSpec(**base, noise_seed=10))
        b = tr.generate_hierarchical_gaussians(tr.SyntheticSpec(**base, noise_seed=20))
        np.testing.assert_allclose(a.features, b.features, atol=1e-6)

    def test_spread_ordering_warning(self, tree):
        with pytest.warns(UserWarning):
            tr.SyntheticSpec(tree=tree, coarse_spread=0.1, fine_spread=1.0,
                             noise_sigma=0.5)

    def test_csv_round_trip(self, tree, tmp_path):
        spec = tr.SyntheticSpec(tree=tree, dim=4, n_per_leaf=3, seed=2)
        ds = tr.generate_hierarchical_gaussians(spec)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, ds, tree)
        back = tr.load_dataset_csv(path, tree)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


def small_dataset(tree, seed=0):
    spec = tr.SyntheticSpec(tree=tree, dim=8, coarse_spread=1.5, fine_spread=0.9,
                            noise_sigma=0.3, n_per_leaf=10, seed=seed)
    return tr.generate_hierarchical_gaussians(spec)


class TestTrain:
    def test_flat_descent(self, tree):
        ds = small_dataset(tree)
        enc = tr.EncoderSpec(kind="linear", input_dim=8, output_dim=8, seed=0)
        tc = tr.TrainConfig(epochs=20, batch_size=50, lr0=0.05, seed=0)
        res = tr.train(ds, tree, enc, obj.ObjectiveConfig(alpha=0.0, beta=0.0), tc)
        assert res.history[-1].flat < res.history[0].flat

    def test_zero_lr_single_step_keeps_params(self, tree):
        ds = small_dataset(tree)
        enc = tr.EncoderSpec(kind="linear", input_dim=8, output_dim=4, seed=3)
        tc = tr.TrainConfig(epochs=1, batch_size=100, lr0=1e-300, momentum=0.0,
                            schedule="constant", weight_decay=0.0, seed=0)
        cfg = obj.ObjectiveConfig(alpha=0.0, beta=0.0)
        res = tr.train(ds, tree, enc, cfg, tc)
        init = tr.init_params(tr.param_shapes(enc, cfg, tree.n_classes), enc.seed)
        assert res.params.keys() == init.keys()
        for name in init:
            np.testing.assert_allclose(res.params[name], init[name], atol=1e-290)

    def test_cpcc_improves_with_regularizer(self, tree):
        ds = small_dataset(tree)
        enc = tr.EncoderSpec(kind="mlp_1hidden", input_dim=8, hidden_dim=32,
                             output_dim=8, seed=1)
        tc = tr.TrainConfig(epochs=30, batch_size=50, lr0=0.02, weight_decay=1e-3, seed=1)
        res = tr.train(ds, tree, enc, obj.ObjectiveConfig(alpha=1.0, beta=0.01), tc)
        assert res.history[-1].cpcc > res.history[0].cpcc

    def test_deterministic_histories(self, tree):
        ds = small_dataset(tree)
        enc = tr.EncoderSpec(kind="linear", input_dim=8, output_dim=4, seed=2)
        tc = tr.TrainConfig(epochs=5, batch_size=50, lr0=0.05, seed=9)
        cfg = obj.ObjectiveConfig(alpha=1.0, beta=0.01)
        a = tr.train(ds, tree, enc, cfg, tc)
        b = tr.train(ds, tree, enc, cfg, tc)
        assert a.history == b.history

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_location(self, tree):
        ds = small_dataset(tree)
        enc = tr.EncoderSpec(kind="linear", input_dim=8, output_dim=4, seed=0)
        tc = tr.TrainConfig(epochs=50, batch_size=50, lr0=1e12, weight_decay=0.0, seed=0)
        with pytest.raises(DivergedError) as err:
            tr.train(ds, tree, enc, obj.ObjectiveConfig(alpha=0.0, beta=0.0), tc)
        assert err.value.epoch >= 0
        assert err.value.batch >= 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_counts_the_runs_boundary_events(self, tree):
        ds = small_dataset(tree)
        enc = tr.EncoderSpec(kind="linear", input_dim=8, output_dim=4, seed=0)
        tc = tr.TrainConfig(epochs=50, batch_size=50, lr0=1e3, weight_decay=0.0, seed=0)
        before = event_totals()
        with pytest.raises(DivergedError) as err:
            tr.train(ds, tree, enc, obj.ObjectiveConfig(), tc)
        clamps, clips = np.subtract(event_totals(), before)
        assert clamps > 0
        assert f"(after {clamps} atanh clamps and {clips} ball-clip rescales)" in str(err.value)

    def test_supcon_training_runs(self, tree):
        ds = small_dataset(tree)
        enc = tr.EncoderSpec(kind="linear", input_dim=8, output_dim=8, seed=4)
        tc = tr.TrainConfig(epochs=10, batch_size=50, lr0=0.05, seed=4)
        cfg = obj.ObjectiveConfig(alpha=1.0, beta=0.01, flat_loss="supcon", tau=0.5)
        res = tr.train(ds, tree, enc, cfg, tc)
        assert res.history[-1].flat < res.history[0].flat

    def test_cosine_schedule_endpoints(self):
        tc = tr.TrainConfig(epochs=40, batch_size=1, lr0=0.5, schedule="cosine")
        assert tr.learning_rate(tc, 0) == 0.5
        assert tr.learning_rate(tc, 39) <= 0.01 * 0.5


def replayed_cpcc_skips(tree, dataset, tc):
    """Batches of ``train``'s shuffles whose present leaves give fewer than 3
    pairs, or pairs all at one tree distance; counted from the seeded
    permutations and the tree metric alone."""
    metric = hi.tree_metric(tree)
    rng = np.random.default_rng(tc.seed)
    skips = 0
    for _ in range(tc.epochs):
        perm = rng.permutation(dataset.n)
        for start in range(0, dataset.n, tc.batch_size):
            batch = dataset.labels[perm[start:start + tc.batch_size]]
            leaves = sorted({tree.leaf_of_class(int(k)) for k in batch})
            dists = {metric[a, b] for i, a in enumerate(leaves) for b in leaves[i + 1:]}
            skips += len(leaves) * (len(leaves) - 1) // 2 < obj.MIN_CPCC_PAIRS or len(dists) == 1
    return skips


@pytest.mark.parametrize("seed", range(4))
def test_leaf_only_batches_without_a_cpcc_term_are_skipped(tree, seed):
    # three rows of ten leaves: a batch often has fewer than three classes, or
    # three leaves of one coarse group, all at tree distance 2 from each other
    ds = tr.generate_hierarchical_gaussians(tr.SyntheticSpec(tree=tree, n_per_leaf=3, seed=seed))
    enc = tr.EncoderSpec(seed=seed + 1)
    tc = tr.TrainConfig(epochs=2, batch_size=3, lr0=0.01, seed=seed)
    res = tr.train(ds, tree, enc, obj.ObjectiveConfig(tree_scope="leaf_only"), tc)
    assert res.skipped_cpcc_steps == replayed_cpcc_skips(tree, ds, tc) > 0
    assert all(np.isfinite([row.flat, row.cpcc, row.center]).all() for row in res.history)


def test_constant_prototype_distances_skip_the_cpcc_term(tree, tmp_path, monkeypatch):
    # at lr0 0.05 the three leaf prototypes of epoch 1, batch 5 reach the
    # ball's boundary and all three pairs clamp at 2 atanh(ATANH_MAX): the
    # correlation would be 0/0, so that batch is skipped like one whose tree
    # distances are constant, instead of ending the run as diverged
    raised = []
    term = obj.cpcc_term_core

    def spy(*args, **kwargs):
        try:
            return term(*args, **kwargs)
        except DegenerateVariance as err:
            raised.append(str(err))
            raise

    monkeypatch.setattr(obj, "cpcc_term_core", spy)
    config = {"hierarchy": "builtin:cifar10", "seed": 0,
              "dataset": {"synthetic": {"n_per_leaf": 3}},
              "objective": {"tree_scope": "leaf_only"},
              "train": {"epochs": 2, "batch_size": 3, "lr0": 0.05, "seed": 0}}
    (tmp_path / "train.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(tmp_path / "train.json"),
                     "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    ds = tr.generate_hierarchical_gaussians(tr.SyntheticSpec(tree=tree, n_per_leaf=3, seed=0))
    tc = tr.TrainConfig(epochs=2, batch_size=3, lr0=0.05, seed=0)
    assert summary["skipped_cpcc_steps"] == replayed_cpcc_skips(tree, ds, tc) + 1
    assert sum(msg.startswith("prototype distances") for msg in raised) == 1


class TestEmbedTreeDirect:
    def test_three_leaf_star_l2_exact(self):
        star = hi.balanced_tree([1, 3])
        res = tr.embed_tree_direct(star, 2, "l2", obj.ObjectiveConfig(),
                                   tr.EmbedBudget(restarts=3, steps=1500, seed=0))
        assert res.cpcc >= 0.999

    def test_two_vertex_tree_rejected(self):
        chain = hi.balanced_tree([1, 1])
        with pytest.raises(InsufficientVertices):
            tr.embed_tree_direct(chain, 2, "l2", obj.ObjectiveConfig(), tr.EmbedBudget())

    def test_poincare_coords_inside_ball(self, tree):
        res = tr.embed_tree_direct(tree, 2, "poincare", obj.ObjectiveConfig(),
                                   tr.EmbedBudget(restarts=1, steps=200, seed=0))
        for xy in res.coords.values():
            assert float(xy @ xy) < 1.0

    def test_deterministic_across_runs(self, tree):
        budget = tr.EmbedBudget(restarts=2, steps=100, seed=5)
        a = tr.embed_tree_direct(tree, 2, "poincare", obj.ObjectiveConfig(), budget)
        b = tr.embed_tree_direct(tree, 2, "poincare", obj.ObjectiveConfig(), budget)
        assert a.cpcc == b.cpcc
        assert a.per_restart == b.per_restart

    def test_leaf_only_scope(self, tree):
        cfg = obj.ObjectiveConfig(tree_scope="leaf_only")
        res = tr.embed_tree_direct(tree, 2, "l2", cfg,
                                   tr.EmbedBudget(restarts=1, steps=100, seed=0))
        assert set(res.coords.keys()) == set(tree.leaf_classes)


def test_best_restart_is_the_first_near_tie(tree):
    # l2 restarts converge to the same optimum up to scale and rotation, so
    # their final CPCC values agree to the last bits; a one-ulp change of the
    # step size reorders them (argmax picks restart 7, then 0) but must not
    # move the reported restart
    runs = [tr.embed_tree_direct(tree, 2, "l2", obj.ObjectiveConfig(),
                                 tr.EmbedBudget(restarts=8, steps=1000, lr=lr, seed=0))
            for lr in (0.5, np.nextafter(0.5, 1.0))]
    chosen = []
    for res in runs:
        values = np.asarray(res.per_restart)
        top = values.max()
        tied = np.flatnonzero(values >= top - 1e-12 * abs(top))
        assert tied.size > 1
        assert res.cpcc == res.per_restart[tied[0]]
        chosen.append(int(tied[0]))
    assert chosen[0] == chosen[1]
    assert runs[0].coords.keys() == runs[1].coords.keys()
    for v, xy in runs[0].coords.items():
        np.testing.assert_allclose(runs[1].coords[v], xy, rtol=0, atol=1e-12)


def sequential_embed(tree, dim, distance_mode, cfg, budget):
    """One restart at a time, one tape per step: the unbatched reference.

    Returns per-restart final CPCC, final tangent/free coordinates and the
    step at which each restart stopped on a non-finite gradient (None if it
    ran every step).
    """
    vertices = obj.scope_vertices(tree, cfg.tree_scope)
    k = len(vertices)
    vids = np.asarray(vertices)
    ii, jj = np.triu_indices(k, 1)
    tdist = hi.tree_metric(tree)[vids[ii], vids[jj]]

    def objective(x):
        pts = geo.exp0(x, cfg.c) if distance_mode == "poincare" else x
        return obj.cpcc_core(tdist, geo.pair_distances(pts, distance_mode, cfg.c))

    finals, coords, stops = [], [], []
    for seq in np.random.SeedSequence(budget.seed).spawn(budget.restarts):
        x = budget.init_scale * np.random.default_rng(seq).standard_normal((k, dim))
        final, stop = -2.0, None
        for step in range(budget.steps):
            leaf = ad.Node(x)
            out = objective(leaf)
            g = ad.grad(out, [leaf])[0]
            if not np.all(np.isfinite(g)):
                stop = step
                break
            x = x + budget.lr * g
            final = float(ad.val(out))
        last = float(ad.val(objective(ad.Node(x))))
        if np.isfinite(last):
            final = last
        finals.append(final)
        coords.append(x)
        stops.append(stop)
    return finals, coords, stops


# Batched and sequential runs agree bit for bit on these cases (measured
# difference 0.0 in per-restart CPCC, best CPCC and coordinates, up to 1,000
# steps); the bound leaves room for a numpy whose reductions round differently.
EMBED_TOL = 1e-12


def assert_matches_sequential(tree, mode, cfg, budget):
    finals, coords, stops = sequential_embed(tree, 2, mode, cfg, budget)
    res = tr.embed_tree_direct(tree, 2, mode, cfg, budget)
    np.testing.assert_allclose(res.per_restart, finals, rtol=0, atol=EMBED_TOL)
    top = max(finals)
    best = next(i for i, v in enumerate(finals) if v >= top - tr.BEST_RESTART_RTOL * abs(top))
    assert res.cpcc == pytest.approx(finals[best], abs=EMBED_TOL)
    want = coords[best]
    if mode == "poincare":
        want = np.asarray(geo.exp0(want, cfg.c))
    for i, v in enumerate(obj.scope_vertices(tree, cfg.tree_scope)):
        np.testing.assert_allclose(res.coords[v], want[i], rtol=0, atol=EMBED_TOL)
    return stops, res


class TestBatchedRestartsMatchSequential:
    @pytest.mark.parametrize("scope", obj.TREE_SCOPES)
    @pytest.mark.parametrize("mode", ["poincare", "l2"])
    def test_matches(self, tree, mode, scope):
        cfg = obj.ObjectiveConfig(tree_scope=scope)
        budget = tr.EmbedBudget(restarts=3, steps=150, init_scale=0.25, seed=4)
        stops, _ = assert_matches_sequential(tree, mode, cfg, budget)
        assert stops == [None] * 3

    def test_non_finite_restart_freezes_alone(self, tree):
        # at this step size the first update overflows two of the four restarts
        # (their next gradient is non-finite); the other two keep going
        budget = tr.EmbedBudget(restarts=4, steps=30, lr=4e154, seed=0)
        with np.errstate(all="ignore"):
            stops, res = assert_matches_sequential(tree, "l2", obj.ObjectiveConfig(), budget)
        assert stops == [1, None, 1, None]
        assert all(np.isfinite(res.per_restart))


def assert_bitwise_equal_embeddings(got, want):
    assert np.array_equal(got.per_restart, want.per_restart)
    assert got.cpcc == want.cpcc
    assert got.coords.keys() == want.coords.keys()
    for v, xy in want.coords.items():
        assert got.coords[v].tobytes() == xy.tobytes()


class TestHandChainedLoopMatchesTheTape:
    """The hand-chained VJPs give the tape's gradient bit for bit, so every
    iterate, and so every reported value, is the tape formulation's."""

    @pytest.mark.parametrize("seed", [1, 11])
    @pytest.mark.parametrize("c", [1.0, 0.5])
    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("mode", ["poincare", "l2"])
    def test_matches(self, tree, mode, dim, c, seed):
        cfg = obj.ObjectiveConfig(c=c)
        budget = tr.EmbedBudget(restarts=3, steps=120, seed=seed)
        assert_bitwise_equal_embeddings(tr.embed_tree_direct(tree, dim, mode, cfg, budget),
                                        composed.embed_tree_tape(tree, dim, mode, cfg, budget))

    def test_non_finite_restarts(self, tree):
        # the step size of TestBatchedRestartsMatchSequential: two of the four
        # restarts stop after one step, and the loop leaves its fast path
        cfg = obj.ObjectiveConfig()
        budget = tr.EmbedBudget(restarts=4, steps=30, lr=4e154, seed=0)
        with np.errstate(all="ignore"):
            got = tr.embed_tree_direct(tree, 2, "l2", cfg, budget)
            want = composed.embed_tree_tape(tree, 2, "l2", cfg, budget)
        assert_bitwise_equal_embeddings(got, want)


@pytest.mark.parametrize("mode", ["poincare", "l2"])
def test_embed_tree_builds_no_tape(tree, mode, monkeypatch):
    # embed-tree's per-step cost is the kernels' arithmetic: a tape node or
    # an ad.grad call per step is what the hand-chained loop removed
    calls = {"nodes": 0, "grad": 0}
    node_init, grad = ad.Node.__init__, ad.grad

    def spy_init(self, *args, **kwargs):
        calls["nodes"] += 1
        node_init(self, *args, **kwargs)

    def spy_grad(*args, **kwargs):
        calls["grad"] += 1
        return grad(*args, **kwargs)

    monkeypatch.setattr(ad.Node, "__init__", spy_init)
    monkeypatch.setattr(ad, "grad", spy_grad)
    # the spies see tape use
    ad.grad(ad.sum(ad.Node(np.ones(2)) * 2.0), [ad.Node(np.ones(2))])
    assert calls == {"nodes": 4, "grad": 1}
    calls.update(nodes=0, grad=0)
    tr.embed_tree_direct(tree, 2, mode, obj.ObjectiveConfig(),
                         tr.EmbedBudget(restarts=2, steps=20, seed=0))
    assert calls == {"nodes": 0, "grad": 0}


def test_history_csv_format(tree, tmp_path):
    ds = small_dataset(tree)
    enc = tr.EncoderSpec(kind="linear", input_dim=8, output_dim=4, seed=0)
    tc = tr.TrainConfig(epochs=2, batch_size=50, lr0=0.05, seed=0)
    res = tr.train(ds, tree, enc, obj.ObjectiveConfig(alpha=0.0, beta=0.0), tc)
    # the same run through the CLI, which writes history.csv
    config = {"dataset": {"synthetic": {"dim": 8, "coarse_spread": 1.5, "fine_spread": 0.9,
                                        "noise_sigma": 0.3, "n_per_leaf": 10}},
              "encoder": {"kind": "linear", "output_dim": 4, "seed": 0},
              "objective": {"variant": "flat"},
              "train": {"epochs": 2, "batch_size": 50, "lr0": 0.05, "seed": 0}}
    (tmp_path / "train.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(tmp_path / "train.json"),
                     "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "history.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "epoch,flat,cpcc,center,lr"
    # integer epochs, and each value as the shortest text that reads back to it
    assert lines[1:] == [",".join([str(row.epoch), *(repr(float(x)) for x in
                                                    (row.flat, row.cpcc, row.center, row.lr))])
                         for row in res.history] + [""]


# tape size of one training step -------------------------------------------------------

def tape_nodes(out):
    """Unique tape nodes reachable from ``out`` (as the traced benchmark counts them)."""
    seen = {}
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(parent for parent, _ in node.parents)
    return list(seen.values())


# one composite_core step of train-c100's shape built 92 nodes before the
# all-pairs distance kernel, 90 with it, 83 with one leaf per parameter
# tensor instead of a slice and a reshape of one flat leaf per tensor, 58
# once centering read the root's row from the CPCC's prototype rows instead
# of building its own exp0 -> Klein -> Einstein midpoint chain, and 48 once
# each prototype mean or midpoint became one node over per-class sums
MAX_STEP_NODES = 48


def test_train_step_tape_size_on_cifar100_shape():
    tree = hi.balanced_tree((1, 20, 100))
    ds = tr.generate_hierarchical_gaussians(
        tr.SyntheticSpec(tree=tree, dim=32, n_per_leaf=2, seed=1))
    enc = tr.EncoderSpec(input_dim=32, hidden_dim=64, output_dim=16, seed=2)
    cfg = obj.ObjectiveConfig(cpcc_distance="poincare")
    params = tr.init_params(tr.param_shapes(enc, cfg, tree.n_classes), enc.seed)
    idx = np.random.default_rng(0).permutation(ds.n)[:128]
    xb, yb = ds.features[idx], ds.labels[idx]
    leaves = {name: ad.Node(p) for name, p in params.items()}
    feats = tr.encode(leaves, enc, xb)
    flat = obj.cross_entropy_core(tr.class_logits(leaves, feats), yb)
    total, skipped = obj.composite_core(feats, yb, tree, cfg, flat)
    assert not skipped
    nodes = tape_nodes(total)
    assert len(nodes) <= MAX_STEP_NODES

    # the only leaves are the parameter tensors, one each, and no node is a
    # slice or reshape (a view) of another node's value
    assert {id(n) for n in nodes if not n.parents} == {id(n) for n in leaves.values()}
    for node in nodes:
        for parent, _ in node.parents:
            assert not np.shares_memory(node.value, parent.value)

    # the pair distances are one node whose only parent is the prototype node
    present = obj.present_vertices(tree, yb, cfg.tree_scope)
    n_pairs = len(present) * (len(present) - 1) // 2
    pair_nodes = [n for n in nodes if n.value.shape == (n_pairs,)]
    assert len(pair_nodes) == 1
    (proto, _), = pair_nodes[0].parents
    np.testing.assert_array_equal(
        proto.value, obj.prototype_rows(np.asarray(feats.value), yb, tree, cfg, present))
    np.testing.assert_array_equal(pair_nodes[0].value,
                                  geo.pair_distances(proto.value, "poincare", cfg.c))

    # one prototype chain: the features pass through exp0 once
    mapped = geo.exp0(feats.value, cfg.c)
    assert sum(n.value.shape == mapped.shape and np.array_equal(n.value, mapped)
               for n in nodes) == 1
    # centering's root row is row 0 of that same prototype node
    root_rows = [n for n in nodes if any(p is proto for p, _ in n.parents)
                 and n.value.shape == (1, proto.value.shape[1])]
    assert len(root_rows) == 1 and present[0] == tree.root
    np.testing.assert_array_equal(root_rows[0].value, proto.value[:1])


@pytest.mark.parametrize("flat_loss", obj.FLAT_LOSSES)
def test_train_holds_one_batch_tape_at_a_time(tree, monkeypatch, flat_loss):
    # Node has __slots__ and no weakref slot, so the live nodes are the ids
    # that __init__ added and __del__ has not yet removed.  A node without
    # parents is a leaf; the first leaf after a non-leaf starts a batch.
    alive, at_batch_start, at_epoch_metrics = set(), [], []
    in_leaves, most_alive, after_grad = False, 0, []
    node_init, epoch_metrics, grad = ad.Node.__init__, tr.epoch_metrics, ad.grad

    def spy_init(self, value, parents=()):
        nonlocal in_leaves, most_alive
        if not parents and not in_leaves:
            at_batch_start.append(len(alive))
        in_leaves = not parents
        node_init(self, value, parents)
        alive.add(id(self))
        most_alive = max(most_alive, len(alive))

    def spy_del(self):
        alive.discard(id(self))

    def spy_epoch_metrics(*args, **kwargs):
        at_epoch_metrics.append(len(alive))
        return epoch_metrics(*args, **kwargs)

    def spy_grad(out, wrt):
        # grad consumes the tape: once it returns, the nodes still alive are
        # the leaves and the nodes _batch_gradients' own variables hold
        result = grad(out, wrt)
        held = [v for v in sys._getframe(1).f_locals.values() if isinstance(v, ad.Node)]
        after_grad.append((alive == {id(n) for n in [*wrt, *held]}, len(held)))
        return result

    monkeypatch.setattr(ad.Node, "__init__", spy_init)
    monkeypatch.setattr(ad.Node, "__del__", spy_del, raising=False)
    monkeypatch.setattr(tr, "epoch_metrics", spy_epoch_metrics)
    monkeypatch.setattr(ad, "grad", spy_grad)
    enc = tr.EncoderSpec(input_dim=8, hidden_dim=8, output_dim=4, seed=1)
    cfg = obj.ObjectiveConfig(flat_loss=flat_loss)
    tr.train(small_dataset(tree), tree, enc, cfg, tr.TrainConfig(epochs=2, batch_size=32, seed=2))
    # 100 rows in batches of 32 make four batches per epoch, and each
    # batch's tape has more nodes than leaves
    assert at_batch_start == [0] * 8
    assert at_epoch_metrics == [0, 0]
    assert most_alive > len(tr.param_shapes(enc, cfg, tree.n_classes))
    # the features, the flat loss and the total
    assert after_grad == [(True, 3)] * 8


def test_one_step_holds_only_what_its_remaining_vjps_need():
    # batch 512, hidden 256, output 64 on the CIFAR-100-shaped tree: this call
    # read 12.69 MB traced while grad kept the whole tape to its end, and
    # 8.29 MB once it frees each node's closures and gradient as it goes
    tree = hi.balanced_tree((1, 20, 100))
    ds = tr.generate_hierarchical_gaussians(
        tr.SyntheticSpec(tree=tree, dim=32, n_per_leaf=20, seed=1))
    enc = tr.EncoderSpec(input_dim=32, hidden_dim=256, output_dim=64, seed=2)
    cfg = obj.ObjectiveConfig(cpcc_distance="poincare")
    params = tr.init_params(tr.param_shapes(enc, cfg, tree.n_classes), enc.seed)
    idx = np.random.default_rng(0).permutation(ds.n)[:512]
    metric = hi.tree_metric(tree)
    assert traced_peak_mb(tr._batch_gradients, params, ds, idx, tree, enc, cfg, metric) < 10.0


@pytest.mark.parametrize("kind", ["linear", "mlp_1hidden"])
@pytest.mark.parametrize("flat_loss", obj.FLAT_LOSSES)
def test_init_params_are_the_per_tensor_draws_in_shape_order(kind, flat_loss):
    # one stream, each tensor drawn flat in turn: the draws a seed has always
    # given, so an old seed keeps its initial weights
    enc = tr.EncoderSpec(kind=kind, input_dim=5, hidden_dim=7, output_dim=3, seed=11)
    shapes = tr.param_shapes(enc, obj.ObjectiveConfig(flat_loss=flat_loss), 4)
    params = tr.init_params(shapes, enc.seed)
    assert list(params) == list(shapes)
    rng = np.random.default_rng(enc.seed)
    for name, shape in shapes.items():
        bound = 1.0 / np.sqrt(shape[0])
        want = rng.uniform(-bound, bound, size=int(np.prod(shape))).reshape(shape)
        assert params[name].shape == shape
        assert params[name].tobytes() == want.tobytes(), name


# every objective knob reaches the training run -----------------------------------------

def moved_values(field):
    """Every other allowed value of an ObjectiveConfig field: the rest of the
    one module-level tuple of choices that holds its default (``TREE_SCOPES``
    for ``tree_scope``), or for a number twice its default."""
    if not isinstance(field.default, str):
        return [2.0 * field.default]
    choices, = {t for t in vars(obj).values() if isinstance(t, tuple) and field.default in t}
    return [v for v in choices if v != field.default]


def test_every_objective_field_changes_the_history():
    # a knob that some setting leaves inert would give the default history;
    # tau acts only through SupCon, so it is moved under flat_loss "supcon"
    tree = hi.balanced_tree((1, 2, 4))
    ds = tr.generate_hierarchical_gaussians(tr.SyntheticSpec(tree=tree, dim=4, n_per_leaf=6,
                                                             seed=1))
    enc = tr.EncoderSpec(input_dim=4, hidden_dim=8, output_dim=4, seed=2)
    tc = tr.TrainConfig(epochs=2, batch_size=8, seed=3)

    def history(**changes):
        return tr.train(ds, tree, enc, obj.ObjectiveConfig(**changes), tc).history

    for field in fields(obj.ObjectiveConfig):
        base = {"flat_loss": "supcon"} if field.name == "tau" else {}
        want = history(**base)
        for value in moved_values(field):
            assert history(**base, **{field.name: value}) != want, (field.name, value)


@pytest.mark.parametrize("objective", [{}, {"centroid_mode": "euclidean_then_map"},
                                       {"cpcc_distance": "l2"}])
def test_epoch_metrics_holds_no_vertices_by_samples_array(objective):
    # 20,000 rows under 121 vertices: one (vertices, samples) float64 matrix
    # is 18.5 MB.  The per-row arrays of the prototype pass peak at 10.6 MB
    # (Einstein midpoints) and 5.6 MB (means) here.  Bound: one such matrix.
    tree = hi.balanced_tree((1, 20, 100))
    ds = tr.generate_hierarchical_gaussians(
        tr.SyntheticSpec(tree=tree, dim=32, n_per_leaf=200, seed=1))
    ds.view2 = None
    enc = tr.EncoderSpec(input_dim=32, hidden_dim=64, output_dim=16, seed=2)
    cfg = obj.ObjectiveConfig(**objective)
    params = tr.init_params(tr.param_shapes(enc, cfg, tree.n_classes), enc.seed)
    assert ds.n == 20_000
    peak = traced_peak_mb(tr.epoch_metrics, params, enc, ds, tree, cfg)
    assert peak < tree.n_vertices * ds.n * 8 / 2**20


# 1,000 rows in blocks of 3 leave a lone last row
@pytest.mark.parametrize("kind", ["linear", "mlp_1hidden"])
@pytest.mark.parametrize("block_rows", [2, 3, 7, 256, 10_000])
def test_encode_rows_is_the_whole_array_encode_bit_for_bit(monkeypatch, block_rows, kind):
    enc = tr.EncoderSpec(kind=kind, input_dim=32, hidden_dim=64, output_dim=16, seed=2)
    params = tr.init_params(tr.encoder_shapes(enc), enc.seed)
    x = np.random.default_rng(28).standard_normal((1000, 32))
    monkeypatch.setattr(tr, "ENCODE_BLOCK_ROWS", block_rows)
    np.testing.assert_array_equal(tr.encode_rows(params, enc, x), tr.encode(params, enc, x))
