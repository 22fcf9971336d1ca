"""CPCC, flat losses, prototypes, composite objective, and gradient contracts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hypstruct import autodiff as ad
from hypstruct import geometry as geo
from hypstruct import hierarchy as hi
from hypstruct import objective as obj
from hypstruct.errors import ClassWithoutPositive, InsufficientVertices

import composed_ops as composed
from conftest import central_difference, event_totals, gradient, weighted_grad


def brute_force_pearson(t, f):
    t = np.asarray(t, float)
    f = np.asarray(f, float)
    td = t - t.mean()
    fd = f - f.mean()
    return float((td * fd).sum() / math.sqrt((td ** 2).sum() * (fd ** 2).sum()))


def cpcc(t, f):
    """Pearson correlation of two paired distance lists, as a float."""
    return float(obj.cpcc_core(t, f))


class TestCpcc:
    def test_exact_linear_relations(self):
        assert cpcc([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
        assert cpcc([1, 2], [2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_value(self):
        want = 13.0 / 14.0
        assert cpcc([1, 2, 4], [1, 3, 4]) == pytest.approx(want, abs=1e-12)
        assert brute_force_pearson([1, 2, 4], [1, 3, 4]) == pytest.approx(want, abs=1e-12)

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.uniform(1, 5, size=10)
            f = rng.uniform(0, 3, size=10)
            assert cpcc(t, f) == pytest.approx(brute_force_pearson(t, f), abs=1e-12)

    def test_affine_invariance_and_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = rng.uniform(1, 5, size=8)
            f = rng.uniform(0, 3, size=8)
            a = rng.uniform(0.1, 4.0)
            b = rng.uniform(-2.0, 2.0)
            base = cpcc(t, f)
            assert cpcc(t, a * f + b) == pytest.approx(base, abs=1e-12)
            assert cpcc(t, -a * f + b) == pytest.approx(-base, abs=1e-12)
            assert cpcc(f, t) == pytest.approx(base, abs=1e-12)


class TestCpccFusedBackward:
    """The one-node cpcc_core against the composed Pearson correlation."""

    @pytest.mark.parametrize("shape", [(12,), (3, 12)])
    def test_matches_composed_and_finite_differences(self, shape):
        rng = np.random.default_rng(31)
        t = rng.uniform(1, 5, size=shape[-1])
        f = rng.uniform(0, 3, size=shape)
        w = rng.uniform(0.5, 2.0, size=shape[:-1])
        np.testing.assert_array_equal(obj.cpcc_core(t, f), composed.cpcc_core(t, f))

        def fused(v):
            return obj.cpcc_core(t, v)

        def comp(v):
            return composed.cpcc_core(t, v)

        g = weighted_grad(fused, f, w)
        want = central_difference(lambda v: float(np.sum(fused(v) * w)), f)
        np.testing.assert_allclose(g, weighted_grad(comp, f, w), rtol=0, atol=1e-10)
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-7)
        np.testing.assert_allclose(weighted_grad(comp, f, w), want, rtol=0, atol=1e-7)
        # the tree distances are a constant operand, never a tape node
        with pytest.raises(TypeError):
            obj.cpcc_core(ad.Node(t), f)

    def test_leading_axis_is_a_batch(self):
        rng = np.random.default_rng(32)
        t = rng.uniform(1, 5, size=15)
        f = rng.uniform(0, 3, size=(4, 15))
        batched = obj.cpcc_core(t, f)
        g = weighted_grad(lambda v: obj.cpcc_core(t, v), f, np.ones(4))
        for r in range(4):
            assert batched[r] == obj.cpcc_core(t, f[r])
            np.testing.assert_array_equal(g[r], gradient(lambda v: obj.cpcc_core(t, v), f[r]))

    @pytest.mark.parametrize("batched", [False, True])
    def test_clamped_pairs_through_pair_kernel(self, batched):
        # CPCC over Poincare pair distances where points 1 and 3 sit one ulp
        # inside the unit circle: the atanh of each of their 7 pairs clamps
        edge = np.nextafter(1.0, 0.0)
        z = np.array([[0.3, 0.1], [edge, 0.0], [-0.2, 0.4], [-edge, 0.0], [0.1, -0.5]])
        t = np.arange(1.0, 11.0) % 4 + 1.0
        if batched:
            z = np.stack([z, z[::-1]])
        seen = {}
        for name, impl, corr in (("fused", geo, obj.cpcc_core),
                                 ("composed", composed, composed.cpcc_core)):
            before = event_totals()
            g = weighted_grad(lambda x: corr(t, impl.pair_distances(x, "poincare", 1.0)),
                              z, np.ones(z.shape[:-2]))
            seen[name] = (g, tuple(np.subtract(event_totals(), before)))
        g, events = seen["fused"]
        assert events == seen["composed"][1] == (14 if batched else 7, 0)
        np.testing.assert_allclose(g, seen["composed"][0], rtol=0, atol=1e-10)
        assert np.all(g[..., [1, 3], :] == 0.0)
        assert np.all(g[..., [0, 2, 4], :] != 0.0)


def centroid_distance(group_a, group_b):
    """l2 distance between two class centroids, as the l2 CPCC term measures it."""
    tree = hi.balanced_tree((1, 2))
    a, b = np.atleast_2d(group_a), np.atleast_2d(group_b)
    labels = [0] * len(a) + [1] * len(b)
    rows = obj.euclidean_prototype_rows(np.vstack([a, b]), labels, tree, tree.leaf_classes)
    return float(geo.pair_distances(rows, "l2", 1.0)[0])


class TestL2DatasetDistance:
    def test_identical_groups(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert centroid_distance(g, g) == 0.0

    def test_single_points(self):
        assert centroid_distance([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)

    def test_centroids(self):
        a = [[0.0, 0.0], [2.0, 0.0]]
        b = [[5.0, 0.0], [7.0, 0.0]]
        assert centroid_distance(a, b) == pytest.approx(5.0)


def prototypes(features, labels, tree, cfg):
    """Poincare prototype of each present in-scope vertex, keyed by vertex."""
    present = obj.present_vertices(tree, labels, cfg.tree_scope)
    return dict(zip(present, obj.prototype_rows(np.asarray(features, dtype=np.float64),
                                                labels, tree, cfg, present)))


class TestPrototypes:
    def setup_method(self):
        self.tree = hi.builtin_cifar10_tree()

    def test_single_sample_leaf_only(self):
        z = np.array([[0.2, 0.1]])
        cfg = obj.ObjectiveConfig(tree_scope="leaf_only")
        protos = prototypes(z, [0], self.tree, cfg)
        leaf = self.tree.leaf_of_class(0)
        assert set(protos) == {leaf}
        np.testing.assert_allclose(protos[leaf], geo.exp0(z[0], 1.0), atol=1e-12)

    def test_euclidean_mean_of_opposites_is_origin(self):
        z = np.array([[0.4, 0.0], [-0.4, 0.0]])
        cfg = obj.ObjectiveConfig(tree_scope="leaf_only",
                                  centroid_mode="euclidean_then_map")
        protos = prototypes(z, [2, 2], self.tree, cfg)
        np.testing.assert_allclose(protos[self.tree.leaf_of_class(2)], 0.0, atol=1e-15)

    def test_klein_average_of_opposites_is_origin(self):
        z = np.array([[0.4, 0.0], [-0.4, 0.0]])
        cfg = obj.ObjectiveConfig(tree_scope="leaf_only", centroid_mode="klein_average")
        protos = prototypes(z, [2, 2], self.tree, cfg)
        np.testing.assert_allclose(protos[self.tree.leaf_of_class(2)], 0.0, atol=1e-15)

    def test_full_tree_includes_internals_and_root(self):
        rng = np.random.default_rng(2)
        cfg = obj.ObjectiveConfig(tree_scope="full_tree")
        protos = prototypes(rng.standard_normal((20, 3)) * 0.2, rng.integers(0, 10, size=20),
                            self.tree, cfg)
        assert self.tree.root in protos
        assert self.tree.id_of("animal") in protos

    def test_internal_prototype_aggregates_descendants(self):
        # all transportation samples sit at +v, all animal samples at -v
        z = np.array([[0.3, 0.0], [0.3, 0.0], [-0.3, 0.0], [-0.3, 0.0]])
        cfg = obj.ObjectiveConfig(tree_scope="full_tree")
        protos = prototypes(z, [0, 1, 4, 5], self.tree, cfg)
        trans = self.tree.id_of("transportation")
        np.testing.assert_allclose(protos[trans], geo.exp0(np.array([0.3, 0.0]), 1.0),
                                   atol=1e-12)
        np.testing.assert_allclose(protos[self.tree.root], 0.0, atol=1e-12)


def reference_present_vertices(tree, labels, scope):
    """Per-vertex loop: keep a vertex when the batch holds one of its classes."""
    batch_classes = set(int(k) for k in np.unique(labels))
    return [v for v in obj.scope_vertices(tree, scope)
            if batch_classes.intersection(np.flatnonzero(tree.membership[v]))]


def reference_sample_indices(tree, labels, vertices):
    return [np.flatnonzero(np.isin(labels, np.flatnonzero(tree.membership[v]))) for v in vertices]


def reference_euclidean_rows(features, labels, tree, vertices):
    return np.stack([features[idx].mean(axis=0)
                     for idx in reference_sample_indices(tree, labels, vertices)])


def reference_prototype_rows(features, labels, tree, cfg, vertices):
    """Per-vertex loop: one Einstein midpoint, or one plain, mapped or clipped
    mean per vertex."""
    if cfg.cpcc_distance == "l2":
        return reference_euclidean_rows(features, labels, tree, vertices)
    protos = []
    if cfg.centroid_mode == "klein_average":
        klein = geo.to_klein(geo.exp0(features, cfg.c), cfg.c)
        gamma = geo.lorentz_gamma(klein, cfg.c)
        for idx in reference_sample_indices(tree, labels, vertices):
            mid = np.sum(gamma[idx] * klein[idx], axis=0) / np.sum(gamma[idx])
            protos.append(geo.to_poincare(mid, cfg.c))
    else:
        for centroid in reference_euclidean_rows(features, labels, tree, vertices):
            if cfg.centroid_mode == "euclidean_then_clip":
                protos.append(geo.clip0(centroid, cfg.c))
            else:
                protos.append(geo.exp0(centroid, cfg.c))
    return np.stack(protos)


def partial_batch(rng, tree, n=24, dim=3, scale=0.6):
    """Random batch whose labels leave out at least two fine classes."""
    kept = rng.choice(tree.n_classes, size=int(rng.integers(2, tree.n_classes - 1)),
                      replace=False)
    labels = rng.choice(kept, size=n)
    return rng.standard_normal((n, dim)) * scale, labels


PROTOTYPE_VARIANTS = [
    {"centroid_mode": "klein_average"},
    {"centroid_mode": "euclidean_then_map"},
    {"centroid_mode": "euclidean_then_clip", "c": 4.0},
    {"cpcc_distance": "l2"},
]


class TestPrototypeOracle:
    """The membership-matrix prototypes against the per-vertex loops."""

    tree = hi.balanced_tree((1, 2, 4, 8))

    @pytest.mark.parametrize("scope", obj.TREE_SCOPES)
    def test_present_vertices(self, scope):
        rng = np.random.default_rng(20)
        for _ in range(20):
            _, labels = partial_batch(rng, self.tree)
            assert len(np.unique(labels)) < self.tree.n_classes
            assert (obj.present_vertices(self.tree, labels, scope)
                    == reference_present_vertices(self.tree, labels, scope))

    @pytest.mark.parametrize("variant", PROTOTYPE_VARIANTS)
    @pytest.mark.parametrize("scope", obj.TREE_SCOPES)
    def test_prototype_rows(self, scope, variant):
        rng = np.random.default_rng(21)
        cfg = obj.ObjectiveConfig(tree_scope=scope, **variant)
        for _ in range(20):
            feats, labels = partial_batch(rng, self.tree)
            present = obj.present_vertices(self.tree, labels, scope)
            got = obj.prototype_rows(feats, labels, self.tree, cfg, present)
            want = reference_prototype_rows(feats, labels, self.tree, cfg, present)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scope", obj.TREE_SCOPES)
    def test_euclidean_prototype_rows(self, scope):
        rng = np.random.default_rng(22)
        for _ in range(20):
            feats, labels = partial_batch(rng, self.tree, scale=3.0)
            present = obj.present_vertices(self.tree, labels, scope)
            got = obj.euclidean_prototype_rows(feats, labels, self.tree, present)
            want = reference_euclidean_rows(feats, labels, self.tree, present)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", PROTOTYPE_VARIANTS[:2])
    @pytest.mark.parametrize("scope", obj.TREE_SCOPES)
    def test_prototype_gradient(self, scope, variant):
        rng = np.random.default_rng(23)
        cfg = obj.ObjectiveConfig(tree_scope=scope, **variant)
        feats, labels = partial_batch(rng, self.tree, n=12, dim=2)
        present = obj.present_vertices(self.tree, labels, scope)
        weights = rng.standard_normal((len(present), 2))

        def closure(p):
            return ad.sum(obj.prototype_rows(p, labels, self.tree, cfg, present) * weights)

        g = gradient(closure, feats)
        want = central_difference(lambda v: float(ad.val(closure(v))), feats)
        assert np.max(np.abs(g - want) / np.maximum(np.abs(want), 1e-4)) <= 1e-4


def test_coincident_parent_and_child_prototypes():
    # on (1,20,100) coarse vertex 1 keeps a single present leaf, so its
    # prototype and that leaf's are the same point: their distance is exactly
    # 0, and the CPCC gradient stays finite with no atanh clamp
    tree = hi.balanced_tree((1, 20, 100))
    rng = np.random.default_rng(33)
    coarse = tree.coarse_labels(np.arange(tree.n_classes))
    lone = int(np.flatnonzero(coarse == coarse[0])[0])
    classes = np.concatenate([[lone], np.flatnonzero(coarse != coarse[0])])
    labels = np.repeat(classes, 2)
    feats = 0.3 * rng.standard_normal((labels.size, 16))
    cfg = obj.ObjectiveConfig(cpcc_distance="poincare")
    present = obj.present_vertices(tree, labels, cfg.tree_scope)
    a = present.index(tree.parent[tree.leaf_of_class(lone)])
    b = present.index(tree.leaf_of_class(lone))
    rows = obj.prototype_rows(feats, labels, tree, cfg, present)
    np.testing.assert_array_equal(rows[a], rows[b])
    ii, jj = np.triu_indices(len(present), 1)
    dists = geo.pair_distances(rows, "poincare", cfg.c)
    assert dists[(ii == min(a, b)) & (jj == max(a, b))] == [0.0]
    assert np.count_nonzero(dists == 0.0) == 1
    g, nondiff = gradient(lambda x: obj.cpcc_term_core(x, labels, tree, cfg)[0], feats,
                          return_nondifferentiable=True)
    assert np.all(np.isfinite(g)) and np.any(g != 0.0)
    assert not nondiff


class TestCpccLosses:
    def setup_method(self):
        self.tree = hi.builtin_cifar10_tree()

    def test_perfect_configuration_reaches_one(self):
        # place class prototypes exactly on a scaled tree-consistent layout
        rng = np.random.default_rng(3)
        res = None
        from hypstruct import training as tr
        res = tr.embed_tree_direct(self.tree, 4, "l2",
                                   obj.ObjectiveConfig(tree_scope="leaf_only"),
                                   tr.EmbedBudget(restarts=2, steps=500, seed=1))
        feats = np.stack([res.coords[self.tree.leaf_of_class(k)] for k in range(10)])
        cfg = obj.ObjectiveConfig(tree_scope="leaf_only", cpcc_distance="l2")
        val = float(obj.cpcc_term_core(feats * 0.05, np.arange(10), self.tree, cfg)[0])
        assert val >= res.cpcc - 1e-6

    def test_insufficient_vertices(self):
        cfg = obj.ObjectiveConfig(tree_scope="leaf_only")
        with pytest.raises(InsufficientVertices):
            obj.cpcc_term_core(np.array([[0.1, 0.0], [0.0, 0.1]]), [0, 1], self.tree, cfg)

    def test_l2_and_hyp_agree_in_flat_limit(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((30, 4)) * 0.3
        labels = rng.integers(0, 10, size=30)
        cfg = obj.ObjectiveConfig(tree_scope="leaf_only", c=1e-8,
                                  centroid_mode="euclidean_then_map")
        hyp = float(obj.cpcc_term_core(feats, labels, self.tree, cfg)[0])
        l2 = float(obj.cpcc_term_core(feats, labels, self.tree,
                                      replace(cfg, cpcc_distance="l2"))[0])
        assert hyp == pytest.approx(l2, abs=1e-3)


# every way to form the root's prototype: each centroid mode on the ball, and
# the Euclidean mean of an l2 CPCC
CENTERING_VARIANTS = [{"centroid_mode": mode} for mode in obj.CENTROID_MODES] + [
    {"cpcc_distance": "l2"}]


def centering(features, cfg, labels=None):
    """The centering value of a batch whose root prototype is built alone."""
    tree = hi.builtin_cifar10_tree()
    features = np.asarray(features, dtype=np.float64)
    labels = np.arange(len(features)) % tree.n_classes if labels is None else labels
    return float(obj.regularizer_terms(features, labels, tree, cfg, cpcc=False)[1])


class TestCenteringLoss:
    def test_zero_batch_at_origin(self):
        for variant in CENTERING_VARIANTS:
            assert centering(np.zeros((3, 2)), obj.ObjectiveConfig(**variant)) <= 1e-140

    def test_symmetric_pair(self):
        for variant in CENTERING_VARIANTS:
            cfg = obj.ObjectiveConfig(**variant)
            assert centering(np.array([[0.5, 0.1], [-0.5, -0.1]]), cfg) <= 1e-12

    def test_single_sample_euclidean(self):
        # the l2 root is the sample itself; mapped onto the ball it is tanh 0.5
        one = np.array([[0.5, 0.0]])
        assert centering(one, obj.ObjectiveConfig(cpcc_distance="l2")) == pytest.approx(
            0.5, abs=1e-12)
        for mode in ("klein_average", "euclidean_then_map"):
            assert centering(one, obj.ObjectiveConfig(centroid_mode=mode)) == pytest.approx(
                math.tanh(0.5), abs=1e-12)
        # 0.5 lies inside the ball, so clipping leaves it
        assert centering(one, obj.ObjectiveConfig(centroid_mode="euclidean_then_clip")) == 0.5

    @pytest.mark.parametrize("variant", CENTERING_VARIANTS)
    def test_is_the_norm_of_the_root_prototype(self, variant):
        tree = hi.builtin_cifar10_tree()
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((30, 4)) * 0.8
        labels = rng.integers(0, tree.n_classes, size=30)
        cfg = obj.ObjectiveConfig(**variant)
        root = obj.prototype_rows(feats, labels, tree, cfg, [tree.root])
        if cfg.cpcc_distance == "l2":
            np.testing.assert_allclose(root, feats.mean(axis=0, keepdims=True),
                                       rtol=0, atol=1e-15)
        assert centering(feats, cfg, labels) == np.sqrt(np.sum(root * root))
        # read from the full-tree CPCC rows, the root row is the same row up
        # to the order of the sums
        _, rows = obj.cpcc_term_core(feats, labels, tree, cfg)
        _, center = obj.regularizer_terms(feats, labels, tree, cfg)
        assert center == obj.centering_core(rows[:1])
        np.testing.assert_allclose(rows[:1], root, rtol=1e-14, atol=0)


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert obj.cross_entropy_core(logits, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform(self):
        assert obj.cross_entropy_core(np.zeros((5, 4)), [0, 1, 2, 3, 0]) == pytest.approx(
            math.log(4.0), abs=1e-12)

    def test_two_class_value(self):
        want = -math.log(math.e / (math.e + 1.0))
        got = obj.cross_entropy_core(np.array([[1.0, 0.0]]), [0])
        assert got == pytest.approx(want, abs=1e-12)


def brute_force_supcon_from_sims(S, labels):
    """Double-loop reference implementation over a similarity matrix."""
    n = len(labels)
    total = 0.0
    anchors = 0
    for i in range(n):
        positives = [k for k in range(n) if k != i and labels[k] == labels[i]]
        if not positives:
            continue
        num = sum(math.exp(S[i][k]) for k in positives) / len(positives)
        den = sum(math.exp(S[i][k]) for k in range(n) if k != i)
        total += -math.log(num / den)
        anchors += 1
    return total / anchors


class TestSupCon:
    def test_two_same_class_samples_zero(self):
        rng = np.random.default_rng(5)
        for tau in (0.1, 0.5, 1.0):
            u = rng.standard_normal((2, 6))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            assert obj.supcon_core(u, [3, 3], tau) == pytest.approx(0.0, abs=1e-12)

    def test_identical_single_class_batch(self):
        # all similarities equal, so the ratio collapses to 1/(2N_y - 1) and
        # the loss is log(2N_y - 1) = log 3; cross-checked by the double loop
        u = np.tile(np.array([[0.6, 0.8]]), (4, 1))
        want = math.log(3.0)
        assert obj.supcon_core(u, [0, 0, 0, 0], 0.7) == pytest.approx(want, abs=1e-12)
        S = (u @ u.T) / 0.7
        assert brute_force_supcon_from_sims(S, [0, 0, 0, 0]) == pytest.approx(want, abs=1e-12)

    def test_orthogonal_two_class_value(self):
        u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        want = -math.log(math.e / (math.e + 2.0))
        assert obj.supcon_core(u, [0, 0, 1, 1], 1.0) == pytest.approx(want, abs=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(4, 10))
            u = rng.standard_normal((n, 5))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            labels = rng.integers(0, 3, size=n)
            if all((labels == y).sum() < 2 for y in np.unique(labels)):
                labels[1] = labels[0]
            tau = float(rng.uniform(0.1, 1.0))
            S = (u @ u.T) / tau
            want = brute_force_supcon_from_sims(S, list(labels))
            assert obj.supcon_core(u, labels, tau) == pytest.approx(want, abs=1e-9)

    def test_cross_class_similarity_direction(self):
        # the loss strictly decreases when any cross-class similarity drops
        rng = np.random.default_rng(7)
        n = 6
        u = rng.standard_normal((n, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        labels = [0, 0, 1, 1, 2, 2]
        S = (u @ u.T) / 0.5
        base = brute_force_supcon_from_sims(S, labels)
        for i in range(n):
            for k in range(n):
                if k != i and labels[k] != labels[i]:
                    bumped = [row[:] for row in S.tolist()]
                    bumped[i][k] -= 1e-4
                    assert brute_force_supcon_from_sims(bumped, labels) < base

    def test_no_positives_raises(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ClassWithoutPositive):
            obj.supcon_core(u, [0, 1], 1.0)

    def test_isolated_anchor_excluded(self):
        u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        got = obj.supcon_core(u, [0, 0, 9], 1.0)
        S = (u @ u.T) / 1.0
        assert got == pytest.approx(brute_force_supcon_from_sims(S, [0, 0, 9]), abs=1e-12)


class TestGramOrderReversal:
    def test_unit_rows_reverse_distance_order(self):
        # <u,v> = 1 - ||u-v||^2 / 2, so similarity order reverses distance order
        rng = np.random.default_rng(8)
        for _ in range(50):
            u = rng.standard_normal((6, 4))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            dots = u @ u.T
            ii, jj = np.triu_indices(6, 1)
            sims = dots[ii, jj]
            dists = np.linalg.norm(u[ii] - u[jj], axis=1)
            np.testing.assert_allclose(sims, 1.0 - dists ** 2 / 2.0, atol=1e-12)
            order_s = np.argsort(sims)
            order_d = np.argsort(-dists, kind="stable")
            np.testing.assert_array_equal(sims[order_s], sims[order_d])


class TestComposite:
    def setup_method(self):
        self.tree = hi.builtin_cifar10_tree()
        rng = np.random.default_rng(9)
        self.features = rng.standard_normal((20, 4)) * 0.3
        self.labels = rng.integers(0, 10, size=20)
        self.logits = rng.standard_normal((20, 10))

    def composite(self, cfg):
        flat = obj.cross_entropy_core(self.logits, self.labels)
        total, skipped = obj.composite_core(self.features, self.labels, self.tree, cfg, flat)
        assert not skipped
        return float(total)

    def cpcc_term(self, cfg):
        return float(obj.cpcc_term_core(self.features, self.labels, self.tree, cfg)[0])

    def test_alpha_beta_zero_equals_flat(self):
        cfg = obj.ObjectiveConfig(alpha=0.0, beta=0.0)
        got = self.composite(cfg)
        assert got == pytest.approx(obj.cross_entropy_core(self.logits, self.labels),
                                    abs=1e-12)

    def test_perfect_cpcc_subtracts_alpha(self):
        cfg = obj.ObjectiveConfig(alpha=1.0, beta=0.0)
        flat = float(obj.cross_entropy_core(self.logits, self.labels))
        cpcc_val = self.cpcc_term(cfg)
        got = self.composite(cfg)
        assert got == pytest.approx(flat - cpcc_val, abs=1e-12)

    def test_monotone_in_alpha_for_positive_cpcc(self):
        cfg1 = obj.ObjectiveConfig(alpha=0.5, beta=0.0)
        cfg2 = obj.ObjectiveConfig(alpha=1.5, beta=0.0)
        cpcc_val = self.cpcc_term(cfg1)
        v1 = self.composite(cfg1)
        v2 = self.composite(cfg2)
        if cpcc_val > 0:
            assert v2 < v1

    @pytest.mark.parametrize("classes,why", [([0, 1], "two vertices, one pair"),
                                             ([4, 5, 6], "one coarse group: equal distances")])
    def test_batch_without_a_cpcc_term_is_skipped(self, classes, why):
        cfg = obj.ObjectiveConfig(tree_scope="leaf_only")
        labels = np.repeat(classes, 2)
        feats = self.features[:labels.size]
        flat = obj.cross_entropy_core(self.logits[:labels.size], labels)
        total, skipped = obj.composite_core(feats, labels, self.tree, cfg, flat)
        assert skipped, why
        _, center = obj.regularizer_terms(feats, labels, self.tree, cfg, cpcc=False)
        assert float(total) == float(flat + cfg.beta * center)

    def test_default_weights(self):
        cfg = obj.ObjectiveConfig()
        assert cfg.alpha == 1.0
        assert cfg.beta == 0.01


def assert_composite_matches(fd_oracle, rng, tree, labels, cfg, skipped):
    """The tape gradient of composite_core on a random batch against finite
    differences."""
    dim = int(rng.integers(2, 6))
    feats0 = rng.standard_normal((labels.size, dim)) * 0.4
    logits_w = rng.standard_normal((dim, tree.n_classes)) * 0.5

    def closure(feats):
        flat = obj.cross_entropy_core(ad.matmul(feats, logits_w), labels)
        total, was_skipped = obj.composite_core(feats, labels, tree, cfg, flat)
        assert was_skipped == skipped
        return total

    g, nondiff = gradient(closure, feats0, return_nondifferentiable=True)
    assert not nondiff
    want = fd_oracle(lambda v: float(ad.val(closure(ad.Node(v)))), feats0)
    denom = np.maximum(np.abs(want), 1e-4)
    assert np.max(np.abs(g - want) / denom) <= 1e-4


class TestGradient:
    def test_norm_gradient(self):
        g = gradient(lambda p: ad.sqrt(ad.sum(p * p)), np.array([3.0, 4.0]))
        np.testing.assert_allclose(g, [0.6, 0.8], atol=1e-12)

    def test_cpcc_scale_direction_is_flat(self):
        # Pearson is scale invariant, so the derivative along f vanishes at
        # any point, in particular at a perfectly correlated configuration
        t = np.array([1.0, 2.0, 3.0, 4.0, 2.0, 5.0])
        f = 2.0 * t + 1.0
        g = gradient(lambda p: obj.cpcc_core(t, p), f)
        assert abs(float(g @ f)) <= 1e-10

    def test_random_composite_matches_finite_differences(self, fd_oracle):
        rng = np.random.default_rng(10)
        tree = hi.balanced_tree([1, 2, 4])
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        cfg = obj.ObjectiveConfig(alpha=1.0, beta=0.01, centroid_mode="klein_average")
        for trial in range(10):
            assert_composite_matches(fd_oracle, rng, tree, labels, cfg, skipped=False)

    @pytest.mark.parametrize("tree_levels,labels,variant,skipped", [
        ((1, 2, 4), [0, 0, 1, 1, 2, 2, 3, 3], {"tree_scope": "leaf_only"}, False),
        ((1, 2, 4), [0, 0, 1, 1, 2, 2, 3, 3], {"cpcc_distance": "l2"}, False),
        # one leaf under the root: two vertices, one pair, no CPCC term
        ((1, 4), [2, 2, 2, 2, 2, 2, 2, 2], {}, True),
    ], ids=["leaf_only", "l2", "skipped"])
    def test_composite_with_a_root_built_alone_or_l2_matches_finite_differences(
            self, fd_oracle, tree_levels, labels, variant, skipped):
        # centering's root row is built alone in leaf_only scope and on a
        # skipped batch, and under l2 it is a Euclidean mean
        rng = np.random.default_rng(12)
        cfg = obj.ObjectiveConfig(alpha=1.0, beta=0.5, **variant)
        for trial in range(3):
            assert_composite_matches(fd_oracle, rng, hi.balanced_tree(tree_levels),
                                     np.array(labels), cfg, skipped)

    def test_clip_branch_sets_flag(self):
        tree = hi.balanced_tree([1, 2, 4])
        labels = np.array([0, 1, 2, 3])
        cfg = obj.ObjectiveConfig(alpha=1.0, beta=0.0,
                                  centroid_mode="euclidean_then_clip")
        feats0 = np.array([[3.0, 0.0], [0.0, 3.0], [-3.0, 0.0], [0.0, -3.0]])

        def closure(feats):
            flat = obj.cross_entropy_core(ad.matmul(feats, np.eye(2, 4)), labels)
            return obj.composite_core(feats, labels, tree, cfg, flat)[0]

        _, nondiff = gradient(closure, feats0, return_nondifferentiable=True)
        assert nondiff
