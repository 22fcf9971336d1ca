"""Label-tree construction, parsing, metrics, and LCA contracts."""

import itertools
import json

import numpy as np
import pytest

from hypstruct import hierarchy as hi
from hypstruct.errors import InvalidLevelCounts, NotALeaf, ParseError, ValidationError
from tree_oracle import bfs_tree_metric, coarse_ancestor, subtree_classes

# leaves at depths 1, 2 and 3 (leaf2 is its own coarse class), and non-unit
# weights on two levels
MIXED_DEPTHS = {"name": "r", "children": [
    {"name": "deep", "weight": 1, "children": [
        {"name": "x", "weight": 1, "children": [
            {"name": "leaf1", "weight": 1}, {"name": "leaf3", "weight": 2}]}]},
    {"name": "leaf2", "weight": 1},
    {"name": "mid", "weight": 3, "children": [{"name": "leaf4", "weight": 1}]},
]}

# MIXED_DEPTHS with every leaf padded to depth 3 by unit-weight parents
# (leaf2 <- leaf2.pad1 <- leaf2.pad0 <- r, leaf4 <- leaf4.pad0 <- mid), numbered
# in preorder like every tree
PADDED_MIXED = hi.LabelTree(
    ["r", "deep", "x", "leaf1", "leaf3", "leaf2.pad0", "leaf2.pad1", "leaf2",
     "mid", "leaf4.pad0", "leaf4"],
    [None, 0, 1, 2, 2, 0, 5, 6, 0, 8, 9],
    [0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 3.0, 1.0, 1.0])


def brute_force_lca_height(tree, u, v):
    """Independent oracle: intersect ancestor chains, measure from leaf layer."""
    def ancestors(x):
        chain = [x]
        while tree.parent[chain[-1]] is not None:
            chain.append(tree.parent[chain[-1]])
        return chain

    au, av = ancestors(u), ancestors(v)
    common = [x for x in au if x in av]
    lca = common[0]
    return max(tree.depth(u), tree.depth(v)) - tree.depth(lca)


class TestBuiltinTree:
    def test_shape(self):
        t = hi.builtin_cifar10_tree()
        assert t.n_vertices == 13
        assert len(t.leaf_classes) == 10
        assert t.names[t.root] == "root"

    def test_unit_weight_paths(self):
        t = hi.builtin_cifar10_tree()
        tm = hi.tree_metric(t)
        assert tm[t.id_of("airplane"), t.id_of("truck")] == 2.0
        assert tm[t.id_of("airplane"), t.id_of("cat")] == 4.0
        assert tm[t.id_of("root"), t.id_of("transportation")] == 1.0

    def test_leaf_order_is_document_order(self):
        t = hi.builtin_cifar10_tree()
        names = [t.names[t.leaf_of_class(k)] for k in range(10)]
        assert names == ["airplane", "automobile", "ship", "truck",
                         "bird", "cat", "deer", "dog", "frog", "horse"]


class TestTreeMetric:
    def test_weight_doubling_scales_affected_paths(self):
        t = hi.builtin_cifar10_tree()
        tm = hi.tree_metric(t)
        # double every weight inside the transportation subtree
        names, parent = list(t.names), list(t.parent)
        weights = list(t.weights)
        trans = t.id_of("transportation")
        for v in range(t.n_vertices):
            if parent[v] == trans:
                weights[v] *= 2.0
        t2 = hi.LabelTree(names, parent, weights)
        tm2 = hi.tree_metric(t2)
        ap, auto, cat = t.id_of("airplane"), t.id_of("automobile"), t.id_of("cat")
        assert tm2[ap, auto] == 2.0 * tm[ap, auto]
        assert tm2[ap, cat] == tm[ap, cat] + 1.0  # one doubled edge on the path
        assert tm2[t.id_of("bird"), cat] == tm[t.id_of("bird"), cat]

    def test_four_point_condition(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            t = hi.balanced_tree([1, 2, 6])
            weights = list(t.weights)
            for v in range(1, t.n_vertices):
                weights[v] = float(rng.uniform(0.2, 3.0))
            t = hi.LabelTree(t.names, t.parent, weights)
            d = hi.tree_metric(t)
            for q in itertools.combinations(range(t.n_vertices), 4):
                i, j, k, l = q
                sums = sorted([d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k]])
                assert abs(sums[2] - sums[1]) <= 1e-12

    def test_leaf_distance_is_twice_lca_height(self):
        t = hi.balanced_tree([1, 2, 4, 8])
        tm = hi.tree_metric(t)
        for u in t.leaf_classes:
            for v in t.leaf_classes:
                if u != v:
                    assert tm[u, v] == 2.0 * t.lca_height(u, v)


def oracle_trees():
    """Trees of every shape the ancestor matrix must handle, by name."""
    mixed = json.dumps(MIXED_DEPTHS)
    return {
        "c100": hi.balanced_tree((1, 20, 100)),
        "four_levels": hi.balanced_tree((1, 4, 20, 200)),
        "cifar10": hi.builtin_cifar10_tree(),
        "mixed": hi.parse_tree(mixed),
        # every leaf padded to one depth
        "normalized": PADDED_MIXED,
        "single_vertex": hi.LabelTree(["r"], [None], [0.0]),
    }


def with_random_weights(tree, rng):
    weights = [float(rng.uniform(0.2, 3.0)) for _ in tree.weights]
    return hi.LabelTree(tree.names, tree.parent, weights)


class TestAncestorMatrixOracle:
    @pytest.mark.parametrize("name", list(oracle_trees()))
    def test_tree_metric_is_bitwise_the_bfs(self, name):
        tree = oracle_trees()[name]
        dist = hi.tree_metric(tree)
        assert dist.dtype == np.float64 and not dist.flags.writeable
        np.testing.assert_array_equal(dist, bfs_tree_metric(tree))

    @pytest.mark.parametrize("name", ["c100", "cifar10", "mixed", "normalized"])
    def test_tree_metric_with_non_integer_weights(self, name):
        # the products sum the path weights in another order than the BFS,
        # so agreement is to a relative 1e-12; symmetry and the zero diagonal
        # stay exact
        tree = with_random_weights(oracle_trees()[name], np.random.default_rng(5))
        dist = hi.tree_metric(tree)
        np.testing.assert_allclose(dist, bfs_tree_metric(tree), rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(dist, dist.T)
        np.testing.assert_array_equal(np.diagonal(dist), 0.0)

    @pytest.mark.parametrize("name", list(oracle_trees()))
    def test_membership_rows_are_the_subtree_classes(self, name):
        tree = oracle_trees()[name]
        for v in range(tree.n_vertices):
            assert np.flatnonzero(tree.membership[v]).tolist() == subtree_classes(tree, v)

    @pytest.mark.parametrize("name", list(oracle_trees()))
    def test_coarse_labels_are_the_depth_one_ancestors(self, name):
        tree = oracle_trees()[name]
        want = [coarse_ancestor(tree, tree.leaf_of_class(k)) for k in range(tree.n_classes)]
        assert tree.coarse_labels(np.arange(tree.n_classes)).tolist() == want


class TestLcaHeight:
    def test_leaf_with_itself(self):
        t = hi.builtin_cifar10_tree()
        leaf = t.id_of("cat")
        assert t.lca_height(leaf, leaf) == 0

    def test_siblings(self):
        t = hi.builtin_cifar10_tree()
        assert t.lca_height(t.id_of("cat"), t.id_of("dog")) == 1

    def test_matches_brute_force(self):
        t = hi.balanced_tree([1, 4, 8])
        for u in t.leaf_classes:
            for v in t.leaf_classes:
                assert t.lca_height(u, v) == brute_force_lca_height(t, u, v)

    def test_cross_coarse_height(self):
        t = hi.balanced_tree([1, 2, 4])
        leaves = t.leaf_classes
        assert t.lca_height(leaves[0], leaves[3]) == 2

    def test_not_a_leaf(self):
        t = hi.builtin_cifar10_tree()
        with pytest.raises(NotALeaf):
            t.lca_height(t.id_of("animal"), t.id_of("cat"))


class TestBalancedTree:
    def test_small(self):
        t = hi.balanced_tree([1, 2, 4])
        assert t.n_vertices == 7
        assert len(t.leaf_classes) == 4

    def test_degenerate_chain(self):
        t = hi.balanced_tree([1, 1])
        assert t.n_vertices == 2
        assert len(t.leaf_classes) == 1

    def test_cifar100_shape(self):
        t = hi.balanced_tree([1, 20, 100])
        assert len(t.leaf_classes) == 100
        assert sum(1 for v in range(t.n_vertices) if t.depth(v) == 1) == 20

    def test_invalid_counts(self):
        with pytest.raises(InvalidLevelCounts):
            hi.balanced_tree([2, 4])
        with pytest.raises(InvalidLevelCounts):
            hi.balanced_tree([1, 3, 4])


class TestParse:
    def test_builtin_round_trip(self):
        t = hi.builtin_cifar10_tree()
        again = hi.parse_tree(t.serialize())
        assert again.names == t.names
        assert again.parent == t.parent
        assert again.weights == t.weights
        assert again.leaf_classes == t.leaf_classes

    def test_zero_weight_rejected(self):
        doc = {"name": "r", "children": [{"name": "a", "weight": 0}]}
        with pytest.raises(ValidationError):
            hi.parse_tree(json.dumps(doc))

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            hi.parse_tree('{"name": "r", "children": [')
        assert err.value.line is not None

    def test_duplicate_names_rejected(self):
        doc = {"name": "r", "children": [{"name": "a"}, {"name": "a"}]}
        with pytest.raises(ValidationError):
            hi.parse_tree(json.dumps(doc))

    def test_root_weight_rejected(self):
        with pytest.raises(ValidationError):
            hi.parse_tree(json.dumps({"name": "r", "weight": 1.0}))

    def test_cycle_detection_in_constructor(self):
        with pytest.raises(ValidationError):
            hi.LabelTree(["a", "b", "c"], [None, 2, 1], [0, 1, 1])

    def test_parent_after_its_child_rejected(self):
        # a valid tree, but numbered with the parent after its child
        with pytest.raises(ValidationError):
            hi.LabelTree(["r", "leaf", "mid"], [None, 2, 0], [0, 1, 1])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(ValidationError):
            hi.LabelTree(["r", "a"], [None, -1], [0, 1])

    @pytest.mark.parametrize("counts", [(1, 2, 4), (1, 20, 100), (1, 4, 20, 200)],
                             ids=lambda counts: "-".join(map(str, counts)))
    def test_balanced_round_trip_keeps_vertex_ids(self, counts):
        t = hi.balanced_tree(counts)
        again = hi.parse_tree(t.serialize())
        assert again.names == t.names
        assert again.parent == t.parent
        assert again.weights == t.weights


def test_delta_hyperbolicity_of_tree_metric_is_zero():
    from hypstruct import diagnostics as dg

    for counts in ([1, 2, 4], [1, 3, 9], [1, 2, 4, 8]):
        t = hi.balanced_tree(counts)
        dm = dg.DistanceMatrix(hi.tree_metric(t))
        delta, delta_rel = dg.delta_hyperbolicity(dm, mode="exact")
        assert delta <= 1e-12
        assert delta_rel <= 1e-12
