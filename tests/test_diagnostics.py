"""Test-set CPCC against a per-class reference."""

import numpy as np
import pytest

from hypstruct import diagnostics as dg
from hypstruct import geometry as geo
from hypstruct import hierarchy as hi
from hypstruct import spectral as sp
from hypstruct.errors import DegenerateVariance, InsufficientVertices


def reference_test_cpcc(features, labels, tree, distance_mode, c):
    """One prototype per present class, distances and Pearson over leaf pairs."""
    classes = np.unique(labels)
    protos = []
    for k in classes:
        rows = features[labels == k]
        if distance_mode == "poincare":
            protos.append(geo.hyp_ave_poincare([geo.exp_map_origin(r, c) for r in rows]))
        else:
            protos.append(rows.mean(axis=0))
    tm = hi.tree_metric(tree)
    leaves = [tree.leaf_of_class(int(k)) for k in classes]
    tdist, fdist = [], []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            tdist.append(tm.dist[leaves[i], leaves[j]])
            if distance_mode == "poincare":
                fdist.append(geo.poincare_distance(protos[i], protos[j]))
            else:
                fdist.append(np.linalg.norm(protos[i] - protos[j]))
    return float(np.corrcoef(tdist, fdist)[0, 1])


@pytest.mark.parametrize("c", [1.0, 0.5])
@pytest.mark.parametrize("distance_mode", ["l2", "poincare"])
def test_cpcc_matches_per_class_reference(distance_mode, c):
    tree = hi.balanced_tree((1, 2, 4, 8))
    rng = np.random.default_rng(30)
    for _ in range(10):
        labels = rng.choice(rng.choice(8, size=6, replace=False), size=40)
        feats = rng.standard_normal((40, 3)) * 0.7
        want = reference_test_cpcc(feats, labels, tree, distance_mode, c)
        got = dg.test_cpcc(feats, labels, tree, distance_mode=distance_mode, c=c)
        assert got == pytest.approx(want, abs=1e-12)


def test_cpcc_needs_three_present_classes():
    tree = hi.builtin_cifar10_tree()
    feats = np.array([[0.1, 0.0], [0.0, 0.1], [0.2, 0.2]])
    with pytest.raises(InsufficientVertices):
        dg.test_cpcc(feats, [0, 5, 5], tree)
    assert np.isfinite(dg.test_cpcc(feats, [0, 5, 6], tree))


def test_cpcc_identical_prototypes_raise():
    tree = hi.builtin_cifar10_tree()
    for mode in ("l2", "poincare"):
        with pytest.raises(DegenerateVariance):
            dg.test_cpcc(np.full((4, 2), 0.3), [0, 1, 5, 6], tree, distance_mode=mode)


def test_cpcc_rejects_unknown_mode():
    tree = hi.builtin_cifar10_tree()
    with pytest.raises(ValueError):
        dg.test_cpcc(np.zeros((4, 2)), [0, 1, 5, 6], tree, distance_mode="cosine")


def test_knn_coarse_level_is_the_depth_one_ancestor():
    # on (1,2,4,8) a leaf's parent (depth 2) and its coarse class (depth 1)
    # differ; the coarse kNN votes and scores on the depth-1 ancestor, the
    # grouping spectral.class_sorted_order sorts by
    tree = hi.balanced_tree((1, 2, 4, 8))
    leaf = tree.leaf_of_class
    classes = np.arange(tree.n_classes)
    coarse = tree.coarse_labels(classes)
    assert len(set(coarse.tolist())) == 2
    assert len({tree.parent[leaf(int(k))] for k in classes}) == 4
    cousin = next(int(k) for k in classes if coarse[k] == coarse[0]
                  and tree.parent[leaf(int(k))] != tree.parent[leaf(0)])
    other = next(int(k) for k in classes if coarse[k] != coarse[0])
    train = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    preds, acc = dg.knn_classify(train, [cousin, cousin, other, other], np.array([[0.05, 0.0]]),
                                 k=2, level="coarse", tree=tree, query_labels=[0])
    assert preds.tolist() == [coarse[0]] and acc == 1.0
    order = sp.class_sorted_order(classes, tree)
    assert coarse[order].tolist() == sorted(coarse.tolist())
