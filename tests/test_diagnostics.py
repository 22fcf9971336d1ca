"""Diagnostics against independent references: test CPCC, kNN, sampled delta,
AUROC, Borda count and the Gaussian fit."""

import warnings

import numpy as np
import pytest

from hypstruct import diagnostics as dg
from hypstruct import geometry as geo
from hypstruct import hierarchy as hi
from hypstruct import spectral as sp
from hypstruct.errors import DegenerateVariance, EmptyInput, InsufficientVertices, MissingEntry

import composed_ops as composed
from conftest import traced_peak_mb
from delta_oracle import nine_gather_delta_sampled
from knn_oracle import knn_predict


def reference_test_cpcc(features, labels, tree, distance_mode, c):
    """One prototype per present class, distances and Pearson over leaf pairs."""
    classes = np.unique(labels)
    protos = []
    for k in classes:
        rows = features[labels == k]
        if distance_mode == "poincare":
            protos.append(composed.poincare_midpoint(geo.exp0(rows, c), c))
        else:
            protos.append(rows.mean(axis=0))
    tm = hi.tree_metric(tree)
    leaves = [tree.leaf_of_class(int(k)) for k in classes]
    tdist, fdist = [], []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            tdist.append(tm[leaves[i], leaves[j]])
            if distance_mode == "poincare":
                fdist.append(float(geo.dist_rows(protos[i], protos[j], c)))
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
        dg.test_cpcc(feats, [0, 5, 5], tree, "l2", 1.0)
    assert np.isfinite(dg.test_cpcc(feats, [0, 5, 6], tree, "l2", 1.0))


def test_cpcc_identical_prototypes_raise():
    tree = hi.builtin_cifar10_tree()
    for mode in ("l2", "poincare"):
        with pytest.raises(DegenerateVariance):
            dg.test_cpcc(np.full((4, 2), 0.3), [0, 1, 5, 6], tree, mode, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distance_matrix_rejects_a_non_finite_entry(bad):
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    d[0, 1] = d[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN or infinite"):
            dg.DistanceMatrix(d)


def test_cpcc_rejects_unknown_mode():
    tree = hi.builtin_cifar10_tree()
    with pytest.raises(ValueError):
        dg.test_cpcc(np.zeros((4, 2)), [0, 1, 5, 6], tree, "cosine", 1.0)


def test_knn_coarse_level_is_the_depth_one_ancestor():
    # on (1,2,4,8) a leaf's parent (depth 2) and its coarse class (depth 1)
    # differ; the coarse kNN votes and scores on the depth-1 ancestor, the grouping
    # spectral.class_sorted_order sorts by
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
    fine_labels = [cousin, cousin, other, other]
    query = np.array([[0.05, 0.0]])
    (preds,) = dg.knn_classify(train, [tree.coarse_labels(fine_labels)], query, k=2)
    assert preds.tolist() == [coarse[0]]
    # eval's scores: the fine vote (cousin) misses class 0, the coarse vote
    # is scored against class 0's depth-1 ancestor and hits
    assert dg.knn_accuracies(train, fine_labels, query, [0], tree, k=2) == (0.0, 1.0)
    order = sp.class_sorted_order(classes, tree)
    assert coarse[order].tolist() == sorted(coarse.tolist())


# four training rows at exactly squared distance 1 from the origin query, and a
# far one; equal distances resolve to the smaller training index
TIED_TRAIN = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [3.0, 0.0]])
ORIGIN = np.zeros((1, 2))


@pytest.mark.parametrize("k,want", [
    (1, 4),  # row 0 wins the distance tie although its class is larger
    (2, 1),  # one vote each for classes 4 and 1: the smaller class wins
    (3, 4),  # rows 0-2 (not row 3): classes 4, 1, 4, so 4 wins outright
])
def test_knn_fine_tie_breaking(k, want):
    (preds,) = dg.knn_classify(TIED_TRAIN, [[4, 1, 4, 1, 0]], ORIGIN, k=k)
    assert preds.tolist() == [want]


def test_knn_coarse_tie_breaking():
    tree = hi.balanced_tree((1, 2, 4))
    coarse = tree.coarse_labels(np.arange(4))
    lo, hi_ = min(coarse), max(coarse)
    small = int(np.flatnonzero(coarse == lo)[0])
    large = np.flatnonzero(coarse == hi_)
    labels = tree.coarse_labels([large[0], small, large[1], small, small])
    got = [dg.knn_classify(TIED_TRAIN, [labels], ORIGIN, k=k)[0].tolist() for k in (1, 2, 3)]
    # row 0 wins the distance tie; a 1-1 vote goes to the smaller coarse
    # class; rows 0-2 (not row 3) give the larger coarse class two votes
    assert got == [[hi_], [lo], [hi_]]


@pytest.mark.parametrize("block_cells", [1, 37, dg.KNN_BLOCK_CELLS])
@pytest.mark.parametrize("integer_valued", [True, False])
def test_knn_matches_the_per_query_loop(integer_valued, block_cells, monkeypatch):
    # integer features make every squared distance exact, so many neighbours
    # tie at the k-th distance and many votes tie; both label sets are
    # checked, searched one query row per block, a few rows, and all at once
    monkeypatch.setattr(dg, "KNN_BLOCK_CELLS", block_cells)
    tree = hi.balanced_tree((1, 3, 9))
    rng = np.random.default_rng(12)
    for trial in range(12):
        n, m, d = rng.integers(1, 40), rng.integers(1, 25), rng.integers(1, 4)
        if integer_valued:
            train = rng.integers(-2, 3, (n, d)).astype(float)
            queries = rng.integers(-2, 3, (m, d)).astype(float)
        else:
            train = rng.standard_normal((n, d))
            queries = rng.standard_normal((m, d))
        fine = rng.integers(0, tree.n_classes, n)
        label_sets = (fine, tree.coarse_labels(fine))
        for k in sorted({1, min(7, n), n}):
            got = dg.knn_classify(train, label_sets, queries, k)
            assert len(got) == 2
            for preds, labels in zip(got, label_sets):
                assert preds.tolist() == knn_predict(train, labels, queries, k).tolist()


@pytest.mark.parametrize("seed,k", [(0, 5_001), (3, 777), (11, 1_000_003)])
def test_sampled_delta_equals_nine_gather_form(seed, k):
    rng = np.random.default_rng(seed)
    dm = dg.pairwise_l2(rng.standard_normal((37, 3)))
    delta, delta_rel = dg.delta_hyperbolicity(dm, mode="sampled", k=k, seed=seed)
    assert delta > 0.0
    assert delta == nine_gather_delta_sampled(dm.dist, k, seed)
    assert delta_rel == 2.0 * delta / dm.diameter


def test_sampled_delta_equals_nine_gather_form_per_quadruple():
    # with one or two quadruples the maximum is no single extreme value, so a
    # reordered sum that rounds differently shows up as a mismatch
    dm = dg.pairwise_l2(np.random.default_rng(5).standard_normal((9, 3)))
    for seed in range(400):
        k = 1 + seed % 2
        assert dg.delta_hyperbolicity(dm, mode="sampled", k=k, seed=seed)[0] == \
            nine_gather_delta_sampled(dm.dist, k, seed)


def test_sampled_delta_equals_nine_gather_form_at_the_benchmark_shape():
    # 500 rows of dim 16, the shape of analyze-c100's held-out features; k
    # crosses a chunk boundary and ends in a partial block
    k = 1_000_003
    assert k > dg.DELTA_DRAW_CHUNK and (k - dg.DELTA_DRAW_CHUNK) % dg.DELTA_BLOCK != 0
    dm = dg.pairwise_l2(np.random.default_rng(21).standard_normal((500, 16)))
    assert dg.delta_hyperbolicity(dm, mode="sampled", k=k, seed=4)[0] == \
        nine_gather_delta_sampled(dm.dist, k, 4)


@pytest.mark.parametrize("seed", [1, 12345])
def test_piecewise_integer_draws_continue_the_one_shot_stream(seed):
    # sampled delta draws each (4, take) chunk in pieces, one
    # ``Generator.integers(..., dtype=np.uint32)`` call per piece: rows 0-2 as
    # one run of 3 * take values, then row 3 a block at a time.  It relies on
    # these calls giving the values of one default int64 (4, take) call:
    # PCG64 keeps its spare 32-bit half-word in the generator state between
    # calls, and both dtypes draw a range below 2**32 from 32-bit words.  If a
    # numpy release breaks this, delta_rel changes for every sampled run.
    take, block = 1_001, 64  # 64 divides neither 3 * take nor take
    for n in (7, 37, 500, 65_536, 100_000, 2**31):
        want = np.random.default_rng(seed).integers(0, n, size=(4, take))
        rng = np.random.default_rng(seed)
        got = np.empty(4 * take, dtype=np.min_scalar_type(n - 1))
        for lo, hi in ((0, 3 * take), (3 * take, 4 * take)):
            for start in range(lo, hi, block):
                piece = got[start:min(start + block, hi)]
                piece[:] = rng.integers(0, n, size=piece.size, dtype=np.uint32)
        assert np.array_equal(got.reshape(4, take), want), n


def test_sampled_delta_memory_does_not_grow_with_the_draw():
    # a million int64 quadruples alone are 30.5 MB.  Three stored uint16 rows
    # are 5.7 MB and one block's temporaries about 1 MB (6.66 MB measured at
    # k = 1e6 and 2e6); four stored rows would be 7.6 MB alone
    dm = dg.pairwise_l2(np.random.default_rng(4).standard_normal((500, 16)))
    for k in (1_000_000, 2_000_000):
        assert traced_peak_mb(dg.delta_hyperbolicity, dm, mode="sampled", k=k, seed=0) < 7.5


def direct_pairwise_l2(features):
    """The pairwise distances as one expression, before the in-place form."""
    x = np.asarray(features, dtype=np.float64)
    sq = np.sum(x * x, axis=1)
    d = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0))
    np.fill_diagonal(d, 0.0)
    return 0.5 * (d + d.T)


@pytest.mark.parametrize("n,d", [(1, 3), (7, 2), (60, 16), (201, 5)])
def test_pairwise_l2_is_bitwise_the_direct_expression(n, d):
    x = np.random.default_rng(n).standard_normal((n, d)) * 10.0 ** (np.arange(d) - d // 2)
    x[n // 2] = x[0]  # a repeated row: its distance rounds to 0 or clips
    assert dg.pairwise_l2(x).dist.tobytes() == direct_pairwise_l2(x).tobytes()


def test_pairwise_l2_memory_is_two_square_buffers():
    # result, one scratch buffer and the symmetry check's difference: the
    # direct expression peaks near five 2 MB temporaries at n = 500
    x = np.random.default_rng(6).standard_normal((500, 16))
    assert traced_peak_mb(dg.pairwise_l2, x) < 8.0


def loop_auroc(id_scores, ood_scores):
    """Reference AUROC: tie ranks averaged by a Python loop over the sorted values."""
    a = np.asarray(id_scores, dtype=np.float64)
    b = np.asarray(ood_scores, dtype=np.float64)
    combined = np.concatenate([a, b])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty_like(combined)
    sorted_vals = combined[order]
    i = 0
    n = combined.size
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[a.size:].sum() - b.size * (b.size + 1) / 2.0
    return float(u / (a.size * b.size))


def test_auroc_matches_pairwise_count_with_ties():
    rng = np.random.default_rng(4)
    for size_a, size_b in [(1, 1), (7, 3), (40, 55)]:
        a = rng.integers(0, 6, size_a).astype(float)
        b = rng.integers(2, 8, size_b).astype(float)
        pairs = (b[None, :] > a[:, None]) + 0.5 * (b[None, :] == a[:, None])
        got = dg.auroc(a, b)
        assert got == pytest.approx(pairs.mean(), abs=1e-12)
        assert got == loop_auroc(a, b)
    scores = rng.standard_normal(50)
    assert dg.auroc(scores, scores) == 0.5
    assert dg.auroc([1.0, 1.0], [1.0, 1.0, 1.0]) == 0.5
    assert dg.auroc([0.0, 1.0], [2.0, 3.0]) == 1.0


def test_auroc_needs_both_score_lists():
    with pytest.raises(EmptyInput):
        dg.auroc([], [1.0])


def test_borda_count_shares_points_across_ties():
    table = {"a": {"d1": 0.9, "d2": 0.7},
             "b": {"d1": 0.9, "d2": 0.6},
             "c": {"d1": 0.5, "d2": 0.8}}
    # d1: a and b tie for ranks 0 and 1, so each gets (2 + 1) / 2
    assert dg.borda_count(table) == {"a": 2.5, "b": 1.5, "c": 2.0}
    even = {m: {"d1": 0.7} for m in "abcd"}
    assert dg.borda_count(even) == {m: 1.5 for m in "abcd"}
    with pytest.raises(MissingEntry):
        dg.borda_count({"a": {"d1": 0.9}, "b": {"d2": 0.9}})
    with pytest.raises(MissingEntry):
        dg.borda_count({"a": {"d1": 0.9}, "b": {"d1": None}})


def mahalanobis_score(x, fit):
    """Per-row reference for ``mahalanobis_scores``: one quadratic form."""
    diff = np.asarray(x, dtype=np.float64) - fit.mu
    return float(diff @ fit.sigma_inv @ diff)


def test_fit_gaussian_ridge_inverts_a_zero_covariance():
    fit = dg.fit_gaussian(np.tile([1.0, -2.0, 0.5], (4, 1)))
    assert fit.ridge == 1e-12
    assert np.array_equal(fit.sigma, np.zeros((3, 3)))
    np.testing.assert_allclose(fit.sigma_inv, np.eye(3) / 1e-12, rtol=1e-12)
    assert mahalanobis_score(fit.mu + [1e-6, 0.0, 0.0], fit) == pytest.approx(1.0)

    x = np.random.default_rng(2).standard_normal((30, 3)) * [1.0, 2.0, 3.0]
    fit = dg.fit_gaussian(x)
    assert fit.ridge == pytest.approx(1e-6 * np.trace(fit.sigma) / 3, rel=1e-15)
    rows = x[:5]
    assert np.allclose(dg.mahalanobis_scores(rows, fit),
                       [mahalanobis_score(row, fit) for row in rows], rtol=1e-12)
