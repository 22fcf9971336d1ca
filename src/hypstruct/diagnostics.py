"""Evaluation metrics: Gromov hyperbolicity, test-set CPCC, kNN accuracy,
Mahalanobis out-of-distribution scoring, AUROC, and Borda count."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import objective as obj
from .errors import (
    EmptyInput,
    MissingEntry,
    SingularAfterRegularization,
    ZeroDiameter,
    must_be,
)
from .hierarchy import LabelTree

EXACT_DELTA_MAX_N = 400
# delta mode "auto" (eval) scans exactly up to this n: the exact scan is
# O(n^4), 2.8 s at n = 200 but 50 s at n = 400 on a 2-core Xeon
AUTO_EXACT_DELTA_MAX_N = 200
# sampled delta: quadruples per chunk.  A chunk of ``take`` quadruples is the
# (4, take) C-order layout of one stream of 4 * take draws (row 0 holds its
# first take values), so DELTA_DRAW_CHUNK is part of the RNG stream: changing
# it changes delta.
DELTA_DRAW_CHUNK = 1_000_000
# sampled delta: draws per ``Generator.integers`` call, and quadruples per
# scanned block; not part of the stream.  A block's temporaries (intp indices
# and float64 products of 128 kB each, about 1 MB) stay in a core's 2 MB L2
# cache: at n = 500, k = 2e6 on a 2-core Xeon, 16,384 took 0.091 s (median of
# 9), and 8,192, 32,768 and 65,536 took 0.097, 0.101 and 0.106 s.
DELTA_BLOCK = 16_384
# kNN: distance cells per block of query rows
KNN_BLOCK_CELLS = 65_536


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix with a zero diagonal."""

    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"expected a square matrix, got {d.shape}")
        if not np.isfinite(d).all():
            raise ValueError("distance matrix has a NaN or infinite entry")
        asym = d - d.T
        if np.max(np.abs(asym, out=asym), initial=0.0) > 1e-12:
            raise ValueError("distance matrix is not symmetric within 1e-12")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("distance matrix must have a zero diagonal")
        if np.any(d < 0.0):
            raise ValueError("distances must be nonnegative")
        object.__setattr__(self, "dist", d)
        d.setflags(write=False)

    @property
    def n(self):
        return self.dist.shape[0]

    @property
    def diameter(self):
        return float(self.dist.max(initial=0.0))


def _delta_exact(d: np.ndarray) -> float:
    n = d.shape[0]
    best = 0.0
    for w in range(n):
        # Gromov products at basepoint w
        g = 0.5 * (d[w, :, None] + d[w, None, :] - d)
        # max over y of min(g[x, y], g[y, z]), built one y at a time
        m = np.full((n, n), -np.inf)
        for y in range(n):
            np.maximum(m, np.minimum(g[:, y][:, None], g[y, :][None, :]), out=m)
        best = max(best, float((m - g).max()))
    return best


def _delta_sampled(d: np.ndarray, k: int, seed) -> float:
    # A chunk's rows 0-2 are stored, in the smallest unsigned type that holds
    # n - 1 (uint16 up to n = 65,536); row 3 is drawn one block at a time and
    # that block is scanned at once.  Every piece is one 32-bit
    # ``integers(..., dtype=np.uint32)`` call: the calls continue one stream
    # (PCG64 keeps its spare 32-bit half-word between calls) and give the
    # values of one int64 ``integers(0, n, size=(4, take))`` call, in the same
    # order.  Memory is the stored rows (6 MB at uint16) plus one block's
    # temporaries, whatever k is.
    n = d.shape[0]
    flat = d.ravel()
    rng = np.random.default_rng(seed)
    stored = np.empty(3 * min(DELTA_DRAW_CHUNK, k), dtype=np.min_scalar_type(n - 1))
    best = 0.0
    for first in range(0, k, DELTA_DRAW_CHUNK):
        take = min(DELTA_DRAW_CHUNK, k - first)
        rows = stored[:3 * take]
        for start in range(0, rows.size, DELTA_BLOCK):
            piece = rows[start:start + DELTA_BLOCK]
            piece[:] = rng.integers(0, n, size=piece.size, dtype=np.uint32)
        w, x, y = rows.reshape(3, take)
        for start in range(0, take, DELTA_BLOCK):
            z = rng.integers(0, n, size=min(DELTA_BLOCK, take - start), dtype=np.uint32)
            block = slice(start, start + z.size)
            best = max(best, _four_point_slack(flat, n, w[block], x[block], y[block], z))
    return best


def _four_point_slack(flat: np.ndarray, n: int, w, x, y, z) -> float:
    # Largest min(g_xy, g_yz) - g_xz over one block of quadruples (w, x, y, z).
    # The 6 distinct distances of each quadruple are gathered once by intp
    # flat index, and the three Gromov products are built in place.  Each
    # product is (d_wa + d_wb) - d_ab, the float operations of the direct
    # formula; its 0.5 is applied once, to the block's maximum: halving is
    # exact away from subnormals and commutes with min, max and rounding, so
    # delta is bitwise equal to the direct formula.
    wn = np.multiply(w, n, dtype=np.intp)
    xn = np.multiply(x, n, dtype=np.intp)
    gxz = flat.take(wn + x)
    gyz = flat.take(wn + y)
    gxy = gxz + gyz
    wn += z
    dwz = flat.take(wn)
    gxz += dwz
    gyz += dwz
    del dwz
    gxy -= flat.take(xn + y)
    gxz -= flat.take(xn + z)
    yn = np.multiply(y, n, dtype=np.intp)
    yn += z
    gyz -= flat.take(yn)
    np.minimum(gxy, gyz, out=gxy)
    gxy -= gxz
    return 0.5 * float(gxy.max(initial=0.0))


def check_delta_mode(mode: str, k: int, n: int):
    """Raise ValueError(must_be(...)) unless ``delta_hyperbolicity`` can run
    ``mode`` with ``k`` quadruples on ``n`` points.  Exact mode ignores ``k``."""
    if mode == "exact" and n > EXACT_DELTA_MAX_N:
        raise ValueError(must_be("mode", f"'sampled' on {n} points: exact mode is capped at "
                                 f"n <= {EXACT_DELTA_MAX_N}", mode))
    if mode == "sampled" and k < 1:
        raise ValueError(must_be("k", "at least 1 in sampled mode", k))


def delta_hyperbolicity(dm: DistanceMatrix, mode: str, k: int, seed: int):
    """Four-point-condition slack of a metric space.

    Returns ``(delta, delta_rel)`` with ``delta_rel = 2 delta / diameter``.
    ``mode="exact"`` scans all quadruples in a few n x n arrays, for n <=
    EXACT_DELTA_MAX_N (400) only; eval's ``auto`` picks it for n <=
    AUTO_EXACT_DELTA_MAX_N (200).  ``mode="sampled"`` draws ``k`` seeded
    quadruples and lower-bounds the exact value, in three rows of up to
    DELTA_DRAW_CHUNK indices of the narrowest unsigned type (6 MB at uint16,
    n <= 65,536) plus 1 MB per scanned block: no more from k = DELTA_DRAW_CHUNK.
    The caller checks ``mode`` and ``k`` with :func:`check_delta_mode`.
    """
    diam = dm.diameter
    if diam == 0.0:
        raise ZeroDiameter("all points coincide; delta_rel undefined")
    if dm.n < 4:
        return 0.0, 0.0
    if mode == "exact":
        delta = _delta_exact(dm.dist)
    else:
        delta = _delta_sampled(dm.dist, int(k), seed)
    return delta, 2.0 * delta / diam


def pairwise_l2(features) -> DistanceMatrix:
    # sqrt(max((sq_i + sq_j) - 2 x_i.x_j, 0)), symmetrised as 0.5 * (d + d.T):
    # the float operations of the direct expression, in two n x n buffers
    x = np.asarray(features, dtype=np.float64)
    sq = np.sum(x * x, axis=1)
    d = x @ x.T
    d *= 2.0
    s = np.add(sq[:, None], sq[None, :])
    np.subtract(s, d, out=d)
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    np.add(d, d.T, out=s)
    del d
    s *= 0.5
    return DistanceMatrix(s)


def test_cpcc(features, labels, tree: LabelTree, distance_mode: str, c: float) -> float:
    """CPCC between d_T and class-prototype distances over leaf pairs.

    ``distance_mode="l2"`` uses Euclidean centroids and distances;
    ``"poincare"`` exp-maps samples, Klein-averages them per class, and uses
    the Poincare distance with curvature ``c``.  This is the leaf-only CPCC
    term of the training objective, evaluated on plain arrays; fewer than
    three present classes raise InsufficientVertices, and constant prototype
    distances raise DegenerateVariance.
    """
    cfg = obj.ObjectiveConfig(c=c, tree_scope="leaf_only", cpcc_distance=distance_mode)
    return float(obj.cpcc_term_core(features, labels, tree, cfg)[0])


def knn_classify(train_feats, label_sets, query_feats, k: int):
    """k-nearest-neighbour majority votes under the L2 metric.

    One neighbour search serves every label set: ``label_sets`` holds one
    nonnegative integer label per training row for each set (e.g. the fine
    labels and their ``LabelTree.coarse_labels``), and the result holds one
    prediction array per set.  Neighbour-distance ties break toward the
    smallest training index; vote ties break toward the smallest label.
    Queries are searched KNN_BLOCK_CELLS // len(train_feats) rows at a time;
    ``k`` lies in [1, len(train_feats)].
    """
    train_feats = np.asarray(train_feats, dtype=np.float64)
    query_feats = np.asarray(query_feats, dtype=np.float64)
    n = train_feats.shape[0]
    label_sets = [np.asarray(labels, dtype=np.int64) for labels in label_sets]
    n_labels = [int(labels.max()) + 1 for labels in label_sets]
    preds = [np.empty(query_feats.shape[0], dtype=np.int64) for _ in label_sets]
    sq_t = np.sum(train_feats * train_feats, axis=1)
    step = max(1, KNN_BLOCK_CELLS // n)
    for start in range(0, query_feats.shape[0], step):
        block = query_feats[start:start + step]
        # one matrix-vector product per query, as a stacked matmul: BLAS then
        # sums each dot in the same order as ``train_feats @ q`` and ``q @ q``
        # do (one ``Q @ T.T`` product does not), so distances and their ties
        # are bit for bit those of a per-query evaluation
        q_col = block[:, :, None]
        sq_q = np.matmul(block[:, None, :], q_col)[:, 0]
        d2 = sq_t - 2.0 * np.matmul(train_feats, q_col)[:, :, 0] + sq_q
        # the k-th smallest distance per row; take every distance below it,
        # then the smallest training indices equal to it
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        nearest = d2 < kth
        missing = k - np.count_nonzero(nearest, axis=1)
        at_kth = d2 == kth
        nearest |= at_kth & (np.cumsum(at_kth, axis=1) <= missing[:, None])
        rows, cols = np.nonzero(nearest)
        for labels, c, out in zip(label_sets, n_labels, preds):
            votes = np.bincount(rows * c + labels[cols], minlength=block.shape[0] * c)
            out[start:start + step] = votes.reshape(-1, c).argmax(axis=1)
    return preds


def knn_accuracies(train_feats, train_labels, query_feats, query_labels,
                   tree: LabelTree, k: int):
    """Fine and coarse kNN accuracy from one neighbour search.

    The coarse level votes and scores on each class's depth-1 ancestor.
    """
    fine, coarse = knn_classify(train_feats, (train_labels, tree.coarse_labels(train_labels)),
                                query_feats, k)
    return (float(np.mean(fine == np.asarray(query_labels))),
            float(np.mean(coarse == tree.coarse_labels(query_labels))))


@dataclass(frozen=True)
class GaussianFit:
    """Mean, covariance, and the ridge-regularized inverse covariance."""

    mu: np.ndarray
    sigma: np.ndarray
    sigma_inv: np.ndarray
    ridge: float


def fit_gaussian(features) -> GaussianFit:
    """Sample mean and unbiased covariance with a scale-aware ridge inverse.

    The ridge is ``1e-6 * trace(sigma) / d`` floored at 1e-12 so that a
    degenerate (zero-covariance) fit still inverts to ``(1/ridge) I``.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two feature rows")
    mu = x.mean(axis=0)
    centered = x - mu
    sigma = centered.T @ centered / (x.shape[0] - 1)
    d = sigma.shape[0]
    ridge = max(1e-6 * float(np.trace(sigma)) / d, 1e-12)
    try:
        sigma_inv = np.linalg.inv(sigma + ridge * np.eye(d))
    except np.linalg.LinAlgError as e:
        raise SingularAfterRegularization(str(e)) from None
    if not np.all(np.isfinite(sigma_inv)):
        raise SingularAfterRegularization("inverse contains non-finite entries")
    return GaussianFit(mu=mu, sigma=sigma, sigma_inv=sigma_inv, ridge=ridge)


def mahalanobis_scores(rows, fit: GaussianFit) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    diff = rows - fit.mu
    return np.einsum("ij,jk,ik->i", diff, fit.sigma_inv, diff)


def auroc(id_scores, ood_scores) -> float:
    """Rank statistic P(ood > id) + 0.5 P(tie); OOD is the positive class."""
    a = np.asarray(id_scores, dtype=np.float64)
    b = np.asarray(ood_scores, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise EmptyInput("both score lists must be nonempty")
    combined = np.concatenate([a, b])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty_like(combined)
    # a run of equal values at sorted positions i..j shares the rank (i + j) / 2 + 1
    sorted_vals = combined[order]
    starts = np.flatnonzero(np.concatenate([[True], sorted_vals[1:] != sorted_vals[:-1]]))
    ends = np.append(starts[1:], combined.size) - 1
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    rank_sum_ood = ranks[a.size:].sum()
    u = rank_sum_ood - b.size * (b.size + 1) / 2.0
    return float(u / (a.size * b.size))


def borda_count(auroc_table) -> dict:
    """Rank-aggregation points per method across datasets.

    ``auroc_table`` maps method name -> {dataset name -> AUROC}.  Per dataset,
    rank methods descending; rank r of M earns M - r points, ties share the
    mean of the tied ranks' points.  Missing entries raise MissingEntry.
    """
    methods = list(auroc_table.keys())
    if not methods:
        raise EmptyInput("no methods")
    datasets = list(auroc_table[methods[0]].keys())
    for m in methods:
        if set(auroc_table[m].keys()) != set(datasets):
            raise MissingEntry(f"method {m!r} does not cover all datasets")
    scores = {m: 0.0 for m in methods}
    big_m = len(methods)
    for ds in datasets:
        vals = []
        for m in methods:
            v = auroc_table[m][ds]
            if v is None or not np.isfinite(v):
                raise MissingEntry(f"missing AUROC for {m!r} on {ds!r}")
            vals.append(float(v))
        order = np.argsort(np.argsort([-v for v in vals], kind="stable"), kind="stable")
        # order[i] = 0-based rank of method i before tie averaging
        vals_arr = np.asarray(vals)
        for i, m in enumerate(methods):
            tied = np.flatnonzero(vals_arr == vals_arr[i])
            tied_ranks = np.sort(order[tied])
            points = np.mean([big_m - 1 - r for r in tied_ranks])
            scores[m] += float(points)
    return scores
