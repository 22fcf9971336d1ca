"""CPCC correlation, flat losses, prototypes, and the composite objectives.

The composite objective is ``flat_loss - alpha * CPCC + beta * centering``
where the CPCC term correlates tree-metric distances with feature-space
distances over class prototypes (Poincare or Euclidean, per configuration).

Every loss here has two faces: the public operation takes numpy inputs and
returns a float, while the ``*_core`` form also accepts tape nodes so the same
code path serves gradient evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .errors import (
    ClassWithoutPositive,
    DegenerateVariance,
    EmptyBatch,
    EmptyGroup,
    InsufficientVertices,
    LengthMismatch,
    UnnormalizedInput,
)
from .geometry import PoincarePoint
from .hierarchy import LabelTree, tree_metric

TREE_SCOPES = ("full_tree", "leaf_only")
CENTROID_MODES = ("klein_average", "euclidean_then_map")
MAP_MODES = ("exp_map", "clip")
FLAT_LOSSES = ("cross_entropy", "supcon")
CPCC_DISTANCES = geo.PAIR_MODES

MIN_CPCC_PAIRS = 3


@dataclass(frozen=True)
class ObjectiveConfig:
    """Weights and variant flags of the composite objective.

    ``cpcc_distance`` selects the regularizer family: ``"poincare"`` for the
    hyperbolic objective, ``"l2"`` for the Euclidean-centroid baseline.
    """

    alpha: float = 1.0
    beta: float = 0.01
    c: float = 1.0
    tau: float = 0.1
    tree_scope: str = "full_tree"
    centroid_mode: str = "klein_average"
    map_mode: str = "exp_map"
    flat_loss: str = "cross_entropy"
    cpcc_distance: str = "poincare"
    clip_epsilon: float = geo.DEFAULT_CLIP_EPSILON

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")
        if not (self.c > 0):
            raise ValueError("curvature must be positive")
        for name, value, allowed in (
            ("tree_scope", self.tree_scope, TREE_SCOPES),
            ("centroid_mode", self.centroid_mode, CENTROID_MODES),
            ("map_mode", self.map_mode, MAP_MODES),
            ("flat_loss", self.flat_loss, FLAT_LOSSES),
            ("cpcc_distance", self.cpcc_distance, CPCC_DISTANCES),
        ):
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass
class Batch:
    """Encoder outputs with fine-class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if ad.val(self.features).ndim != 2:
            raise ValueError("features must be a 2-D (n, d) array")
        if ad.val(self.features).shape[0] != self.labels.shape[0]:
            raise LengthMismatch("features and labels disagree on n")
        if self.labels.shape[0] < 1:
            raise EmptyBatch("batch must contain at least one sample")

    @property
    def n(self):
        return self.labels.shape[0]


@dataclass(frozen=True)
class Prototypes:
    """Per-vertex Poincare prototypes for the vertices present in a batch."""

    points: dict
    present: frozenset


@dataclass(frozen=True)
class FlatInputs:
    """Inputs of the flat term: logits for CE, unit-norm embeddings for SupCon."""

    logits: Optional[np.ndarray] = None
    embeddings: Optional[np.ndarray] = None


# CPCC ------------------------------------------------------------------------

def cpcc_core(tree_dists, feat_dists):
    """Pearson correlation along the last axis; one tape node.

    Leading axes broadcast, so ``(R, P)`` feature distances against ``(P,)``
    tree distances give ``R`` correlations.
    """
    t, f = ad.val(tree_dists), ad.val(feat_dists)
    td = t - np.sum(t, axis=-1, keepdims=True) / float(t.shape[-1])
    fd = f - np.sum(f, axis=-1, keepdims=True) / float(f.shape[-1])
    s_tt = np.sum(td * td, axis=-1)
    s_ff = np.sum(fd * fd, axis=-1)
    denom = np.sqrt(s_tt * s_ff)
    r = np.sum(td * fd, axis=-1) / denom
    if not (ad.is_node(tree_dists) or ad.is_node(feat_dists)):
        return r

    def vjp(g):
        # dr/dfd = td / denom - r fd / s_ff, then remove the mean (centering)
        def centered(own, other, own_ss, shape):
            h = (g / denom)[..., None] * other - (g * r / own_ss)[..., None] * own
            return ad.unbroadcast(h - np.sum(h, axis=-1, keepdims=True) / float(h.shape[-1]),
                                  shape)
        g_t = centered(td, fd, s_tt, t.shape) if ad.is_node(tree_dists) else None
        return g_t, centered(fd, td, s_ff, f.shape)

    return ad.make_joint_node(r, (tree_dists, feat_dists), vjp)


def cpcc(tree_dists, feat_dists) -> float:
    """Pearson correlation between paired distance collections, in [-1, 1]."""
    t = np.asarray(tree_dists, dtype=np.float64)
    f = np.asarray(ad.val(feat_dists), dtype=np.float64)
    if t.shape != f.shape or t.ndim != 1:
        raise LengthMismatch(f"paired distance vectors required, got {t.shape} vs {f.shape}")
    if t.size < 2:
        raise LengthMismatch("need at least two pairs")
    if np.ptp(t) == 0.0:
        raise DegenerateVariance("tree distances are constant")
    if np.ptp(f) == 0.0:
        raise DegenerateVariance("feature distances are constant")
    return float(ad.val(cpcc_core(t, feat_dists)))


def l2_dataset_distance(group_a, group_b) -> float:
    """Euclidean distance between the two group centroids."""
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise EmptyGroup("both groups must be nonempty")
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    if a.shape[1] != b.shape[1]:
        raise LengthMismatch(f"dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)))


# prototypes -------------------------------------------------------------------

def scope_vertices(tree: LabelTree, scope: str):
    if scope == "leaf_only":
        return list(tree.leaf_classes)
    return list(range(tree.n_vertices))


def present_vertices(tree: LabelTree, labels, scope: str):
    """In-scope vertices with at least one descendant-leaf sample."""
    vids = np.asarray(scope_vertices(tree, scope))
    in_batch = np.bincount(np.asarray(labels), minlength=tree.n_classes) > 0
    return vids[tree.membership[vids] @ in_batch > 0].tolist()


def _group_matrix(tree, labels, vertices):
    """Constant (vertices, samples) 0/1 matrix: sample j descends from vertex i."""
    return tree.membership[vertices][:, np.asarray(labels)]


def euclidean_prototype_rows(features, labels, tree, vertices):
    """Euclidean means of each vertex's descendant samples, one row per vertex."""
    groups = _group_matrix(tree, labels, vertices)
    return ad.matmul(groups / groups.sum(axis=1, keepdims=True), features)


def _map_rows(rows, cfg):
    if cfg.map_mode == "clip":
        return geo.clip0(rows, cfg.c, cfg.clip_epsilon)
    return geo.exp0(rows, cfg.c)


def prototype_rows(features, labels, tree, cfg, vertices):
    """Stacked Poincare prototypes (one row per vertex), tape-friendly.

    klein_average: exp-map every sample, Einstein-average the descendants.
    euclidean_then_map: Euclidean descendant mean, then exp map or clip.
    """
    if cfg.centroid_mode == "klein_average":
        klein = geo.to_klein(geo.exp0(features, cfg.c), cfg.c)
        groups = _group_matrix(tree, labels, vertices)
        return geo.to_poincare(geo.einstein_mid(klein, cfg.c, groups), cfg.c)
    return _map_rows(euclidean_prototype_rows(features, labels, tree, vertices), cfg)


def hyp_prototypes(batch: Batch, tree: LabelTree, cfg: ObjectiveConfig) -> Prototypes:
    """Per-vertex hyperbolic class prototypes for the in-scope present vertices."""
    if batch.n < 1:
        raise EmptyBatch("batch must contain at least one sample")
    present = present_vertices(tree, batch.labels, cfg.tree_scope)
    rows = np.asarray(ad.val(prototype_rows(batch.features, batch.labels, tree, cfg, present)))
    points = {v: PoincarePoint(rows[i], cfg.c) for i, v in enumerate(present)}
    return Prototypes(points=points, present=frozenset(present))


def cpcc_term_core(features, labels, tree, cfg, metric=None):
    """CPCC between tree distances and prototype distances over present pairs.

    Raises InsufficientVertices when fewer than MIN_CPCC_PAIRS pairs exist.
    ``metric`` is an optional precomputed hierarchy.TreeMetric.
    """
    present = present_vertices(tree, labels, cfg.tree_scope)
    k = len(present)
    if k * (k - 1) // 2 < MIN_CPCC_PAIRS:
        raise InsufficientVertices(
            f"{k} present vertices give {k * (k - 1) // 2} pairs; need {MIN_CPCC_PAIRS}"
        )
    tm = metric if metric is not None else tree_metric(tree)
    ii, jj = np.triu_indices(k, 1)
    vids = np.asarray(present)
    tdist = tm.dist[vids[ii], vids[jj]]
    if np.ptp(tdist) == 0.0:
        raise DegenerateVariance("tree distances over present vertices are constant")
    if cfg.cpcc_distance == "poincare":
        protos = prototype_rows(features, labels, tree, cfg, present)
    else:
        protos = euclidean_prototype_rows(features, labels, tree, present)
    return cpcc_core(tdist, geo.pair_distances(protos, cfg.cpcc_distance, cfg.c))


def hypcpcc_loss(batch: Batch, tree: LabelTree, cfg: ObjectiveConfig) -> float:
    """CPCC between d_T and Poincare prototype distances over present pairs."""
    hyp_cfg = cfg if cfg.cpcc_distance == "poincare" else replace(cfg, cpcc_distance="poincare")
    return float(ad.val(cpcc_term_core(batch.features, batch.labels, tree, hyp_cfg)))


def l2_cpcc_loss(batch: Batch, tree: LabelTree, cfg: ObjectiveConfig) -> float:
    """CPCC between d_T and Euclidean centroid distances over present pairs."""
    l2_cfg = cfg if cfg.cpcc_distance == "l2" else replace(cfg, cpcc_distance="l2")
    return float(ad.val(cpcc_term_core(batch.features, batch.labels, tree, l2_cfg)))


# centering ---------------------------------------------------------------------

def centering_core(features, cfg):
    if cfg.centroid_mode == "klein_average":
        klein = geo.to_klein(geo.exp0(features, cfg.c), cfg.c)
        everyone = np.ones((1, ad.val(features).shape[0]))
        root = geo.to_poincare(geo.einstein_mid(klein, cfg.c, everyone), cfg.c)
    else:
        # valid surrogate for the exp-mapped norm by monotonicity of tanh
        root = ad.mean(features, axis=0)
    return ad.sqrt(ad.maximum(geo.sq_norm(root, axis=None), 1e-300))


def centering_loss(batch: Batch, cfg: ObjectiveConfig) -> float:
    """Norm of the batch-level hyperbolic (or Euclidean) mean representation."""
    if batch.n < 1:
        raise EmptyBatch("batch must contain at least one sample")
    return float(ad.val(centering_core(batch.features, cfg)))


# flat losses --------------------------------------------------------------------

def cross_entropy_core(logits, labels):
    labels = np.asarray(labels, dtype=np.int64)
    shift = ad.detach(ad.val(logits).max(axis=1, keepdims=True))
    s = logits - shift
    lse = ad.log(ad.sum(ad.exp(s), axis=1))
    picked = ad.gather_cols(s, labels)
    return ad.mean(lse - picked)


def cross_entropy(logits, labels) -> float:
    """Mean negative log softmax probability of the true class."""
    logits = np.asarray(ad.val(logits), dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise LengthMismatch("logits must be (n, k) aligned with labels")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= logits.shape[1]:
        raise ValueError("labels out of range")
    return float(ad.val(cross_entropy_core(logits, labels)))


def supcon_core(embeddings, labels, tau):
    """Supervised contrastive loss over an already-augmented batch of views.

    Anchors without a same-class partner are excluded from the mean; raises
    ClassWithoutPositive when no anchor qualifies.
    """
    labels = np.asarray(labels, dtype=np.int64)
    m = labels.shape[0]
    same = labels[:, None] == labels[None, :]
    offdiag = ~np.eye(m, dtype=bool)
    pos_mask = same & offdiag
    counts = same.sum(axis=1)  # includes self
    valid = np.flatnonzero(counts >= 2)
    if valid.size == 0:
        raise ClassWithoutPositive("no anchor has a same-class partner")

    sims = ad.matmul(embeddings, ad.transpose(embeddings)) / tau
    row_shift = np.where(offdiag, ad.val(sims), -np.inf).max(axis=1, keepdims=True)
    weights = ad.exp(sims - ad.detach(row_shift))
    wv = ad.take(weights, valid)
    denom = ad.sum(wv * offdiag[valid], axis=1)
    numer = ad.sum(wv * pos_mask[valid], axis=1) / (counts[valid] - 1.0)
    return ad.mean(ad.log(denom) - ad.log(numer))


def supcon_loss(embeddings, labels, tau) -> float:
    """SupCon loss; rows must be unit-norm within 1e-6."""
    u = np.asarray(ad.val(embeddings), dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if u.ndim != 2 or u.shape[0] != labels.shape[0]:
        raise LengthMismatch("embeddings must be (n, p) aligned with labels")
    norms = np.linalg.norm(u, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise UnnormalizedInput(f"row norms deviate from 1 by up to {np.abs(norms - 1).max():.3g}")
    if not (tau > 0):
        raise ValueError("tau must be positive")
    return float(ad.val(supcon_core(embeddings, labels, tau)))


# composite -----------------------------------------------------------------------

def composite_core(features, labels, tree, cfg, flat: FlatInputs, metric=None):
    """``(flat - alpha * cpcc + beta * center, flat)`` on the tape; errors propagate."""
    if cfg.flat_loss == "cross_entropy":
        if flat.logits is None:
            raise ValueError("cross_entropy flat loss requires logits")
        flat_term = cross_entropy_core(flat.logits, labels)
    else:
        if flat.embeddings is None:
            raise ValueError("supcon flat loss requires embeddings")
        flat_term = supcon_core(flat.embeddings, labels, cfg.tau)
    total = flat_term
    if cfg.alpha > 0:
        total = total - cfg.alpha * cpcc_term_core(features, labels, tree, cfg, metric)
    if cfg.beta > 0:
        total = total + cfg.beta * centering_core(features, cfg)
    return total, flat_term


def composite_objective(batch: Batch, tree: LabelTree, cfg: ObjectiveConfig,
                        flat_inputs: FlatInputs) -> float:
    """Composite objective value on plain numpy inputs; sub-errors propagate."""
    if cfg.flat_loss == "supcon" and flat_inputs.embeddings is not None:
        norms = np.linalg.norm(np.asarray(ad.val(flat_inputs.embeddings)), axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise UnnormalizedInput("supcon embeddings must be unit-norm rows")
    total, _ = composite_core(batch.features, batch.labels, tree, cfg, flat_inputs)
    return float(ad.val(total))


# gradient --------------------------------------------------------------------------

def gradient(closure, params, *, return_nondifferentiable=False):
    """Exact gradient of ``closure(params)`` via the reverse-mode tape.

    ``closure`` must map a parameter Node (same shape as ``params``) to a
    scalar Node.  With ``return_nondifferentiable=True`` also returns whether
    a clip branch or atanh clamp fired during the forward pass, in which case
    the clamp was treated as a constant.
    """
    params = np.asarray(params, dtype=np.float64)
    ad.reset_events()
    leaf = ad.Node(params)
    out = closure(leaf)
    if not ad.is_node(out):
        raise TypeError("closure must return a tape Node; did it detach the parameters?")
    g = ad.grad(out, [leaf])[0]
    if return_nondifferentiable:
        return g, ad.events_active()
    return g
