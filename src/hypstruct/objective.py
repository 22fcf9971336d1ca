"""CPCC correlation, flat losses, prototypes, and the composite objective.

The composite objective is ``flat_loss - alpha * CPCC + beta * centering``
where the CPCC term correlates tree-metric distances with feature-space
distances over class prototypes (Poincare or Euclidean, per configuration).

Every ``*_core`` term accepts tape nodes as well as numpy arrays, so one code
path serves training (on the tape) and evaluation (plain values).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .errors import ClassWithoutPositive, DegenerateVariance, InsufficientVertices
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


def cpcc_term_core(features, labels, tree, cfg, metric=None):
    """CPCC between tree distances and prototype distances over present pairs.

    Raises InsufficientVertices when fewer than MIN_CPCC_PAIRS pairs exist.
    ``metric`` is the tree's ``hierarchy.tree_metric`` matrix, computed here
    when not given.
    """
    present = present_vertices(tree, labels, cfg.tree_scope)
    k = len(present)
    if k * (k - 1) // 2 < MIN_CPCC_PAIRS:
        raise InsufficientVertices(
            f"{k} present vertices give {k * (k - 1) // 2} pairs; need {MIN_CPCC_PAIRS}"
        )
    if metric is None:
        metric = tree_metric(tree)
    ii, jj, _ = geo.pair_index(k)
    vids = np.asarray(present)
    tdist = metric[vids[ii], vids[jj]]
    if np.ptp(tdist) == 0.0:
        raise DegenerateVariance("tree distances over present vertices are constant")
    if cfg.cpcc_distance == "poincare":
        protos = prototype_rows(features, labels, tree, cfg, present)
    else:
        protos = euclidean_prototype_rows(features, labels, tree, present)
    return cpcc_core(tdist, geo.pair_distances(protos, cfg.cpcc_distance, cfg.c))


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


# flat losses --------------------------------------------------------------------

def cross_entropy_core(logits, labels):
    labels = np.asarray(labels, dtype=np.int64)
    shift = ad.detach(ad.val(logits).max(axis=1, keepdims=True))
    s = logits - shift
    lse = ad.log(ad.sum(ad.exp(s), axis=1))
    picked = ad.gather_cols(s, labels)
    return ad.mean(lse - picked)


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


# composite -----------------------------------------------------------------------

def composite_core(features, labels, tree, cfg, flat, metric=None):
    """``flat - alpha * cpcc + beta * center`` on the tape; errors propagate.

    ``flat`` is the already computed flat loss of the batch (cross-entropy
    or SupCon, per ``cfg.flat_loss``).
    """
    total = flat
    if cfg.alpha > 0:
        total = total - cfg.alpha * cpcc_term_core(features, labels, tree, cfg, metric)
    if cfg.beta > 0:
        total = total + cfg.beta * centering_core(features, cfg)
    return total
