"""CPCC correlation, flat losses, prototypes, and the composite objective.

The composite objective is ``flat_loss - alpha * CPCC + beta * centering``
where the CPCC term correlates tree-metric distances with feature-space
distances over class prototypes (Poincare or Euclidean, per configuration),
and the centering term is the norm of the root's prototype.  A vertex's
prototype averages its descendant samples through their class sums: each
class's rows are summed once, and the vertex's row of ``tree.membership``
combines those sums, so no (vertices, samples) matrix is formed.

Every ``*_core`` term accepts tape nodes as well as numpy arrays for the
features (and the logits or embeddings), so one code path serves training (on
the tape) and evaluation (plain values).  Tree distances are always constant
arrays: training differentiates with respect to the features only.  The
Pearson correlation has one implementation, in value-and-VJP form:
``cpcc_vjp`` takes plain arrays and returns the correlation with its
vector-Jacobian product; ``cpcc_core`` applies it on or off the tape, and
``embed-tree`` chains its VJP by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .errors import (ClassWithoutPositive, DegenerateVariance, InsufficientVertices,
                     check_fields)
from .hierarchy import LabelTree, tree_metric

TREE_SCOPES = ("full_tree", "leaf_only")
CENTROID_MODES = ("klein_average", "euclidean_then_map", "euclidean_then_clip")
FLAT_LOSSES = ("cross_entropy", "supcon")
CPCC_DISTANCES = geo.PAIR_MODES

MIN_CPCC_PAIRS = 3


@dataclass(frozen=True)
class ObjectiveConfig:
    """Weights and variant flags of the composite objective.

    ``cpcc_distance`` selects the regularizer family: ``"poincare"`` for the
    hyperbolic objective, ``"l2"`` for the Euclidean-centroid baseline.
    ``centroid_mode`` (see ``prototype_rows``) acts on Poincare prototypes
    only: l2 prototypes are Euclidean means.
    """

    alpha: float = 1.0
    beta: float = 0.01
    c: float = 1.0
    tau: float = 0.1
    tree_scope: str = "full_tree"
    centroid_mode: str = "klein_average"
    flat_loss: str = "cross_entropy"
    cpcc_distance: str = "poincare"

    def __post_init__(self):
        check_fields(self, [
            ("alpha", self.alpha >= 0, "nonnegative"),
            ("beta", self.beta >= 0, "nonnegative"),
            ("tau", self.tau > 0, "positive"),
            ("c", self.c > 0, "positive"),
        ] + [(name, getattr(self, name) in allowed, f"one of {allowed}") for name, allowed in (
            ("tree_scope", TREE_SCOPES), ("centroid_mode", CENTROID_MODES),
            ("flat_loss", FLAT_LOSSES), ("cpcc_distance", CPCC_DISTANCES))])


# CPCC ------------------------------------------------------------------------

def centred(t):
    """Deviations of ``t`` from its mean along the last axis, and their sum of squares."""
    td = t - t.sum(axis=-1, keepdims=True) / float(t.shape[-1])
    return td, (td * td).sum(axis=-1)


def cpcc_vjp(td, s_tt, f):
    """Pearson correlation along the last axis of plain feature distances ``f``.

    ``td, s_tt`` are the tree distances through :func:`centred`, constants:
    the correlation is differentiated through ``f`` only.  Returns the
    correlation and its VJP ``g -> g_f``.  Leading axes of ``f`` are a batch,
    so ``(R, P)`` feature distances against ``(P,)`` tree distances give
    ``R`` correlations.
    """
    fd, s_ff = centred(f)
    denom = np.sqrt(s_tt * s_ff)
    r = (td * fd).sum(axis=-1) / denom

    def vjp(g):
        # dr/dfd = td / denom - r fd / s_ff, then remove the mean (centering)
        h = (g / denom)[..., None] * td - (g * r / s_ff)[..., None] * fd
        return h - h.sum(axis=-1, keepdims=True) / float(h.shape[-1])

    return r, vjp


def cpcc_core(tree_dists, feat_dists):
    """:func:`cpcc_vjp` of constant tree distances against an array or a tape
    node; one node on the tape."""
    r, vjp = cpcc_vjp(*centred(np.asarray(tree_dists, dtype=np.float64)), ad.val(feat_dists))
    return ad.make_node(r, (feat_dists, vjp))


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


def euclidean_prototype_rows(features, labels, tree, vertices):
    """Euclidean means of each vertex's descendant samples, one row per vertex."""
    return geo.group_means(features, labels, tree.membership[vertices])


def prototype_rows(features, labels, tree, cfg, vertices):
    """Stacked prototypes in the CPCC's geometry, one row per vertex, tape-friendly.

    l2: Euclidean descendant means.  Poincare, per ``cfg.centroid_mode``:
    klein_average: exp-map every sample, Einstein-average the descendants.
    euclidean_then_map: Euclidean descendant mean, then the exp map.
    euclidean_then_clip: Euclidean descendant mean, clipped into the ball.
    Each mean or midpoint is one ``geometry`` node over the vertices' rows of
    ``tree.membership`` and the per-class sums of the samples, so memory
    grows with the samples only through per-sample rows, never as a
    (vertices, samples) matrix.
    """
    if cfg.cpcc_distance == "poincare" and cfg.centroid_mode == "klein_average":
        klein = geo.to_klein(geo.exp0(features, cfg.c), cfg.c)
        return geo.to_poincare(
            geo.einstein_mid(klein, cfg.c, labels, tree.membership[vertices]), cfg.c)
    means = euclidean_prototype_rows(features, labels, tree, vertices)
    if cfg.cpcc_distance == "l2":
        return means
    to_ball = geo.exp0 if cfg.centroid_mode == "euclidean_then_map" else geo.clip0
    return to_ball(means, cfg.c)


def cpcc_term_core(features, labels, tree, cfg, metric=None):
    """CPCC between tree distances and prototype distances over present pairs.

    Returns the correlation and its prototype rows, one per present vertex
    in ascending id order.
    Raises InsufficientVertices when fewer than MIN_CPCC_PAIRS pairs exist,
    and DegenerateVariance when their tree distances or their prototype
    distances are all equal (the correlation is then 0/0), or when the
    prototype distances include NaN.
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
    protos = prototype_rows(features, labels, tree, cfg, present)
    dists = geo.pair_distances(protos, cfg.cpcc_distance, cfg.c)
    # e.g. every pair clamped at the ball's boundary, at 2 atanh(ATANH_MAX)
    if not np.ptp(ad.val(dists)) > 0.0:
        raise DegenerateVariance("prototype distances over present vertices are constant "
                                 "or NaN")
    return cpcc_core(tdist, dists), protos


# centering ---------------------------------------------------------------------

def centering_core(root):
    """Norm of the root's prototype row."""
    return ad.sqrt(ad.maximum(geo.sq_norm(root, axis=None), 1e-300))


def regularizer_terms(features, labels, tree, cfg, metric=None, cpcc=True, center=True):
    """The CPCC and centering terms of a batch, from one set of prototype rows.

    Each term is None when not asked for, and the CPCC term also when
    ``cpcc_term_core`` raises InsufficientVertices or DegenerateVariance.  In
    full_tree scope the root (vertex 0, present in every batch) has the first
    of the CPCC's rows; where the CPCC built none, ``prototype_rows`` builds
    the root's row alone.
    """
    term = rows = None
    if cpcc:
        try:
            term, rows = cpcc_term_core(features, labels, tree, cfg, metric)
        except (InsufficientVertices, DegenerateVariance):
            pass
    if not center:
        return term, None
    if rows is not None and cfg.tree_scope == "full_tree":
        root = ad.take(rows, [0])
    else:
        root = prototype_rows(features, labels, tree, cfg, [tree.root])
    return term, centering_core(root)


# flat losses --------------------------------------------------------------------

def cross_entropy_core(logits, labels):
    labels = np.asarray(labels, dtype=np.int64)
    shift = ad.val(logits).max(axis=1, keepdims=True)
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
    weights = ad.exp(sims - row_shift)
    wv = ad.take(weights, valid)
    denom = ad.sum(wv * offdiag[valid], axis=1)
    numer = ad.sum(wv * pos_mask[valid], axis=1) / (counts[valid] - 1.0)
    return ad.mean(ad.log(denom) - ad.log(numer))


# composite -----------------------------------------------------------------------

def composite_core(features, labels, tree, cfg, flat, metric=None):
    """``(flat - alpha * cpcc + beta * center, skipped)`` on the tape.

    ``flat`` is the already computed flat loss of the batch (cross-entropy
    or SupCon, per ``cfg.flat_loss``).  The two terms share one set of
    prototype rows (``regularizer_terms``).  A batch without a CPCC term
    (too few pairs, or constant tree or prototype distances) leaves it out,
    and ``skipped`` is True.
    """
    cpcc, center = regularizer_terms(features, labels, tree, cfg, metric,
                                     cpcc=cfg.alpha > 0, center=cfg.beta > 0)
    total = flat
    if cpcc is not None:
        total = total - cfg.alpha * cpcc
    if center is not None:
        total = total + cfg.beta * center
    return total, cfg.alpha > 0 and cpcc is None
