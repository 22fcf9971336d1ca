"""Desk-scale optimization: synthetic data, a small encoder, the training
loop, and direct free-coordinate tree embedding.

The training loop follows the reference procedure: per-epoch seeded shuffle,
per-batch forward pass, composite objective, exact tape gradient, SGD with
momentum under a constant or cosine learning-rate schedule.  Everything is
deterministic given the config seeds.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from . import objective as obj
from .errors import (DivergedError, HypstructError, InsufficientVertices, ValidationError,
                     check_fields)
from .hierarchy import LabelTree, tree_metric
from .objective import ObjectiveConfig

PROJECTION_WIDTH_CAP = 128
BEST_RESTART_RTOL = 1e-12
# rows per block of encode_rows: its activations do not grow with the data
ENCODE_BLOCK_ROWS = 256


@dataclass(frozen=True)
class EncoderSpec:
    """A linear or one-hidden-layer tanh encoder."""

    kind: str = "mlp_1hidden"
    input_dim: int = 16
    hidden_dim: int = 32
    output_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        check_fields(self, [("kind", self.kind in ("linear", "mlp_1hidden"),
                             "'linear' or 'mlp_1hidden'")]
                     + [(name, getattr(self, name) >= 1, "at least 1")
                        for name in ("input_dim", "hidden_dim", "output_dim")])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    lr0: float = 0.05
    momentum: float = 0.9
    schedule: str = "cosine"
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_fields(self, [
            ("epochs", self.epochs >= 1, "at least 1"),
            ("batch_size", self.batch_size >= 1, "at least 1"),
            ("lr0", self.lr0 > 0, "positive"),
            ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
            ("weight_decay", self.weight_decay >= 0, "nonnegative"),
            ("schedule", self.schedule in ("constant", "cosine"), "'constant' or 'cosine'"),
        ])


@dataclass(frozen=True)
class SyntheticSpec:
    """Hierarchical Gaussian generator: coarse directions, leaf offsets, noise.

    ``seed`` fixes the class centers; ``noise_seed`` (default: derived from
    ``seed``) fixes the sample noise, so held-out sets can share centers while
    drawing fresh noise.
    """

    tree: LabelTree
    dim: int = 16
    coarse_spread: float = 4.0
    fine_spread: float = 1.5
    noise_sigma: float = 0.5
    n_per_leaf: int = 50
    seed: int = 0
    noise_seed: Optional[int] = None

    def __post_init__(self):
        check_fields(self, [("dim", self.dim >= 1, "at least 1"),
                            ("n_per_leaf", self.n_per_leaf >= 1, "at least 1")])
        if not (self.coarse_spread > self.fine_spread > self.noise_sigma):
            warnings.warn(
                "recommended ordering coarse_spread > fine_spread > noise_sigma "
                "does not hold; clusters may not reflect the hierarchy",
                stacklevel=2,
            )


@dataclass
class LabeledDataset:
    """Feature rows with fine-class labels; ``view2`` holds contrastive views."""

    features: np.ndarray
    labels: np.ndarray
    view2: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.view2 is not None:
            self.view2 = np.asarray(self.view2, dtype=np.float64)

    @property
    def n(self):
        return self.labels.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def leaf_centers(spec: SyntheticSpec) -> np.ndarray:
    """Class centers: depth-1 vertices get coarse offsets, deeper ones fine."""
    tree = spec.tree
    rng = np.random.default_rng(spec.seed)
    centers = {tree.root: np.zeros(spec.dim)}
    order = sorted(range(tree.n_vertices), key=tree.depth)
    for v in order:
        if v == tree.root:
            continue
        spread = spec.coarse_spread if tree.depth(v) == 1 else spec.fine_spread
        centers[v] = centers[tree.parent[v]] + spread * _unit(rng, spec.dim)
    return np.stack([centers[tree.leaf_of_class(k)] for k in range(tree.n_classes)])


def generate_hierarchical_gaussians(spec: SyntheticSpec) -> LabeledDataset:
    """Leaf centers plus isotropic noise; two views per sample, seeded."""
    centers = leaf_centers(spec)
    # noise stream separate from the center stream so both are reproducible
    noise_seed = spec.seed if spec.noise_seed is None else spec.noise_seed
    rng = np.random.default_rng(np.random.SeedSequence([noise_seed, 1]))
    # one draw, in the order of drawing class by class, view 1 then view 2
    classes = spec.tree.n_classes
    views = rng.standard_normal((classes, 2, spec.n_per_leaf, spec.dim))
    # in place: the same products and sums as centers + noise_sigma * noise
    views *= spec.noise_sigma
    views += centers[:, None, None, :]
    return LabeledDataset(views[:, 0].reshape(-1, spec.dim),
                          np.repeat(np.arange(classes), spec.n_per_leaf),
                          view2=views[:, 1].reshape(-1, spec.dim))


def load_dataset_csv(path, tree: LabelTree) -> LabeledDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "label":
            raise ValidationError(f"{path}: expected header starting with 'label'")
        width = len(header) - 1
        rows, labels = [], []
        for rec in reader:
            if not rec:
                continue
            try:
                labels.append(tree.class_index(tree.id_of(rec[0])))
                rows.append([float(x) for x in rec[1:]])
                if len(rows[-1]) != width:
                    raise ValueError(f"{len(rows[-1])} features where the header has {width}")
                if not all(map(math.isfinite, rows[-1])):
                    raise ValueError("a feature is NaN or infinite")
            except (HypstructError, ValueError) as e:
                raise ValidationError(f"{path}, line {reader.line_num}: {e}") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return LabeledDataset(np.asarray(rows), np.asarray(labels))


# encoder ------------------------------------------------------------------------

def encoder_shapes(enc: EncoderSpec) -> dict:
    """Name -> shape of the encoder's tensors, the ones :func:`encode` reads."""
    if enc.kind == "linear":
        return {"enc.w": (enc.input_dim, enc.output_dim), "enc.b": (enc.output_dim,)}
    return {"enc.w1": (enc.input_dim, enc.hidden_dim), "enc.b1": (enc.hidden_dim,),
            "enc.w2": (enc.hidden_dim, enc.output_dim), "enc.b2": (enc.output_dim,)}


def param_shapes(enc: EncoderSpec, cfg: ObjectiveConfig, n_classes: int) -> dict:
    """Name -> shape of every trained tensor: the encoder, then the CE head or
    the SupCon projection."""
    shapes = encoder_shapes(enc)
    if cfg.flat_loss == "cross_entropy":
        return {**shapes, "head.w": (enc.output_dim, n_classes), "head.b": (n_classes,)}
    proj = min(enc.output_dim, PROJECTION_WIDTH_CAP)
    return {**shapes, "proj.w": (enc.output_dim, proj), "proj.b": (proj,)}


def init_params(shapes: dict, seed: int) -> dict:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] per tensor (fan_in is the
    first dimension), drawn in the order of ``shapes`` from one seeded stream."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in shapes.items():
        bound = 1.0 / np.sqrt(shape[0])
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def encode(params, enc: EncoderSpec, x):
    """Encoder forward pass; ``params`` maps names to arrays or tape leaves."""
    if enc.kind == "linear":
        return ad.matmul(x, params["enc.w"]) + params["enc.b"]
    h = ad.tanh(ad.matmul(x, params["enc.w1"]) + params["enc.b1"])
    return ad.matmul(h, params["enc.w2"]) + params["enc.b2"]


def encode_rows(params, enc: EncoderSpec, x):
    """:func:`encode` of plain rows, ``ENCODE_BLOCK_ROWS`` at a time, bit for
    bit the whole-array encode: a product of two or more rows sums each row
    in one order, but a one-row product (BLAS's matrix-vector kernel) in
    another, so a lone last row joins the block before it."""
    out = np.empty((x.shape[0], enc.output_dim))
    stops = [*range(ENCODE_BLOCK_ROWS, x.shape[0] - 1, ENCODE_BLOCK_ROWS), x.shape[0]]
    for start, stop in zip([0, *stops], stops):
        out[start:stop] = encode(params, enc, x[start:stop])
    return out


def class_logits(params, feats):
    return ad.matmul(feats, params["head.w"]) + params["head.b"]


def project_embeddings(params, feats):
    y = ad.tanh(ad.matmul(feats, params["proj.w"]) + params["proj.b"])
    norms = ad.sqrt(ad.maximum(geo.sq_norm(y, keepdims=True), 1e-300))
    return y / norms


# training loop --------------------------------------------------------------------

@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    flat: float
    cpcc: float
    center: float
    lr: float


@dataclass
class TrainResult:
    params: dict
    history: list
    skipped_cpcc_steps: int = 0


def learning_rate(tc: TrainConfig, epoch: int) -> float:
    if tc.schedule == "constant" or tc.epochs == 1:
        return tc.lr0
    return tc.lr0 * 0.5 * (1.0 + np.cos(np.pi * epoch / (tc.epochs - 1)))


def train(dataset: LabeledDataset, tree: LabelTree, enc: EncoderSpec,
          cfg: ObjectiveConfig, tc: TrainConfig) -> TrainResult:
    """Run the composite-objective training loop; deterministic per seeds.

    One batch's tape is alive at a time: :func:`_batch_gradients` builds it,
    differentiates it and drops it on return, so nothing of batch b is held
    while batch b+1's forward pass or ``epoch_metrics`` runs.  The caller
    checks that a batch fits the dataset and that SupCon has ``view2``.
    """
    n = dataset.n
    params = init_params(param_shapes(enc, cfg, tree.n_classes), enc.seed)
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    metric = tree_metric(tree)
    rng = np.random.default_rng(tc.seed)
    history = []
    skipped = 0
    clamps_before, clips_before = ad.total_atanh_clamps(), ad.total_clip_rescales()

    for epoch in range(tc.epochs):
        lr = learning_rate(tc, epoch)
        perm = rng.permutation(n)
        flat_sum = 0.0
        n_batches = 0
        for start in range(0, n, tc.batch_size):
            flat, skip, grads = _batch_gradients(
                params, dataset, perm[start:start + tc.batch_size], tree, enc, cfg, metric)
            skipped += skip
            if grads is None:
                raise DivergedError(epoch, n_batches, ad.total_atanh_clamps() - clamps_before,
                                    ad.total_clip_rescales() - clips_before)
            flat_sum += flat
            n_batches += 1
            for (name, p), grad in zip(params.items(), grads):
                if tc.weight_decay > 0:
                    grad = grad + tc.weight_decay * p
                velocity[name] = tc.momentum * velocity[name] - lr * grad
                params[name] = p + velocity[name]

        cpcc_val, center_val = epoch_metrics(params, enc, dataset, tree, cfg, metric)
        history.append(HistoryRow(epoch, flat_sum / max(1, n_batches),
                                  cpcc_val, center_val, lr))

    return TrainResult(params=params, history=history, skipped_cpcc_steps=skipped)


def _batch_gradients(params, dataset, idx, tree, enc, cfg, metric):
    """One training step's forward and backward pass over the rows ``idx``.

    Returns the flat loss's value, whether the CPCC term was skipped, and
    the gradients of the composite objective in the order of ``params``, or
    None when the objective is not finite.  The batch's tape is local to
    this call, and ``ad.grad`` frees it as its backward pass walks it: once
    that returns, only the leaves and the nodes held here (the features,
    the flat loss, the total) are left, until this call returns.
    """
    xb = dataset.features[idx]
    yb = dataset.labels[idx]
    if cfg.flat_loss == "supcon":
        xb = np.vstack([xb, dataset.view2[idx]])
        yb = np.concatenate([yb, yb])

    leaves = {name: ad.Node(p) for name, p in params.items()}
    feats = encode(leaves, enc, xb)
    if cfg.flat_loss == "cross_entropy":
        flat = obj.cross_entropy_core(class_logits(leaves, feats), yb)
    else:
        flat = obj.supcon_core(project_embeddings(leaves, feats), yb, cfg.tau)
    total, skip = obj.composite_core(feats, yb, tree, cfg, flat, metric)
    finite = np.isfinite(float(ad.val(total)))
    grads = ad.grad(total, list(leaves.values())) if finite else None
    return float(ad.val(flat)), skip, grads


def epoch_metrics(params, enc, dataset, tree, cfg, metric=None):
    """Whole-dataset CPCC (NaN without a CPCC term) and centering values on
    the value path, from features encoded in row blocks."""
    feats = encode_rows(params, enc, dataset.features)
    cpcc, center = obj.regularizer_terms(feats, dataset.labels, tree, cfg, metric)
    return float("nan") if cpcc is None else float(cpcc), float(center)


# direct tree embedding ---------------------------------------------------------------

@dataclass(frozen=True)
class EmbedBudget:
    restarts: int = 8
    steps: int = 5000
    lr: float = 0.5
    init_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_fields(self, [("restarts", self.restarts >= 1, "at least 1"),
                            ("steps", self.steps >= 0, "nonnegative")])


@dataclass
class EmbedResult:
    coords: dict
    cpcc: float
    per_restart: list


def embed_tree_direct(tree: LabelTree, dim: int, distance_mode: str, cfg: ObjectiveConfig,
                      budget: EmbedBudget) -> EmbedResult:
    """Optimize free per-vertex coordinates to maximize CPCC against d_T.

    Plain gradient ascent from ``budget.restarts`` seeded starting points;
    the reported restart is the first whose final CPCC is within
    ``BEST_RESTART_RTOL`` (relative) of the best.  The restarts form the
    leading axis of one ``(restarts, vertices, dim)`` coordinate array.  Each
    step is one forward pass through the value-and-VJP kernels
    ``geometry.exp0_vjp`` (Poincare mode), ``geometry.pair_distances_vjp``
    and ``objective.cpcc_vjp``, and one backward pass that chains their VJPs
    by hand: the gradient of the summed per-restart CPCC, without a tape.  A
    restart whose gradient turns non-finite stops there: its coordinates
    stay at the last finite iterate while the others continue.  Poincare
    mode optimizes tangent coordinates passed through the origin exponential
    map, so returned coordinates always satisfy the ball invariant.
    """
    vertices = obj.scope_vertices(tree, cfg.tree_scope)
    k = len(vertices)
    if k * (k - 1) // 2 < obj.MIN_CPCC_PAIRS:
        raise InsufficientVertices(f"{k} in-scope vertices cannot form 3 pairs")
    metric = tree_metric(tree)
    vids = np.asarray(vertices)
    ii, jj, _ = geo.pair_index(k)
    td, s_tt = obj.centred(metric[vids[ii], vids[jj]])
    # the pair kernel's backward scatter target: zero diagonal, every other
    # cell rewritten on each call
    scratch = np.zeros((budget.restarts, k, k))

    def objective(x):
        """Per-restart CPCC of ``(restarts, k, dim)`` coordinates, and
        ``() -> its gradient`` with respect to ``x``."""
        pts, exp_back = geo.exp0_vjp(x, cfg.c) if distance_mode == "poincare" else (x, None)
        dists, pair_back = geo.pair_distances_vjp(pts, distance_mode, cfg.c, scratch)
        r, cpcc_back = obj.cpcc_vjp(td, s_tt, dists)

        def gradient():
            # d(sum r)/dr is 1 for every restart
            g = pair_back(cpcc_back(1.0))
            return g if exp_back is None else exp_back(g)

        return r, gradient

    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    x = np.stack([budget.init_scale * np.random.default_rng(seq).standard_normal((k, dim))
                  for seq in seeds])
    final = np.full(budget.restarts, -2.0)
    running = np.ones(budget.restarts, dtype=bool)
    for _ in range(budget.steps):
        r, gradient = objective(x)
        g = gradient()
        running &= np.isfinite(g).all(axis=(1, 2))
        # while every restart runs, np.where would only copy
        if running.all():
            x = x + budget.lr * g
            final = r
        elif running.any():
            x = np.where(running[:, None, None], x + budget.lr * g, x)
            final = np.where(running, r, final)
        else:
            break
    # one more forward for the post-update values
    last, _ = objective(x)
    final = np.where(np.isfinite(last), last, final)

    # l2 restarts reach the same optimum up to scale and rotation, so their
    # final CPCC values tie to the last bits; argmax would pick among them by
    # rounding noise, so take the first restart within BEST_RESTART_RTOL
    top = final.max()
    best = int(np.argmax(final >= top - BEST_RESTART_RTOL * abs(top)))
    best_x = x[best]
    if distance_mode == "poincare":
        best_x = geo.exp0(best_x, cfg.c)
    coords = {int(v): best_x[i].copy() for i, v in enumerate(vertices)}
    return EmbedResult(coords=coords, cpcc=float(final[best]),
                       per_restart=[float(v) for v in final])
