"""Composed-op references for the fused tape operations.

These build the same values as ``geometry.exp0``, ``geometry.dist_rows``,
``geometry.einstein_mid``, ``geometry.pair_distances`` and
``objective.cpcc_core`` out of elementary tape operations, one node per step,
so the tape derives their gradients.  The tests compare the fused
hand-written backward passes against them; the value-only
``geometry.dist_rows`` is compared by value.  ``einstein_mid`` here averages
over a ``(groups, rows)`` matrix, where the fused node sums classes first.
``pair_distances_vjp`` is the fused pair kernel over the whole ``(..., k, k,
d)`` difference tensor at once, which the row-blocked kernel must match bit
for bit.
``cpcc_core`` here reduces along the last axis like the fused version.
``log0``, the inverse of ``exp0``, and ``poincare_midpoint``, one Poincare
prototype from the Klein round trip, serve the round-trip and per-class
reference tests.  ``embed_tree_tape`` is ``training.embed_tree_direct`` on
the tape: the fused kernels as tape nodes over one leaf, and ``ad.grad`` of
their summed output, which the hand-chained loop must match bit for bit.
"""

import numpy as np

from hypstruct import autodiff as ad
from hypstruct import geometry as geo
from hypstruct import objective as obj
from hypstruct import training as tr
from hypstruct.hierarchy import tree_metric


def atanh(a):
    """Inverse hyperbolic tangent with boundary clamping, as a tape operator.

    Arguments with ``|x| >= ATANH_MAX`` are clamped; the clamp is treated as a
    constant (zero gradient) and counted as an atanh clamp, as the fused
    Poincare distance counts its clamps.
    """
    va = ad.val(a)
    clipped = np.clip(va, -ad.ATANH_MAX, ad.ATANH_MAX)
    n_clamped = int(np.count_nonzero(np.abs(va) >= ad.ATANH_MAX))
    if n_clamped:
        ad.record_atanh_clamps(n_clamped)
    inside = np.abs(va) < ad.ATANH_MAX
    return ad.make_node(np.arctanh(clipped),
                        (a, lambda g: np.where(inside, g / (1.0 - clipped * clipped), 0.0)))


def capped_tanh(s):
    # min(tanh(s), _TANH_MAX) with zero gradient on the cap
    t = ad.tanh(s)
    capped = np.asarray(ad.val(t)) >= geo._TANH_MAX
    if capped.any():
        t = ad.where(capped, geo._TANH_MAX, t)
    return t


def exp0(v, c):
    s = ad.sqrt(ad.maximum(geo.sq_norm(v, keepdims=True), geo._TINY_SQ)) * np.sqrt(c)
    return (capped_tanh(s) / s) * v


def log0(u, c):
    """Logarithm map at the origin, rows along the last axis."""
    a = ad.sqrt(ad.maximum(geo.sq_norm(u, keepdims=True), geo._TINY_SQ)) * np.sqrt(c)
    return (atanh(a) / a) * u


def einstein_mid(k_rows, c, groups):
    """Einstein midpoints of groups of Klein rows; ``groups`` is a constant
    ``(m, n)`` 0/1 matrix over the ``n`` rows."""
    g = geo.lorentz_gamma(k_rows, c)
    return ad.matmul(groups, g * k_rows) / ad.matmul(groups, g)


def poincare_midpoint(rows, c):
    """Einstein midpoint of Poincare ``(n, d)`` rows, mapped back to the ball."""
    rows = np.asarray(rows, dtype=np.float64)
    everyone = np.ones((1, rows.shape[0]))
    return geo.to_poincare(einstein_mid(geo.to_klein(rows, c), c, everyone), c)[0]


def dist_rows(z1, z2, c):
    diff = z1 - z2
    s = geo.sq_norm(diff)
    den = ad.maximum((1.0 - c * geo.sq_norm(z1)) * (1.0 - c * geo.sq_norm(z2)) + c * s,
                     geo._TINY_SQ)
    m = ad.sqrt(ad.maximum(s / den, geo._TINY_SQ))
    return (2.0 / np.sqrt(c)) * atanh(np.sqrt(c) * m)


def pair_distances(rows, mode, c):
    # gather both ends of every i < j pair, then the paired distance
    ii, jj = np.triu_indices(ad.val(rows).shape[-2], 1)
    z1, z2 = ad.take(rows, ii, axis=-2), ad.take(rows, jj, axis=-2)
    if mode == "poincare":
        return dist_rows(z1, z2, c)
    return ad.sqrt(ad.maximum(geo.sq_norm(z1 - z2), geo._TINY_SQ))


def pair_distances_vjp(x, mode, c):
    """``geometry.pair_distances_vjp`` from the whole difference tensor ``D``."""
    k = x.shape[-2]
    ii, jj, flat = geo.pair_index(k)
    diff = x[..., :, None, :] - x[..., None, :, :]
    s = np.einsum("...ijd,...ijd->...ij", diff, diff).reshape(x.shape[:-2] + (k * k,)).take(
        flat, axis=-1)
    if mode == "l2":
        dist = np.sqrt(s)

        def back(g):
            return np.divide(0.5 * g, dist, out=np.zeros(s.shape), where=s > 0.0), None, None
    else:
        a = 1.0 - c * np.einsum("...id,...id->...i", x, x)
        dist, back = geo._poincare_from_sq(s, a.take(ii, axis=-1), a.take(jj, axis=-1), c)

    def vjp(g):
        g_s, g_ni, g_nj = back(g)
        w = np.zeros(x.shape[:-1] + (k,))
        w[..., ii, jj] = g_s
        w[..., jj, ii] = g_s
        g_x = 2.0 * np.einsum("...ij,...ijd->...id", w, diff)
        if g_ni is not None:
            w[..., ii, jj] = g_ni
            w[..., jj, ii] = g_nj
            g_x += (2.0 * w.sum(axis=-1))[..., None] * x
        return g_x

    return dist, vjp


def cpcc_core(tree_dists, feat_dists):
    t, f = tree_dists, feat_dists
    n = float(ad.val(f).shape[-1])
    td = t - ad.sum(t, axis=-1, keepdims=True) / n
    fd = f - ad.sum(f, axis=-1, keepdims=True) / n
    denom = ad.sqrt(ad.sum(td * td, axis=-1) * ad.sum(fd * fd, axis=-1))
    return ad.sum(td * fd, axis=-1) / denom


def embed_tree_tape(tree, dim, distance_mode, cfg, budget):
    """``training.embed_tree_direct`` with one tape and one ``ad.grad`` per step."""
    vertices = obj.scope_vertices(tree, cfg.tree_scope)
    k = len(vertices)
    vids = np.asarray(vertices)
    ii, jj, _ = geo.pair_index(k)
    tdist = tree_metric(tree)[vids[ii], vids[jj]]

    def objective(x):
        pts = geo.exp0(x, cfg.c) if distance_mode == "poincare" else x
        return obj.cpcc_core(tdist, geo.pair_distances(pts, distance_mode, cfg.c))

    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    x = np.stack([budget.init_scale * np.random.default_rng(seq).standard_normal((k, dim))
                  for seq in seeds])
    final = np.full(budget.restarts, -2.0)
    running = np.ones(budget.restarts, dtype=bool)
    for _ in range(budget.steps):
        leaf = ad.Node(x)
        out = objective(leaf)
        g = ad.grad(ad.sum(out), [leaf])[0]
        running &= np.isfinite(g).all(axis=(1, 2))
        if not running.any():
            break
        x = np.where(running[:, None, None], x + budget.lr * g, x)
        final = np.where(running, out.value, final)
    last = objective(x)
    final = np.where(np.isfinite(last), last, final)
    top = final.max()
    best = int(np.argmax(final >= top - tr.BEST_RESTART_RTOL * abs(top)))
    best_x = x[best]
    if distance_mode == "poincare":
        best_x = np.asarray(geo.exp0(best_x, cfg.c))
    return tr.EmbedResult(coords={int(v): best_x[i].copy() for i, v in enumerate(vertices)},
                          cpcc=float(final[best]), per_restart=[float(v) for v in final])
