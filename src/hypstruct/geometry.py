"""Poincare-ball and Klein-model primitives on raw arrays.

Every function takes rows along the last axis and is what the objective and
training code build on.  The fused kernels have one implementation each, in
value-and-VJP form: ``exp0_vjp``, ``group_means_vjp``, ``einstein_mid_vjp``
and ``pair_distances_vjp`` take plain arrays and return the value with its
vector-Jacobian product.  ``exp0``, ``group_means``, ``einstein_mid`` and
``pair_distances`` apply them to an array, or to a tape node as one node;
``embed-tree`` chains the VJPs by hand.  The others use the ``autodiff``
operators, so a node gives a node and an array its value; ``dist_rows``
alone works on values only, pairing rows one to one for the distances
``embed-tree`` writes out, with the Poincare formula of ``pair_distances_vjp``.

No array grows with the rows times the tree: a group mean sums each class's
rows once, and the pair kernel makes its differences a block of rows at a time.

Conventions: curvature ``c`` is a positive constant and the ball
radius is ``1/sqrt(c)``.  The exponential map is taken at the origin only;
general-basepoint maps are intentionally absent.

Closed forms::

    d(z1, z2)  = (2/sqrt(c)) atanh(sqrt(c) * sqrt(s / den)),        (difference form)
                 s = ||z1 - z2||^2,  den = (1 - c||z1||^2)(1 - c||z2||^2) + c s
    exp0(v)    = tanh(sqrt(c)||v||) * v / (sqrt(c)||v||)
    z_K        = 2 z_B / (1 + c||z_B||^2)
    z_B        = z_K / (1 + sqrt(1 - c||z_K||^2))
    midpoint   = sum_i gamma_i k_i / sum_i gamma_i,  gamma_i = 1/sqrt(1 - c||k_i||^2)
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad

# Floor under squared norms so that coef(s) = f(s)/s evaluates to its limit 1
# at the origin instead of 0/0.
_TINY_SQ = 1e-300

# tanh saturates to exactly 1.0 in float64 around |x| ~ 19; cap it just below
# so exp0 output always satisfies the strict ball invariant.
_TANH_MAX = np.nextafter(1.0, 0.0)

# lorentz_gamma of a row whose 1 - c||k||^2 is floored
_GAMMA_MAX = 1.0 / np.sqrt(_TINY_SQ)

# Cells (leading axes x rows x k x d) of a block of the pair kernel's
# differences, 256 KB: 16 rows at train-c100's k = 121, d = 16; all of
# embed-tree's 8 x 13 x 13 x 2.  train-c100's peak RSS read 42.7 MB with one
# block, 41.1 MB at 65,536 cells and 40.7 MB at 32,768, no lower below.
PAIR_BLOCK_CELLS = 32_768


def sq_norm(x, axis=-1, keepdims=False):
    return ad.sum(x * x, axis=axis, keepdims=keepdims)


def exp0_vjp(x, c):
    """Exponential map at the origin of plain ``x``, rows along the last axis.

    Returns ``exp0(x)`` and its VJP ``g -> g_x``.  The tanh cap and the
    squared-norm floor are constants of the backward pass (zero gradient
    through them).
    """
    sq = (x * x).sum(axis=-1, keepdims=True)
    s0 = np.sqrt(np.maximum(sq, _TINY_SQ))
    s = s0 * np.sqrt(c)
    t = np.minimum(np.tanh(s), _TANH_MAX)
    coef = t / s

    def vjp(g):
        # out = coef(s) x with coef = tanh(s)/s and s = sqrt(c) ||x||
        dcoef = (np.where(t >= _TANH_MAX, 0.0, 1.0 - t * t) - coef) / s
        g_sq = (g * x).sum(axis=-1, keepdims=True) * dcoef * np.sqrt(c) / (2.0 * s0)
        return coef * g + 2.0 * np.where(sq >= _TINY_SQ, g_sq, 0.0) * x

    return coef * x, vjp


def exp0(v, c):
    """:func:`exp0_vjp` on an array or a tape node; one node on the tape."""
    out, vjp = exp0_vjp(ad.val(v), c)
    return ad.make_node(out, (v, vjp))


def clip0(v, c, epsilon=1e-5):
    """Rescale rows with ``||v|| >= 1/sqrt(c)`` to norm ``1/sqrt(c) - epsilon``."""
    radius = 1.0 / np.sqrt(c)
    norms = ad.sqrt(ad.maximum(sq_norm(v, keepdims=True), _TINY_SQ))
    outside = ad.val(norms) >= radius
    n_rescaled = int(np.count_nonzero(outside))
    if n_rescaled == 0:
        return v
    ad.record_clip_rescales(n_rescaled)
    scale = (radius - epsilon) / norms
    return ad.where(outside, scale * v, v)


def to_klein(z, c):
    return 2.0 * z / (1.0 + c * sq_norm(z, keepdims=True))


def to_poincare(k, c):
    inner = ad.maximum(1.0 - c * sq_norm(k, keepdims=True), _TINY_SQ)
    return k / (1.0 + ad.sqrt(inner))


def lorentz_gamma(k, c):
    """Lorentz factor 1/sqrt(1 - c||z||^2), keepdims along the last axis."""
    return 1.0 / ad.sqrt(ad.maximum(1.0 - c * sq_norm(k, keepdims=True), _TINY_SQ))


def group_means_vjp(rows, labels, groups, weights=None):
    """Weighted means of plain ``(n, d)`` rows over groups of their classes.

    Row ``i`` of the ``(m, d)`` result is ``sum_j w_j rows_j / sum_j w_j``
    over the rows ``j`` whose class ``labels[j]`` row ``i`` of the constant
    0/1 ``(m, C)`` matrix ``groups`` selects, taken as ``groups`` times the
    per-class sums: no ``(m, n)`` array is formed.  ``weights`` is an
    ``(n, 1)`` column, ones when not given.  Returns the means and their VJP
    ``g -> (g_rows, g_weights)``.
    """
    labels, n_classes = np.asarray(labels), groups.shape[1]
    w = np.ones((rows.shape[0], 1)) if weights is None else weights

    def group_sums(a):
        # each class's rows summed in row order, then each group's classes
        bins = (labels[:, None] * a.shape[1] + np.arange(a.shape[1])).ravel()
        return groups @ np.bincount(bins, a.ravel(), n_classes * a.shape[1]).reshape(
            n_classes, -1)

    den = group_sums(w)
    mean = group_sums(rows if weights is None else w * rows) / den

    def vjp(g):
        # each group's gradient spreads over its classes, each class's over its rows
        g_num = g / den
        g_wrows = (groups.T @ g_num)[labels]
        g_w = (groups.T @ -(g_num * mean).sum(axis=-1, keepdims=True))[labels]
        return w * g_wrows, (g_wrows * rows).sum(axis=-1, keepdims=True) + g_w

    return mean, vjp


def group_means(rows, labels, groups):
    """Unweighted :func:`group_means_vjp` on an array or a tape node; one node
    on the tape."""
    mean, vjp = group_means_vjp(ad.val(rows), labels, groups)
    return ad.make_node(mean, (rows, lambda g: vjp(g)[0]))


def einstein_mid_vjp(k_rows, c, labels, groups):
    """:func:`group_means_vjp` of plain Klein rows weighted by
    :func:`lorentz_gamma`: Einstein midpoints, and their VJP ``g -> g_k``.
    A row whose ``1 - c||k||^2`` is floored keeps its factor as a constant."""
    gamma = lorentz_gamma(k_rows, c)
    mid, back = group_means_vjp(k_rows, labels, groups, gamma)

    def vjp(g):
        g_k, g_gamma = back(g)
        # d gamma / dk = c gamma^3 k off the floor
        live = np.where(gamma < _GAMMA_MAX, gamma, 0.0)
        return g_k + (c * g_gamma * live * live * live) * k_rows

    return mid, vjp


def einstein_mid(k_rows, c, labels, groups):
    """:func:`einstein_mid_vjp` on an array or a tape node; one node on the tape."""
    mid, vjp = einstein_mid_vjp(ad.val(k_rows), c, labels, groups)
    return ad.make_node(mid, (k_rows, vjp))


def _poincare_from_sq(s, ai, aj, c):
    """Poincare distance from ``s = ||z_i - z_j||^2`` and each end's
    ``a = 1 - c||z||^2``, arrays of at least one dimension.

    Returns the distances and ``back(g) -> (g_s, g_ni, g_nj)``, the gradient
    with respect to ``s`` and the two squared norms.  The denominator floor
    and the atanh clamp are constants of the backward pass: a pair whose
    argument clamps gets zero gradient.  So does a coincident pair
    (``s == 0``), where the distance has a kink.  Each clamped argument
    counts as one ``autodiff`` atanh clamp.  ``back`` runs once: it writes
    its three gradients over the forward's buffers ``den``, ``ai`` and
    ``aj``, so it allocates no pair-sized array.
    """
    rc = np.sqrt(c)
    den = ai * aj
    den += c * s
    np.maximum(den, _TINY_SQ, out=den)
    m = s / den
    np.sqrt(m, out=m)
    # arg >= 0, so only the upper clamp can bind
    arg = rc * m
    n_clamped = int(np.count_nonzero(arg >= ad.ATANH_MAX))
    if n_clamped:
        ad.record_atanh_clamps(n_clamped)
    live = arg < ad.ATANH_MAX
    live &= s > 0.0
    dead = ~live
    np.minimum(arg, ad.ATANH_MAX, out=arg)
    np.arctanh(arg, out=arg)
    arg *= 2.0 / rc

    def back(g):
        # dd/ds = 1/(m den), dd/dn_i = c m / (1 - c n_i)
        np.multiply(den, m, out=den)
        np.divide(g, den, out=den, where=live)
        np.multiply(m, c, out=m)
        np.multiply(m, g, out=m)
        np.divide(m, ai, out=ai, where=live)
        np.divide(m, aj, out=aj, where=live)
        for grad in (den, ai, aj):
            np.copyto(grad, 0.0, where=dead)
        return den, ai, aj

    return arg, back


def dist_rows(z1, z2, c):
    """Poincare distance between paired rows (last axis) of two arrays; values only.

    Works from the difference ``z1 - z2``, so close pairs keep full relative
    accuracy (the Mobius-form numerator cancels there).
    """
    z1, z2 = np.asarray(z1, dtype=np.float64), np.asarray(z2, dtype=np.float64)
    diff = z1 - z2
    # keepdims: the kernel writes in place, so even a pair of single rows
    # must reach it as arrays, not numpy scalars
    return _poincare_from_sq(np.sum(diff * diff, axis=-1, keepdims=True),
                             1.0 - c * np.sum(z1 * z1, axis=-1, keepdims=True),
                             1.0 - c * np.sum(z2 * z2, axis=-1, keepdims=True), c)[0][..., 0]


PAIR_MODES = ("poincare", "l2")


# two entries: an embed-tree step asks for one k throughout, and a training
# step for one k twice (tree pairs, then distances).  Each entry holds
# 24 bytes per pair (174 KB at k = 121), so a larger cache only adds memory.
@functools.lru_cache(maxsize=2)
def pair_index(k):
    """Read-only ``(ii, jj, ii * k + jj)`` of the pairs ``i < j`` of ``k`` rows.

    ``ii, jj`` are ``np.triu_indices(k, 1)``; the third array indexes the
    same pairs in a flattened ``(k, k)`` matrix.
    """
    ii, jj = np.triu_indices(k, 1)
    index = (ii, jj, ii * k + jj)
    for a in index:
        a.setflags(write=False)
    return index


def pair_distances_vjp(x, mode, c, scratch=None):
    """Distances of all row pairs ``i < j`` of plain ``(..., k, d)`` rows.

    Returns ``(..., P)``, ``P = k(k-1)/2``, in ``np.triu_indices(k, 1)``
    order, and its VJP ``g -> g_x``; ``mode`` is ``"poincare"`` (curvature
    ``c``) or ``"l2"``.  Both modes work from the differences
    ``x[..., rows, None, :] - x[..., None, :, :]`` of ``PAIR_BLOCK_CELLS //
    x.size`` rows at a time (at least one), so close pairs stay accurate and
    identical rows give exactly 0 with zero gradient.  The VJP scatters the
    per-pair gradients into ``(..., k, k)`` matrices and contracts each block
    of their rows with that block's differences, made again.  Memory is
    ``O(k^2)`` per leading index plus a block, and every cell sums in the
    order of one whole ``(..., k, k, d)`` tensor, bit for bit.  ``scratch``,
    if given, is a ``(..., k, k)`` array with a zero diagonal that the VJP
    scatters into instead of allocating one; it rewrites every off-diagonal
    cell, so one array serves every call with the same shape.  The VJP runs
    once per forward pass: in Poincare mode it writes over the forward's
    per-pair arrays, which hold only what it reads.
    """
    k = x.shape[-2]
    ii, jj, flat = pair_index(k)
    step = max(1, PAIR_BLOCK_CELLS // x.size)

    def diffs(r):
        # x[..., rows, None, :] - x[..., None, :, :] with the same bits: each
        # row repeated k times, less x, runs one long inner loop, not k short ones
        diff = np.repeat(x[..., r:r + step, :], k, axis=-2).reshape(
            x.shape[:-2] + (-1,) + x.shape[-2:])
        diff -= x[..., None, :, :]
        return diff

    s = np.empty(x.shape[:-2] + ii.shape)
    for r in range(0, k, step):
        # the block's pairs, from row r's first in triu order to the next block's
        p0, p1 = (i * (2 * k - i - 1) // 2 for i in (r, min(r + step, k)))
        diff = diffs(r)
        # take keeps the pair axis C-ordered (indexing ``[..., flat]`` does
        # not), so the per-row reductions that follow sum in the same order
        # whatever the leading axes
        s[..., p0:p1] = np.einsum("...ijd,...ijd->...ij", diff, diff).reshape(
            x.shape[:-2] + (-1,)).take(flat[p0:p1] - r * k, axis=-1)
    # one block is kept for the VJP; several are made again there
    kept = diff if step >= k else None
    if mode == "l2":
        dist = np.sqrt(s)

        def back(g):
            return np.divide(0.5 * g, dist, out=np.zeros(s.shape), where=s > 0.0), None, None
    else:
        # each row's 1 - c||x||^2, gathered to both ends of its pairs
        a = 1.0 - c * np.einsum("...id,...id->...i", x, x)
        dist, back = _poincare_from_sq(s, a.take(ii, axis=-1), a.take(jj, axis=-1), c)

    def vjp(g):
        g_s, g_ni, g_nj = back(g)
        w = np.zeros(x.shape[:-1] + (k,)) if scratch is None else scratch
        w[..., ii, jj] = g_s
        w[..., jj, ii] = g_s
        g_x = np.empty(x.shape)
        for r in range(0, k, step):
            g_x[..., r:r + step, :] = np.einsum("...ij,...ijd->...id", w[..., r:r + step, :],
                                                diffs(r) if kept is None else kept)
        g_x *= 2.0
        if g_ni is not None:
            # row-norm term: row a collects dd/dn_a over every pair it is in
            w[..., ii, jj] = g_ni
            w[..., jj, ii] = g_nj
            g_x += (2.0 * w.sum(axis=-1))[..., None] * x
        return g_x

    return dist, vjp


def pair_distances(rows, mode, c):
    """:func:`pair_distances_vjp` on an array or a tape node; one node on the tape."""
    dist, vjp = pair_distances_vjp(ad.val(rows), mode, c)
    return ad.make_node(dist, (rows, vjp))
