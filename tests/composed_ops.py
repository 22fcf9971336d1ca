"""Composed-op references for the fused tape operations.

These build the same values as ``geometry.exp0``, ``geometry.dist_rows``,
``geometry.pair_distances`` and ``objective.cpcc_core`` out of elementary
tape operations, one node per step, so the tape derives their gradients.  The
tests compare the fused hand-written backward passes against them; the
value-only ``geometry.dist_rows`` is compared by value.
``cpcc_core`` here reduces along the last axis like the fused version.
``log0``, the inverse of ``exp0``, and ``poincare_midpoint``, one Poincare
prototype from the Klein round trip, serve the round-trip and per-class
reference tests.
"""

import numpy as np

from hypstruct import autodiff as ad
from hypstruct import geometry as geo


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
    return (ad.atanh(a) / a) * u


def poincare_midpoint(rows, c):
    """Einstein midpoint of Poincare ``(n, d)`` rows, mapped back to the ball."""
    rows = np.asarray(rows, dtype=np.float64)
    everyone = np.ones((1, rows.shape[0]))
    return geo.to_poincare(geo.einstein_mid(geo.to_klein(rows, c), c, everyone), c)[0]


def dist_rows(z1, z2, c):
    diff = z1 - z2
    s = geo.sq_norm(diff)
    den = ad.maximum((1.0 - c * geo.sq_norm(z1)) * (1.0 - c * geo.sq_norm(z2)) + c * s,
                     geo._TINY_SQ)
    m = ad.sqrt(ad.maximum(s / den, geo._TINY_SQ))
    return (2.0 / np.sqrt(c)) * ad.atanh(np.sqrt(c) * m)


def pair_distances(rows, mode, c=1.0):
    # gather both ends of every i < j pair, then the paired distance
    ii, jj = np.triu_indices(ad.val(rows).shape[-2], 1)
    z1, z2 = ad.take(rows, ii, axis=-2), ad.take(rows, jj, axis=-2)
    if mode == "poincare":
        return dist_rows(z1, z2, c)
    return ad.sqrt(ad.maximum(geo.sq_norm(z1 - z2), geo._TINY_SQ))


def cpcc_core(tree_dists, feat_dists):
    t, f = tree_dists, feat_dists
    td = t - ad.mean(t, axis=-1, keepdims=True)
    fd = f - ad.mean(f, axis=-1, keepdims=True)
    denom = ad.sqrt(ad.sum(td * td, axis=-1) * ad.sum(fd * fd, axis=-1))
    return ad.sum(td * fd, axis=-1) / denom
