"""Composed-op references for the fused tape operations.

These build the same values as ``geometry.exp0``, ``geometry.dist_rows`` and
``objective.cpcc_core`` out of elementary tape operations, one node per
step, so the tape derives their gradients.  The tests compare the fused
hand-written backward passes against them.  ``cpcc_core`` here reduces along
the last axis like the fused version.
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


def dist_rows(z1, z2, c):
    dots = ad.sum(z1 * z2, axis=-1)
    n1 = geo.sq_norm(z1)
    n2 = geo.sq_norm(z2)
    a = 1.0 - 2.0 * c * dots + c * n2
    b = 1.0 - c * n1
    num = ad.reshape(b, b.shape + (1,)) * z2 - ad.reshape(a, a.shape + (1,)) * z1
    den = ad.maximum(1.0 - 2.0 * c * dots + (c * c) * n1 * n2, geo._TINY_SQ)
    m = ad.sqrt(ad.maximum(geo.sq_norm(num), geo._TINY_SQ)) / den
    return (2.0 / np.sqrt(c)) * ad.atanh(np.sqrt(c) * m)


def cpcc_core(tree_dists, feat_dists):
    t, f = tree_dists, feat_dists
    td = t - ad.mean(t, axis=-1, keepdims=True)
    fd = f - ad.mean(f, axis=-1, keepdims=True)
    denom = ad.sqrt(ad.sum(td * td, axis=-1) * ad.sum(fd * fd, axis=-1))
    return ad.sum(td * fd, axis=-1) / denom
