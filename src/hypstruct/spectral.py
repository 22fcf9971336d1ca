"""Hierarchical block correlation matrices and their eigenspectra.

A class-ordered similarity matrix of perfectly structured features takes the
value ``r^h`` at entry (i, j), where ``h`` is the height of the lowest common
ancestor of the two samples' leaves.  For balanced trees the spectrum has a
closed form (``balanced_eigenvalues_closed_form``), derived by applying two
reductions level by level:

* a constant-correlation block of size d with off-diagonal p has eigenvalues
  ``1 + p(d-1)`` (once) and ``1 - p`` (d-1 times);
* a two-level block matrix splits into within-group eigenvalues ``1 - r_ii``
  and the spectrum of a small k x k matrix with ``a_ii = 1 + (p_i - 1) r_ii``
  and ``a_ij = sqrt(p_i p_j) r_ij``.

``numerical_eigenvalues`` computes spectra with LAPACK's symmetric solver
(``np.linalg.eigvalsh``); nothing in the closed forms feeds it.  The tests
check both against an independent cyclic Jacobi solver kept in
``tests/jacobi_oracle.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRow, NonFiniteMatrix, NotSymmetric, PreconditionViolated
from .hierarchy import LabelTree

MULTIPLICITY_RTOL = 1e-9
SYMMETRY_ATOL = 1e-12


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending eigenvalues with multiplicities."""

    values: tuple
    multiplicities: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "multiplicities", tuple(int(m) for m in self.multiplicities))
        if len(self.values) != len(self.multiplicities):
            raise ValueError("values and multiplicities must align")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        if any(b > a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be sorted descending")

    @property
    def order(self):
        return sum(self.multiplicities)

    def expand(self):
        """Full descending eigenvalue array (multiplicities unrolled)."""
        return np.concatenate([np.full(m, v) for v, m in
                               zip(self.values, self.multiplicities)])

    @classmethod
    def from_values(cls, values):
        """Group a descending value list, merging at 1e-9 relative spacing."""
        values = np.sort(np.asarray(values, dtype=np.float64))[::-1]
        groups = []
        counts = []
        for v in values:
            if groups and abs(groups[-1] - v) <= MULTIPLICITY_RTOL * max(1.0, abs(groups[-1])):
                counts[-1] += 1
            else:
                groups.append(float(v))
                counts.append(1)
        return cls(tuple(groups), tuple(counts))


def build_block_matrix(tree: LabelTree, r) -> np.ndarray:
    """K[i, j] = 1 on the diagonal, else r^(LCA height of leaves i and j).

    The tree's leaves are the samples; ``r[h-1]`` is the entry for pairs whose
    LCA has height ``h``, one value per level below the root.  The closed
    form's preconditions want ``r^1 >= r^2 >= ... >= r^H >= 0``; a violation
    warns.
    """
    heights = tree.leaf_lca_heights()
    r = tuple(float(x) for x in r)
    rs = r[:int(heights.max(initial=0))]
    if any(b > a for a, b in zip(rs, rs[1:])) or (rs and rs[-1] < 0):
        warnings.warn("r values are not descending nonnegative; "
                      "closed-form preconditions may not hold", stacklevel=2)
    return np.array((1.0, *r))[heights]


def balanced_eigenvalues_closed_form(level_counts, r) -> EigenSpectrum:
    """Closed-form spectrum for a balanced tree given leaf-first level counts.

    ``level_counts = (C_0, ..., C_H)``, a ``hierarchy.balanced_tree``'s counts
    reversed, with ``C_0`` the number of samples and ``C_H = 1`` the root;
    ``r = (r^1, ..., r^H)``.  Recurrence: ``C_0 - C_1`` eigenvalues ``1 - r^1``;
    at each higher height ``h`` the value grows by ``(r^h - r^{h+1}) C_0 / C_h``
    with multiplicity ``C_h - C_{h+1}``; the top eigenvalue adds ``C_0 r^H``.
    """
    counts = [int(c) for c in level_counts]
    r = [float(x) for x in r]
    H = len(counts) - 1
    if any(x < 0 for x in r):
        raise PreconditionViolated("closed form requires r^h >= 0 for all h")
    c0 = counts[0]
    values = []
    mults = []
    lam = 1.0 - r[0]
    values.append(lam)
    mults.append(counts[0] - counts[1])
    for h in range(1, H):
        lam = lam + (r[h - 1] - r[h]) * c0 / counts[h]
        values.append(lam)
        mults.append(counts[h] - counts[h + 1])
    lam = lam + c0 * r[H - 1]
    values.append(lam)
    mults.append(1)
    return EigenSpectrum.from_values(np.repeat(values, mults))


def numerical_eigenvalues(K) -> EigenSpectrum:
    """Spectrum of a symmetric matrix, multiplicities merged.

    Rejects non-square input, NaN or infinite entries and asymmetry beyond
    1e-12 (relative to the largest entry), then solves the symmetrised matrix
    with LAPACK (``np.linalg.eigvalsh``).
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {K.shape}")
    if not np.isfinite(K).all():
        raise NonFiniteMatrix("matrix has a NaN or infinite entry")
    if np.max(np.abs(K - K.T)) > SYMMETRY_ATOL * max(1.0, np.max(np.abs(K))):
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    sym = 0.5 * (K + K.T)
    return EigenSpectrum.from_values(np.linalg.eigvalsh(sym))


def class_sorted_order(labels, tree: LabelTree) -> np.ndarray:
    """Sample order sorted by (coarse group, fine class, original index)."""
    labels = np.asarray(labels, dtype=np.int64)
    return np.lexsort((np.arange(labels.size), labels, tree.coarse_labels(labels)))


def gram_matrix(Z, labels, tree: LabelTree) -> np.ndarray:
    """Class-ordered similarity matrix of centered, row-normalized features."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 2:
        raise ValueError("need an (n >= 2, d) feature matrix")
    order = class_sorted_order(labels, tree)
    X = Z[order] - Z.mean(axis=0)
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateRow("a row is zero after centering")
    X = X / norms[:, None]
    return X @ X.T


def phase_transition_detect(spectrum: EigenSpectrum, top_k: int):
    """Positions of the largest relative drops among the top eigenvalues.

    Returns ``[(position, drop), ...]`` sorted by descending drop, where
    ``position`` counts eigenvalues before the gap (1-based) and
    ``drop = (lam_i - lam_{i+1}) / lam_i``; drops below 1e-9 are dropped.
    """
    full = spectrum.expand()
    if full.size < 2:
        raise ValueError("need at least two eigenvalues")
    upto = min(int(top_k), full.size - 1)
    hits = []
    for i in range(upto):
        lam, nxt = full[i], full[i + 1]
        if abs(lam) < 1e-300:
            continue
        drop = (lam - nxt) / lam
        if drop > 1e-9:
            hits.append((i + 1, float(drop)))
    hits.sort(key=lambda t: (-t[1], t[0]))
    return hits
