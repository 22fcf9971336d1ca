"""Cyclic Jacobi eigensolver, the independent oracle for the spectral tests.

``spectral.numerical_eigenvalues`` uses LAPACK (``np.linalg.eigvalsh``); this
pure-Python rotation loop shares no code with it or with the closed forms,
so the tests check all three against each other on small matrices.
"""

import numpy as np


def jacobi_eigenvalues(K, tol=1e-12, max_sweeps=100) -> np.ndarray:
    """All eigenvalues of a symmetric matrix via cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below ``tol * ||K||_F``.
    Independent of any closed form; this is the package's numerical oracle.
    """
    a = np.array(K, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    norm0 = np.linalg.norm(a)
    if norm0 == 0.0:
        return np.zeros(n)
    target = tol * norm0
    for _ in range(max_sweeps):
        off = np.sqrt(max(0.0, np.linalg.norm(a) ** 2 - np.sum(np.diag(a) ** 2)))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(np.diag(a))[::-1]
