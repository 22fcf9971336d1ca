"""The direct sampled-δ formula, the oracle for ``diagnostics._delta_sampled``.

``_delta_sampled`` draws its quadruples in 32-bit pieces, stores three of the
four rows in a narrow type, gathers each of a quadruple's six distances once
and halves only each block's maximum.  This function draws each chunk with one
default int64 ``integers`` call and evaluates the three Gromov products with
nine gathers, so the tests check that the fast form gives the same δ bit for
bit.
"""

import numpy as np


def nine_gather_delta_sampled(d, k, seed):
    """Reference sampled estimator: the direct formula, nine gathers per quadruple."""
    n = d.shape[0]
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = int(k)
    while remaining > 0:
        take = min(1_000_000, remaining)
        remaining -= take
        w, x, y, z = rng.integers(0, n, size=(4, take))
        gxy = 0.5 * (d[w, x] + d[w, y] - d[x, y])
        gyz = 0.5 * (d[w, y] + d[w, z] - d[y, z])
        gxz = 0.5 * (d[w, x] + d[w, z] - d[x, z])
        vals = np.minimum(gxy, gyz) - gxz
        best = max(best, float(vals.max(initial=0.0)))
    return best
