import csv
import tracemalloc

import numpy as np
import pytest

from hypstruct import autodiff as ad
from hypstruct import cli


def central_difference(fn, params, step=1e-5):
    """Independent finite-difference gradient oracle for scalar functions."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        hi = params.copy()
        lo = params.copy()
        hi.flat[i] += step
        lo.flat[i] -= step
        grad.flat[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return grad


def weighted_grad(fn, x, weights):
    """Tape gradient of ``sum(fn(x) * weights)`` with respect to ``x``."""
    leaf = ad.Node(x)
    return ad.grad(ad.sum(fn(leaf) * weights), [leaf])[0]


def gradient(closure, params, *, return_nondifferentiable=False):
    """Exact gradient of ``closure(params)`` via the reverse-mode tape.

    ``closure`` must map a parameter Node (same shape as ``params``) to a
    scalar Node.  With ``return_nondifferentiable=True`` also returns whether
    a clip branch or atanh clamp fired during the forward pass, in which case
    the clamp was treated as a constant.
    """
    params = np.asarray(params, dtype=np.float64)
    before = event_totals()
    leaf = ad.Node(params)
    out = closure(leaf)
    if not ad.is_node(out):
        raise TypeError("closure must return a tape Node; did it detach the parameters?")
    g = ad.grad(out, [leaf])[0]
    if return_nondifferentiable:
        return g, event_totals() != before
    return g


def event_totals():
    """The cumulative atanh-clamp and ball-clip counts, for before/after checks."""
    return ad.total_atanh_clamps(), ad.total_clip_rescales()


def save_dataset_csv(path, dataset, tree):
    """CSV with header label,f0,...,f{d-1}; labels are leaf names.

    The format the CLI's ``{"csv": path}`` datasets read back.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(dataset.dim)])
        for row, lab in zip(dataset.features, dataset.labels):
            writer.writerow([tree.names[tree.leaf_of_class(int(lab))]]
                            + [cli.float_text(x) for x in row])


def traced_peak_mb(fn, *args, **kwargs):
    """Peak traced allocation of ``fn(*args, **kwargs)`` in MB, above what was
    live when it started; the returned value counts while it is alive."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture
def fd_oracle():
    return central_difference
