import numpy as np
import pytest

from hypstruct import autodiff as ad


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


@pytest.fixture
def fd_oracle():
    return central_difference


@pytest.fixture(autouse=True)
def _reset_tape_events():
    ad.reset_events()
    yield
