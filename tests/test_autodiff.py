"""Operator-level gradient checks for the reverse-mode tape."""

import numpy as np
import pytest

from hypstruct import autodiff as ad

import composed_ops as composed
from conftest import central_difference


def tape_grad(fn, x):
    leaf = ad.Node(np.asarray(x, dtype=np.float64))
    out = fn(leaf)
    return ad.grad(out, [leaf])[0]


def check(fn, x, atol=1e-8, rtol=1e-6):
    got = tape_grad(fn, x)
    want = central_difference(lambda v: float(ad.val(fn(ad.Node(v)))), x)
    np.testing.assert_allclose(got, want, atol=atol, rtol=rtol)


rng = np.random.default_rng(42)


def test_add_mul_broadcast():
    b = rng.standard_normal((1, 4))
    check(lambda x: ad.sum(x * 2.0 + b), rng.standard_normal((3, 4)))
    check(lambda x: ad.sum((x + 1.5) * (x - 0.5)), rng.standard_normal(5))


def square(x):
    return x * x


def test_div():
    check(lambda x: ad.sum(1.0 / (x * x + 2.0)), rng.standard_normal(6))


def test_matmul_transpose():
    a = rng.standard_normal((3, 4))

    def fn(m):
        return ad.sum(ad.matmul(a, m) * ad.transpose(ad.matmul(ad.transpose(m), ad.transpose(a))))

    check(fn, rng.standard_normal((4, 2)))


def test_sum_axes_and_mean():
    check(lambda x: ad.sum(square(ad.sum(x, axis=0))), rng.standard_normal((3, 4)))
    check(lambda x: ad.sum(ad.sum(x, axis=1, keepdims=True) * x), rng.standard_normal((3, 4)))
    check(lambda x: ad.mean(x * x), rng.standard_normal((2, 5)))


def test_unary_functions():
    check(lambda x: ad.sum(ad.tanh(x)), rng.standard_normal(5))
    check(lambda x: ad.sum(ad.exp(x * 0.3)), rng.standard_normal(5))
    check(lambda x: ad.sum(ad.log(x)), rng.uniform(0.5, 2.0, 5))
    check(lambda x: ad.sum(ad.sqrt(x)), rng.uniform(0.5, 2.0, 5))
    check(lambda x: ad.sum(composed.atanh(x)), rng.uniform(-0.8, 0.8, 5))


def test_atanh_clamps_and_flags():
    before = ad.total_atanh_clamps()
    y = composed.atanh(np.array([0.5, 1.0 - 1e-16]))
    assert np.isfinite(y).all()
    assert ad.total_atanh_clamps() == before + 1
    # gradient through the clamped entry is zero
    g = tape_grad(lambda x: ad.sum(composed.atanh(x)), np.array([0.5, 1.0 - 1e-16]))
    assert g[1] == 0.0
    assert g[0] == pytest.approx(1.0 / (1.0 - 0.25))


def test_take_and_gather():
    idx = np.array([0, 2, 2, 1])
    check(lambda x: ad.sum(square(ad.take(x, idx))), rng.standard_normal((3, 2)))
    cols = np.array([1, 0, 1])
    check(lambda x: ad.sum(square(ad.gather_cols(x, cols))), rng.standard_normal((3, 2)))


def test_take_along_axis():
    idx = np.array([0, 2, 2, 1])
    x = rng.standard_normal((2, 3, 2))
    check(lambda v: ad.sum(square(ad.take(v, idx, axis=1))), x)
    np.testing.assert_array_equal(ad.take(x, idx, axis=1), x[:, idx])
    # C order, so a reduction along the last axis sums each row as unbatched
    assert ad.take(ad.Node(x), idx, axis=1).value.flags.c_contiguous


def test_where_maximum_slice():
    mask = np.array([True, False, True])
    check(lambda x: ad.sum(ad.where(mask, x * 3.0, x * 0.5)), rng.standard_normal(3))
    check(lambda x: ad.sum(square(ad.maximum(x, 0.2))), rng.standard_normal(6))
    check(lambda x: ad.sum(square(ad.take(x, np.arange(1, 4)))), rng.standard_normal(6))


_operands = np.random.default_rng(7)
A, B = _operands.standard_normal((2, 3, 4))
POSITIVE = np.abs(A) + 0.5
MASK = A > B
COLS = np.array([3, 0, 1])

# name -> (operator, the numpy expression it computes, operands)
OPERATORS = {
    "add": (ad.add, np.add, (A, B)),
    "sub": (ad.sub, np.subtract, (A, B)),
    "mul": (ad.mul, np.multiply, (A, B)),
    "div": (ad.div, np.divide, (A, POSITIVE)),
    "matmul": (ad.matmul, np.matmul, (A, B.T)),
    "transpose": (ad.transpose, np.transpose, (A,)),
    "sum": (lambda a: ad.sum(a, axis=-1), lambda a: np.sum(a, axis=-1), (A,)),
    "sum_keepdims": (lambda a: ad.sum(a, axis=(0, 1), keepdims=True),
                     lambda a: np.sum(a, axis=(0, 1), keepdims=True), (A,)),
    "tanh": (ad.tanh, np.tanh, (A,)),
    "exp": (ad.exp, np.exp, (A,)),
    "log": (ad.log, np.log, (POSITIVE,)),
    "sqrt": (ad.sqrt, np.sqrt, (POSITIVE,)),
    "maximum": (ad.maximum, np.maximum, (A, B)),
    "where": (lambda a, b: ad.where(MASK, a, b), lambda a, b: np.where(MASK, a, b), (A, B)),
    "take": (lambda a: ad.take(a, [2, 0, 2], axis=1),
             lambda a: np.take(a, [2, 0, 2], axis=1), (A,)),
    "gather_cols": (lambda a: ad.gather_cols(a, COLS), lambda a: a[np.arange(3), COLS], (A,)),
}


@pytest.mark.parametrize("name", list(OPERATORS))
def test_one_path_for_plain_and_tape_operands(name):
    # one code path: plain operands give the plain numpy value, bit for bit,
    # and tape operands give a node holding the same bits
    op, numpy_op, operands = OPERATORS[name]
    plain = op(*operands)
    want = numpy_op(*operands)
    assert type(plain) is np.ndarray
    assert (plain.dtype, plain.shape, plain.tobytes()) == (want.dtype, want.shape, want.tobytes())
    node = op(*map(ad.Node, operands))
    assert isinstance(node, ad.Node)
    assert node.value.tobytes() == want.tobytes()


@pytest.mark.parametrize("wrap", [np.asarray, ad.Node], ids=["plain", "node"])
def test_matmul_takes_2d_operands_only(wrap):
    with pytest.raises(ValueError, match="2-D"):
        ad.matmul(wrap(A[0]), wrap(B.T))
    with pytest.raises(ValueError, match="2-D"):
        ad.matmul(wrap(A), wrap(np.stack([B.T, B.T])))


def test_sum_backward_over_negative_and_tuple_axes():
    x = np.random.default_rng(8).standard_normal((2, 3, 4))
    check(lambda v: ad.sum(square(ad.sum(v, axis=-1))), x)
    check(lambda v: ad.sum(square(ad.sum(v, axis=(0, -1)))), x)
    check(lambda v: ad.sum(ad.sum(v, axis=(-2, 0), keepdims=True) * v), x)


def test_grad_requires_scalar():
    leaf = ad.Node(np.ones(3))
    with pytest.raises(ValueError):
        ad.grad(leaf * 2.0, [leaf])


def test_untouched_leaf_gets_zero_grad():
    a = ad.Node(np.ones(2))
    b = ad.Node(np.ones(2))
    out = ad.sum(a * 3.0)
    ga, gb = ad.grad(out, [a, b])
    np.testing.assert_allclose(ga, 3.0)
    np.testing.assert_allclose(gb, 0.0)


def test_diamond_graph_accumulates():
    # f(x) = sum(x*x + x*x) must give 4x, each branch contributing 2x
    g = tape_grad(lambda x: ad.sum(x * x + x * x), np.array([1.0, -2.0]))
    np.testing.assert_allclose(g, [4.0, -8.0])
