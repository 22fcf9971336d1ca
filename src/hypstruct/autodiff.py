"""Small reverse-mode tape over numpy arrays.

Every operation here accepts either a plain ``numpy`` array (returning a plain
array, no overhead beyond an ``isinstance`` check) or a :class:`Node`
(returning a ``Node`` that remembers how to push gradients back).  Writing the
numerical core of the package in terms of these functions gives one code path
for both plain evaluation and differentiation.

Boundary handling: the Poincare distance clamps its atanh argument to
``ATANH_MAX`` before evaluation, and the ball clip used by the geometry layer
reports when its rescale branch fires.  Both kinds of event are counted in
cumulative module-level counters (``record_atanh_clamps``,
``record_clip_rescales``); a caller that compares ``total_atanh_clamps()``
and ``total_clip_rescales()`` before and after a gradient can tell whether it
crossed a non-smooth point.  The package is single-threaded; the counters
are not guarded against concurrent use.

Fused operations (the exponential map, the all-pairs distance kernel, CPCC)
are written once, in value-and-VJP form: a function of plain arrays that
returns its value and a hand-written vector-Jacobian product.  On the tape
such a function is one node, built by :func:`make_node` over that VJP,
instead of one node per elementary step; off the tape the same function
gives the value, and a caller may chain the VJPs itself.  Each fused node
has one parent on the tape: training differentiates with respect to the
features only, so tree distances enter as constants.
"""

from __future__ import annotations

import numpy as np

ATANH_MAX = 1.0 - 1e-15

# Cumulative process-wide counts of non-smooth branch activations (never
# reset): a caller reads a total before and after a computation.
_atanh_clamps = 0
_clip_rescales = 0


def total_atanh_clamps():
    """Cumulative process-wide count of atanh boundary clamps."""
    return _atanh_clamps


def total_clip_rescales():
    """Cumulative process-wide count of rows rescaled by the ball clip."""
    return _clip_rescales


def record_atanh_clamps(count):
    """Called by the geometry layer for each batch of clamped atanh arguments."""
    global _atanh_clamps
    _atanh_clamps += count


def record_clip_rescales(count):
    """Called by the geometry clip when its rescale branch fires."""
    global _clip_rescales
    _clip_rescales += count


class Node:
    """A value in the computation graph.

    ``parents`` is a tuple of ``(node, vjp)`` pairs where ``vjp`` maps the
    output gradient to that parent's gradient contribution.
    """

    __slots__ = ("value", "parents")

    # defer numpy binary operators to this class's reflected methods
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


def is_node(x):
    return isinstance(x, Node)


def val(x):
    """Underlying numpy value of ``x`` whether or not it is a Node."""
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def detach(x):
    """Constant copy of ``x``; gradients do not flow through it."""
    return np.array(val(x))


def unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (the reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def make_node(value, *pairs):
    """Node of ``value`` over ``(parent, vjp)`` pairs, keeping only Node parents.

    ``vjp`` maps the output gradient to that parent's gradient contribution;
    fused operations use this to put one node on the tape.  With no Node
    parent, ``value`` itself is returned: nothing is on the tape.
    """
    parents = tuple((p, vjp) for p, vjp in pairs if isinstance(p, Node))
    return Node(value, parents) if parents else value


def add(a, b):
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.add(val(a), val(b))
    va, vb = val(a), val(b)
    return make_node(va + vb,
                     (a, lambda g, s=va.shape: unbroadcast(g, s)),
                     (b, lambda g, s=vb.shape: unbroadcast(g, s)))


def sub(a, b):
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.subtract(val(a), val(b))
    va, vb = val(a), val(b)
    return make_node(va - vb,
                     (a, lambda g, s=va.shape: unbroadcast(g, s)),
                     (b, lambda g, s=vb.shape: unbroadcast(-g, s)))


def mul(a, b):
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.multiply(val(a), val(b))
    va, vb = val(a), val(b)
    return make_node(va * vb,
                     (a, lambda g, o=vb, s=va.shape: unbroadcast(g * o, s)),
                     (b, lambda g, o=va, s=vb.shape: unbroadcast(g * o, s)))


def div(a, b):
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.divide(val(a), val(b))
    va, vb = val(a), val(b)
    out = va / vb
    return make_node(out,
                     (a, lambda g, o=vb, s=va.shape: unbroadcast(g / o, s)),
                     (b, lambda g, o=vb, y=out, s=vb.shape: unbroadcast(-g * y / o, s)))


def matmul(a, b):
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.matmul(val(a), val(b))
    va, vb = val(a), val(b)
    if va.ndim != 2 or vb.ndim != 2:
        raise ValueError("matmul on the tape supports 2-D operands only")
    return make_node(va @ vb,
                     (a, lambda g, o=vb: g @ o.T),
                     (b, lambda g, o=va: o.T @ g))


def transpose(a):
    if not isinstance(a, Node):
        return np.transpose(val(a))
    return make_node(a.value.T, (a, lambda g: g.T))


def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    if not isinstance(a, Node):
        return np.sum(val(a), axis=axis, keepdims=keepdims)
    va = a.value

    def vjp(g, shape=va.shape):
        if axis is None:
            gg = np.asarray(g).reshape((1,) * len(shape))
            return np.broadcast_to(gg, shape).copy()
        gg = g
        if not keepdims:
            ax = axis if isinstance(axis, tuple) else (axis,)
            for i in sorted(a % len(shape) for a in ax):
                gg = np.expand_dims(gg, i)
        return np.broadcast_to(gg, shape).copy()

    return make_node(np.sum(va, axis=axis, keepdims=keepdims), (a, vjp))


def mean(a, axis=None, keepdims=False):
    va = val(a)
    if axis is None:
        n = va.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for i in ax:
            n *= va.shape[i]
    return sum(a, axis=axis, keepdims=keepdims) / float(n)


def tanh(a):
    if not isinstance(a, Node):
        return np.tanh(val(a))
    y = np.tanh(a.value)
    return make_node(y, (a, lambda g, yy=y: g * (1.0 - yy * yy)))


def exp(a):
    if not isinstance(a, Node):
        return np.exp(val(a))
    y = np.exp(a.value)
    return make_node(y, (a, lambda g, yy=y: g * yy))


def log(a):
    if not isinstance(a, Node):
        return np.log(val(a))
    va = a.value
    return make_node(np.log(va), (a, lambda g, x=va: g / x))


def sqrt(a):
    if not isinstance(a, Node):
        return np.sqrt(val(a))
    y = np.sqrt(a.value)
    return make_node(y, (a, lambda g, yy=y: g / (2.0 * yy)))


def maximum(a, b):
    """Elementwise max; ties route the gradient to the first operand."""
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.maximum(val(a), val(b))
    va, vb = val(a), val(b)
    take_a = va >= vb
    return make_node(np.maximum(va, vb),
                     (a, lambda g, m=take_a, s=va.shape: unbroadcast(np.where(m, g, 0.0), s)),
                     (b, lambda g, m=take_a, s=vb.shape: unbroadcast(np.where(m, 0.0, g), s)))


def where(cond, a, b):
    """Select by a constant boolean mask."""
    cond = np.asarray(cond, dtype=bool)
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return np.where(cond, val(a), val(b))
    va, vb = val(a), val(b)
    return make_node(np.where(cond, va, vb),
                     (a, lambda g, m=cond, s=va.shape: unbroadcast(np.where(m, g, 0.0), s)),
                     (b, lambda g, m=cond, s=vb.shape: unbroadcast(np.where(m, 0.0, g), s)))


def take(a, indices, axis=0):
    """Gather along ``axis`` (rows by default); the backward pass scatter-adds."""
    idx = np.asarray(indices)
    # np.take returns a C-ordered array, so later reductions along the last
    # axis sum in the same order whatever the leading axes
    if not isinstance(a, Node):
        return np.take(val(a), idx, axis=axis)
    va = a.value

    def vjp(g, shape=va.shape, key=(slice(None),) * (axis % va.ndim) + (idx,)):
        out = np.zeros(shape)
        np.add.at(out, key, g)
        return out

    return make_node(np.take(va, idx, axis=axis), (a, vjp))


def gather_cols(a, cols):
    """Pick one column per row: ``out[i] = a[i, cols[i]]``."""
    cols = np.asarray(cols)
    if not isinstance(a, Node):
        va = val(a)
        return va[np.arange(va.shape[0]), cols]
    va = a.value
    rows = np.arange(va.shape[0])

    def vjp(g, shape=va.shape, rr=rows, cc=cols):
        out = np.zeros(shape)
        np.add.at(out, (rr, cc), g)
        return out

    return make_node(va[rows, cols], (a, vjp))


def grad(out, wrt):
    """Gradients of a scalar Node ``out`` with respect to ``wrt`` leaves.

    Returns a list aligned with ``wrt``; leaves the graph did not touch get
    zero gradients.
    """
    if not isinstance(out, Node):
        raise TypeError("output is not a Node; nothing to differentiate")
    if out.value.ndim != 0 and out.value.size != 1:
        raise ValueError("grad expects a scalar output")

    topo = []
    seen = set()
    stack = [(out, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads = {id(out): np.ones_like(out.value)}
    for node in reversed(topo):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            contribution = vjp(g)
            acc = grads.get(id(parent))
            grads[id(parent)] = contribution if acc is None else acc + contribution

    results = []
    for leaf in wrt:
        g = grads.get(id(leaf))
        results.append(np.zeros_like(leaf.value) if g is None else g)
    return results
