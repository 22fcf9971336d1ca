"""Weighted rooted label trees, tree metrics, and LCA queries.

Vertices are integer ids assigned in document (preorder) order; the leaf order
induced by the document is the canonical fine-class order used everywhere
downstream (CPCC pair enumeration, block matrices, dataset labels).

Each tree holds one vertex x vertex ancestor matrix ``A`` (``A[v, a] = 1``
iff ``a`` is ``v`` or an ancestor of ``v``).  The tree metric, the
vertex x class membership matrix, the class-pair LCA depths and the coarse
labels are all products or slices of it.

The on-disk hierarchy format is JSON::

    {"name": "root", "children": [
        {"name": "fruit", "weight": 1, "children": [
            {"name": "apple", "weight": 1}, ...]},
        ...]}

``weight`` is the weight of the edge to the parent and must be absent on the
root; nodes without children are leaves.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidLevelCounts, NotALeaf, ParseError, ValidationError


class LabelTree:
    """Immutable weighted rooted tree over named class vertices."""

    def __init__(self, names, parent, weights, leaf_classes=None):
        """Build and validate a tree.

        names: vertex names, index = vertex id.
        parent: per-vertex parent id, None exactly on the root.
        weights: per-vertex weight of the edge to the parent (ignored on root).
        leaf_classes: optional leaf vertex ids in fine-class order; defaults to
            the leaves in vertex-id order and must cover exactly the leaves.
        """
        self.names = list(names)
        self.parent = list(parent)
        n = len(self.names)
        if len(self.parent) != n or len(weights) != n:
            raise ValidationError("names, parent and weights must have equal length")
        if len(set(self.names)) != n:
            raise ValidationError("vertex names must be unique")

        roots = [i for i, p in enumerate(self.parent) if p is None]
        if len(roots) != 1:
            raise ValidationError(f"expected a single root, found {len(roots)}")
        self.root = roots[0]

        self.weights = [0.0 if p is None else float(w) for p, w in zip(self.parent, weights)]
        for i, (p, w) in enumerate(zip(self.parent, self.weights)):
            if p is None:
                continue
            if not (0 <= p < n):
                raise ValidationError(f"orphan vertex {self.names[i]}: parent id {p} out of range")
            if not (w > 0.0):
                raise ValidationError(f"nonpositive weight {w} on edge {self.names[i]} -> parent")

        # depth computation doubles as cycle/orphan detection
        self._depth = [-1] * n
        for i in range(n):
            chain = []
            v = i
            while self._depth[v] < 0:
                chain.append(v)
                p = self.parent[v]
                if p is None:
                    self._depth[v] = 0
                    chain.pop()
                    break
                if p in chain or len(chain) > n:
                    raise ValidationError("cycle detected in parent map")
                v = p
            base = self._depth[v]
            for k, u in enumerate(reversed(chain)):
                self._depth[u] = base + k + 1

        self._children = [[] for _ in range(n)]
        for i, p in enumerate(self.parent):
            if p is not None:
                self._children[p].append(i)

        leaves = [i for i in range(n) if not self._children[i]]
        if leaf_classes is None:
            leaf_classes = leaves
        if sorted(leaf_classes) != sorted(leaves):
            raise ValidationError("leaf_classes must cover exactly the leaves")
        self.leaf_classes = list(leaf_classes)
        self._id_of_name = {nm: i for i, nm in enumerate(self.names)}

        # ancestors[v, a] = 1 iff a is v or an ancestor of v.  Rows are filled
        # in depth order, so each parent's row is complete before its children
        # copy it (a parent may have a larger id than its children, so id
        # order would not do).
        ancestors = np.zeros((n, n))
        for v in sorted(range(n), key=self._depth.__getitem__):
            if v != self.root:
                ancestors[v] = ancestors[self.parent[v]]
            ancestors[v, v] = 1.0
        ancestors.setflags(write=False)
        self.ancestors = ancestors

        # membership[v, k] = 1 iff fine class k is a leaf under vertex v
        self.membership = np.ascontiguousarray(ancestors[self.leaf_classes].T)
        self.membership.setflags(write=False)
        # fine class of each vertex (-1 for internal vertices); lca_height's
        # class-pair LCA depths are built on its first call
        self._leaf_class = np.full(n, -1, dtype=np.int64)
        self._leaf_class[self.leaf_classes] = np.arange(self.n_classes)
        self._class_lca_depth = None
        # depth-1 ancestor of each fine class; a leaf at depth <= 1 is its own
        # (only a one-vertex tree has a leaf at depth 0, and argmax gives it)
        at_depth_one = np.array(self._depth) == 1
        self._coarse_of_class = (ancestors[self.leaf_classes] * at_depth_one).argmax(axis=1)

    # basic queries

    @property
    def n_vertices(self):
        return len(self.names)

    @property
    def n_classes(self):
        return len(self.leaf_classes)

    def is_leaf(self, v):
        return not self._children[v]

    def depth(self, v):
        return self._depth[v]

    def id_of(self, name):
        try:
            return self._id_of_name[name]
        except KeyError:
            raise ValidationError(f"unknown vertex name {name!r}") from None

    def class_index(self, leaf):
        if not self.is_leaf(leaf):
            raise NotALeaf(f"{self.names[leaf]} is not a leaf")
        return int(self._leaf_class[leaf])

    def leaf_of_class(self, k):
        return self.leaf_classes[k]

    def coarse_labels(self, labels):
        """Depth-1 ancestor vertex of each fine-class label: the coarse class."""
        return self._coarse_of_class[np.asarray(labels, dtype=np.int64)]

    def lca_height(self, leaf_i, leaf_j):
        """Height (levels above the leaf layer) of the LCA of two leaves.

        ``leaf_i`` and ``leaf_j`` are leaf vertex ids or integer arrays of them,
        broadcast against each other; scalar ids give an ``int``.  The common
        ancestors of two leaves are the root-to-LCA path, so
        ``membership.T @ membership - 1`` (built on first use) is the LCA depth
        of every pair of fine classes.
        """
        if self._class_lca_depth is None:
            lca_depth = (self.membership.T @ self.membership).astype(np.int64) - 1
            lca_depth.setflags(write=False)
            self._class_lca_depth = lca_depth
        ci, cj = self._leaf_class[leaf_i], self._leaf_class[leaf_j]
        for leaf, c in ((leaf_i, ci), (leaf_j, cj)):
            if np.any(c < 0):
                bad = int(np.asarray(leaf)[c < 0].flat[0])
                raise NotALeaf(f"{self.names[bad]} is not a leaf")
        depth = np.diagonal(self._class_lca_depth)
        h = np.maximum(depth[ci], depth[cj]) - self._class_lca_depth[ci, cj]
        return int(h) if h.ndim == 0 else h

    def leaf_lca_heights(self):
        """``(n_classes, n_classes)`` int matrix of ``lca_height`` between the
        leaves of fine classes i and j (0 on the diagonal)."""
        leaves = np.array(self.leaf_classes)
        return self.lca_height(leaves[:, None], leaves[None, :])

    def serialize(self):
        """JSON document whose parse yields an identical tree."""
        return json.dumps(self._nested(self.root), indent=2)

    def _nested(self, v):
        node = {"name": self.names[v]}
        if self.parent[v] is not None:
            node["weight"] = self.weights[v]
        if self._children[v]:
            node["children"] = [self._nested(u) for u in self._children[v]]
        return node


def tree_metric(tree: LabelTree) -> np.ndarray:
    """Read-only vertex x vertex float64 matrix of the weighted path lengths
    ``h(u) + h(v) - 2 h(lca(u, v))``.

    ``S = (A w) A^T`` sums the parent-edge weights of the common ancestors of
    u and v, so ``S[u, v]`` is the weighted depth of their LCA and
    ``h = diag(S)``.  S is symmetrised because BLAS need not sum ``S[u, v]``
    and ``S[v, u]`` in one order; the diagonal is then exactly zero.
    """
    a = tree.ancestors
    s = (a * np.asarray(tree.weights)) @ a.T
    s = 0.5 * (s + s.T)
    h = np.diagonal(s)
    dist = h[:, None] + h[None, :] - 2.0 * s
    dist.setflags(write=False)
    return dist


def balanced_tree(level_counts) -> LabelTree:
    """Balanced tree from root-first level counts, e.g. (1, 2, 4).

    ``level_counts[0]`` must be 1 (the root) and each count must divide the
    next; edge weights are 1.
    """
    counts = [int(c) for c in level_counts]
    if len(counts) < 2:
        raise InvalidLevelCounts("need at least a root level and a leaf level")
    if counts[0] != 1:
        raise InvalidLevelCounts("the root level count must be 1")
    for a, b in zip(counts, counts[1:]):
        if a < 1 or b < 1 or b % a != 0:
            raise InvalidLevelCounts(f"{a} does not divide {b}")

    names = ["root"]
    parent = [None]
    weights = [0.0]
    level_ids = [[0]]
    n_levels = len(counts)
    for lvl in range(1, n_levels):
        fanout = counts[lvl] // counts[lvl - 1]
        ids = []
        for j in range(counts[lvl]):
            vid = len(names)
            if lvl == n_levels - 1:
                names.append(f"leaf_{j}")
            else:
                names.append(f"n{lvl}_{j}")
            parent.append(level_ids[lvl - 1][j // fanout])
            weights.append(1.0)
            ids.append(vid)
        level_ids.append(ids)
    return LabelTree(names, parent, weights)


def parse_tree(text: str) -> LabelTree:
    """Parse the JSON hierarchy format; document order fixes the leaf order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    names, parent, weights = [], [], []

    def walk(node, parent_id):
        if not isinstance(node, dict) or "name" not in node:
            raise ValidationError("every node must be an object with a 'name'")
        vid = len(names)
        names.append(str(node["name"]))
        parent.append(parent_id)
        if parent_id is None:
            if "weight" in node:
                raise ValidationError("the root must not carry a weight")
            weights.append(0.0)
        else:
            w = node.get("weight", 1.0)
            if not isinstance(w, (int, float)) or not (w > 0):
                raise ValidationError(f"nonpositive weight {w!r} on {node['name']!r}")
            weights.append(float(w))
        for child in node.get("children", []) or []:
            walk(child, vid)

    walk(doc, None)
    return LabelTree(names, parent, weights)


def builtin_cifar10_tree() -> LabelTree:
    """The 13-vertex toy hierarchy: transportation and animal coarse groups."""
    doc = {
        "name": "root",
        "children": [
            {"name": "transportation", "weight": 1, "children": [
                {"name": "airplane", "weight": 1},
                {"name": "automobile", "weight": 1},
                {"name": "ship", "weight": 1},
                {"name": "truck", "weight": 1},
            ]},
            {"name": "animal", "weight": 1, "children": [
                {"name": "bird", "weight": 1},
                {"name": "cat", "weight": 1},
                {"name": "deer", "weight": 1},
                {"name": "dog", "weight": 1},
                {"name": "frog", "weight": 1},
                {"name": "horse", "weight": 1},
            ]},
        ],
    }
    return parse_tree(json.dumps(doc))
