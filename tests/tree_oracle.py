"""Per-vertex walks over the parent map, the oracle for the ancestor-matrix tests.

``hierarchy`` derives the tree metric, the membership matrix and the coarse
labels from one ancestor matrix.  These loops share no code with it: a
traversal from every vertex, a depth-first collection of each subtree's
classes and a parent walk to the depth-1 ancestor.
"""

import numpy as np


def children_of(tree):
    kids = [[] for _ in range(tree.n_vertices)]
    for v, p in enumerate(tree.parent):
        if p is not None:
            kids[p].append(v)
    return kids


def bfs_tree_metric(tree) -> np.ndarray:
    """All-pairs weighted shortest-path distances, one traversal per vertex."""
    n = tree.n_vertices
    adj = [[] for _ in range(n)]
    for v in range(n):
        p = tree.parent[v]
        if p is not None:
            adj[v].append((p, tree.weights[v]))
            adj[p].append((v, tree.weights[v]))
    dist = np.zeros((n, n))
    for src in range(n):
        row = dist[src]
        seen = np.zeros(n, dtype=bool)
        seen[src] = True
        stack = [src]
        while stack:
            u = stack.pop()
            for w, edge in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    row[w] = row[u] + edge
                    stack.append(w)
    return dist


def subtree_classes(tree, v) -> list:
    """Sorted fine-class indices of the leaves under vertex ``v``."""
    kids = children_of(tree)
    stack = [v]
    out = []
    while stack:
        u = stack.pop()
        if not kids[u]:
            out.append(tree.class_index(u))
        else:
            stack.extend(reversed(kids[u]))
    return sorted(out)


def coarse_ancestor(tree, v) -> int:
    """Depth-1 ancestor of ``v`` (``v`` itself if its depth is <= 1)."""
    while tree.depth(v) > 1:
        v = tree.parent[v]
    return v
