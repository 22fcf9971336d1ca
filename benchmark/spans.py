"""Span timer that wraps hypstruct functions from outside the package.

The traced benchmark run replaces the public functions listed in ``LAYERS``
with timing wrappers after the package is imported, in a process of its own;
no file of the package changes.  Each wrapped call is a span.  A
span's self time is its duration minus the time its child spans cover.  Every
thread keeps its own span stack, because ``embed_tree_direct`` runs its
restarts on pool threads.

Several functions are imported by name into other modules (``tree_metric``
lives in ``objective``, ``training``, ``diagnostics`` and ``cli`` as well as in
``hierarchy``), and ``cli.COMMANDS`` holds the command functions.  So the
wrapper replaces every ``hypstruct.*`` module attribute, and every value of a
module-level dict, that *is* the original function object.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# Spans per layer; a dotted entry names a method of a class in that module.
LAYERS = {
    "autodiff": ("grad",),
    "geometry": ("exp0", "dist_rows", "to_klein", "to_poincare", "lorentz_gamma",
                 "einstein_mid", "clip0"),
    "objective": ("present_vertices", "prototype_rows", "euclidean_prototype_rows",
                  "cpcc_term_core", "cpcc_core", "centering_core", "cross_entropy_core"),
    "training": ("train", "encode", "epoch_metrics", "embed_tree_direct",
                 "generate_hierarchical_gaussians"),
    "hierarchy": ("parse_tree", "tree_metric", "LabelTree.lca_height"),
    "diagnostics": ("test_cpcc", "pairwise_l2", "delta_hyperbolicity", "knn_classify",
                    "fit_gaussian", "mahalanobis_scores", "auroc"),
    "spectral": ("build_block_matrix", "numerical_eigenvalues", "gram_matrix",
                 "balanced_eigenvalues_closed_form", "phase_transition_detect"),
    "cli": ("cmd_train", "cmd_embed_tree", "cmd_eval", "cmd_oodsim", "cmd_spectra",
            "load_checkpoint"),
    "svg": ("scatter_svg", "disk_svg"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Counts taken at the same boundaries as the spans.
COUNT_NAMES = ("autodiff.grad.nodes", "autodiff.atanh_clamps", "autodiff.clip_rescales",
               "objective.present_vertices.vertices")


def tape_nodes(out):
    """Number of unique tape nodes reachable from ``out``."""
    seen = set()
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(parent for parent, _ in getattr(node, "parents", ()))
    return len(seen)


class Tracer:
    """Per-span call counts and self times, plus boundary counts."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = {name: [0, 0.0] for name in SPAN_NAMES}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, amount):
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name, fn, before=None, after=None):
        """Time ``fn`` as span ``name``; hooks run outside every span's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if before is not None:
                t = time.perf_counter()
                before(*args, **kwargs)
                if stack:
                    stack[-1][0] += time.perf_counter() - t
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with self._lock:
                    entry = self.spans[name]
                    entry[0] += 1
                    entry[1] += duration - frame[0]
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        """Wrap every listed function wherever it is bound, for the rest of the process."""
        ad = sys.modules["hypstruct.autodiff"]

        def count_grad_nodes(out, *args, **kwargs):
            self.count("autodiff.grad.nodes", tape_nodes(out))

        def count_present(result):
            self.count("objective.present_vertices.vertices", len(result))

        hooks = {"autodiff.grad": {"before": count_grad_nodes},
                 "objective.present_vertices": {"after": count_present}}

        # id(original) -> (original, replacement)
        replacements = {}
        for layer, fns in LAYERS.items():
            module = sys.modules[f"hypstruct.{layer}"]
            for fn_name in fns:
                owner, attr = module, fn_name
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                name = f"{layer}.{fn_name}"
                wrapped = self.wrap(name, original, **hooks.get(name, {}))
                replacements[id(original)] = (original, wrapped)
                if owner is not module:
                    setattr(owner, attr, wrapped)

        original_clip = ad.record_clip_rescales

        def record_clip_rescales(count):
            self.count("autodiff.clip_rescales", int(count))
            return original_clip(count)

        replacements[id(original_clip)] = (original_clip, record_clip_rescales)

        def replacement(value):
            entry = replacements.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else None

        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "hypstruct":
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replacement(value)
                if wrapped is not None:
                    setattr(module, attr, wrapped)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        wrapped = replacement(item)
                        if wrapped is not None:
                            value[key] = wrapped
