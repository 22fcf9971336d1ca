"""The traced benchmark run can still find every function it wraps.

``benchmark/spans.py`` wraps the functions its ``LAYERS`` table names by
looking each one up as ``owner.__dict__[attr]``; a renamed or deleted
function would make ``--trace 1`` fail with ``KeyError``.  The file is only
loaded here, never changed or installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("span", SPANS.SPAN_NAMES)
def test_every_traced_span_resolves(span):
    layer, fn_name = span.split(".", 1)
    owner = importlib.import_module(f"hypstruct.{layer}")
    attr = fn_name
    if "." in fn_name:
        cls_name, attr = fn_name.split(".")
        owner = getattr(owner, cls_name)
    assert callable(owner.__dict__[attr])


def test_clip_counter_hook_exists():
    ad = importlib.import_module("hypstruct.autodiff")
    assert callable(ad.__dict__["record_clip_rescales"])
