"""``same_outputs.py``, the check that two trees of CLI outputs match, on
small synthetic trees."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import same_outputs

HISTORY = "epoch,flat,cpcc,center,lr\r\n0,1.25,0.6931471805599453,0.1,0.05\r\n"
METRICS = {"test_cpcc": 0.8125, "delta_mode": "exact", "n_eval": 20, "config": {"seed": 3}}


def tree(root: Path, history=HISTORY, metrics=METRICS, extra=()):
    """An output tree of a train and an eval directory, plus files ``extra``."""
    (root / "train").mkdir(parents=True)
    (root / "eval").mkdir()
    (root / "train" / "history.csv").write_bytes(history.encode())
    (root / "eval" / "metrics.json").write_text(json.dumps(metrics, indent=2))
    for name in extra:
        (root / name).write_text("x")
    return root


def compare(capsys, parent, change, *args):
    code = same_outputs.main([str(parent), str(change), *args])
    return code, capsys.readouterr().out


def test_a_tree_compared_with_itself_is_clean(tmp_path, capsys):
    root = tree(tmp_path / "a")
    code, out = compare(capsys, root, root)
    assert code == 0
    assert out.splitlines() == ["identical: eval/metrics.json", "identical: train/history.csv",
                                "summary: 2 common files, 2 identical, 0 differ (0 out of "
                                "tolerance at rtol 0), 0 added, 0 removed"]


def test_a_one_ulp_history_cell_fails_bitwise_and_passes_at_1e_15(tmp_path, capsys):
    cpcc = 0.6931471805599453
    moved = HISTORY.replace(repr(cpcc), repr(math.nextafter(cpcc, 1.0)))
    assert moved != HISTORY
    parent, change = tree(tmp_path / "a"), tree(tmp_path / "b", history=moved)
    code, out = compare(capsys, parent, change)
    assert code == 1
    assert "differs: train/history.csv (out of tolerance)" in out
    assert "  cpcc: max abs 1.11e-16, max rel 1.6e-16" in out
    code, out = compare(capsys, parent, change, "--rtol", "1e-15")
    assert code == 0
    assert "differs: train/history.csv (within tolerance)" in out


def test_a_changed_json_number_is_caught(tmp_path, capsys):
    parent = tree(tmp_path / "a")
    change = tree(tmp_path / "b", metrics=dict(METRICS, test_cpcc=0.8))
    code, out = compare(capsys, parent, change, "--rtol", "1e-6")
    assert code == 1
    assert "differs: eval/metrics.json (out of tolerance)" in out
    assert "  $.test_cpcc: max abs 0.0125, max rel 0.0154" in out


@pytest.mark.parametrize("metrics,line", [
    (dict(METRICS, delta_mode="sampled"), "$.delta_mode: 'exact' != 'sampled'"),
    (dict(METRICS, config={}), "$.config: keys differ: ['seed']"),
])
def test_a_changed_json_value_that_is_not_a_number_is_caught_at_any_rtol(tmp_path, capsys,
                                                                        metrics, line):
    parent, change = tree(tmp_path / "a"), tree(tmp_path / "b", metrics=metrics)
    code, out = compare(capsys, parent, change, "--rtol", "1")
    assert code == 1
    assert f"  {line}" in out.splitlines()


def test_a_missing_or_added_file_is_flagged(tmp_path, capsys):
    parent = tree(tmp_path / "a", extra=["gram.csv"])
    change = tree(tmp_path / "b", extra=["trace.json"])
    code, out = compare(capsys, parent, change)
    assert code == 1
    assert "added: trace.json" in out and "removed: gram.csv" in out
    assert out.splitlines()[-1].endswith("1 added, 1 removed")


def test_the_script_runs_from_the_command_line(tmp_path):
    root = tree(tmp_path / "a")
    done = subprocess.run([sys.executable, str(Path(same_outputs.__file__)), str(root),
                           str(root), "--rtol", "0"], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("summary: 2 common files, 2 identical")
