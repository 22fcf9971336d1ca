"""The command line in a process of its own: its artifacts do not depend on
the BLAS thread count the environment asks for, and importing the package
loads no numpy, so the CLI's one-thread pin comes before numpy's first import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypstruct.hierarchy import balanced_tree

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TREE = json.loads(balanced_tree((1, 4, 20)).serialize())
DATA = {"synthetic": {"seed": 1, "n_per_leaf": 10, "dim": 32}}
# 500 held-out rows: a Gram matrix large enough for a threaded BLAS to split
HELD_OUT = {"synthetic": {"seed": 1, "noise_seed": 11, "n_per_leaf": 25, "dim": 32}}
# each command reads what the one before it wrote, by paths relative to the run
PIPELINE = (
    ("train", {"hierarchy": TREE, "seed": 1, "dataset": DATA,
               "encoder": {"kind": "mlp_1hidden", "hidden_dim": 64, "output_dim": 16},
               "train": {"epochs": 1, "batch_size": 64}}),
    ("eval", {"hierarchy": TREE, "seed": 1, "checkpoint": "train/checkpoint.json",
              "train_dataset": DATA, "eval_dataset": HELD_OUT, "gram_csv": True}),
    ("spectra", {"seed": 1, "matrix_csv": "eval/gram.csv"}),
    ("oodsim", {"hierarchy": TREE, "seed": 1, "methods": {"hypstructure": "train/checkpoint.json"},
                "id_train": DATA, "id_eval": HELD_OUT,
                "ood_sets": {"far": {"far_cluster": {"n": 50}}}}),
)


def python(args, cwd, **env):
    """Run the interpreter on ``args`` with the package on its path and no BLAS
    thread variable but those in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**base, "PYTHONPATH": str(SRC), **env}, timeout=300)


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    files = {}
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        run.mkdir()
        for command, config in PIPELINE:
            (run / f"{command}.json").write_text(json.dumps(config))
            done = python(["-m", "hypstruct.cli", command, "--config", f"{command}.json",
                           "--out", command], run, OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
        files[threads] = {str(p.relative_to(run)): p.read_bytes()
                          for p in sorted(run.rglob("*")) if p.is_file()}
    assert "eval/gram.csv" in files["1"] and "spectra/spectrum_numerical.csv" in files["1"]
    assert files["1"].keys() == files["2"].keys()
    assert [name for name in files["1"] if files["1"][name] != files["2"][name]] == []


def test_importing_the_package_loads_no_numpy(tmp_path):
    done = python(["-c", "import hypstruct, sys; print('numpy' in sys.modules)"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
