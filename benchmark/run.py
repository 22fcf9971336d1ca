"""Benchmark of the hypstruct command-line pipelines.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from anywhere inside a source checkout; the package is imported from its
``src`` directory.  Workloads (see README.md in this directory for why each
was chosen and sized):

    train-c100    ``train`` on the CIFAR-100-shaped tree (121 vertices)
    embed-c10     ``embed-tree`` on the built-in CIFAR-10 tree
    analyze-c100  ``eval``, ``oodsim`` and ``spectra`` on two trained checkpoints

Every input is generated from ``--seed``.  Each CLI invocation is its own
subprocess, run one at a time.  With ``--trace 0`` the pipeline runs
untraced, repeatedly, for ``--seconds``, and the end-to-end metrics are
printed.  With ``--trace 1`` the same commands also run through
``traced_cli.py``, which wraps the package's functions in spans, and the
per-layer metrics are printed.  Outputs are checked on every pass.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
from spans import SPAN_NAMES  # noqa: E402

CMD_TIMEOUT_S = 150
SETUP_PROBES = 5
MAX_SPECTRUM_DISCREPANCY = 1e-9
# CSV columns that hold names; every other cell must read back with float().
TEXT_COLUMNS = {"label", "vertex_a", "vertex_b", "method", "ood_set"}
# CSVs the CLI itself reads back with np.loadtxt (``spectra --config matrix_csv``).
LOADTXT_CSVS = {"gram.csv"}

EXPECTED_ARTIFACTS = {
    "train": ("resolved_config.json", "history.csv", "checkpoint.json", "summary.json"),
    "embed-tree": ("resolved_config.json", "pairs_poincare.csv", "pairs_l2.csv",
                   "scatter_poincare.svg", "scatter_l2.svg", "poincare_disk.svg", "cpcc.json"),
    "eval": ("resolved_config.json", "metrics.json", "gram.csv"),
    "oodsim": ("resolved_config.json", "auroc.json", "score_histograms.csv"),
    "spectra": ("resolved_config.json", "spectrum_numerical.csv", "spectrum_closed.csv",
                "report.json"),
}

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("cpcc", "ratio", "higher"),
)


PER_LAYER = tuple(
    (f"{span}.{stat}", unit, "lower")
    for span in SPAN_NAMES for stat, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("autodiff.grad.nodes", "nodes/call", "lower"),
    ("autodiff.atanh_clamps", "count", "lower"),
    ("autodiff.clip_rescales", "count", "lower"),
    ("objective.present_vertices.vertices", "vertices/call", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("cli.unreadable_artifacts", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


# workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class Size:
    tree: tuple            # balanced-tree level counts of the training hierarchy
    n_per_leaf: int        # training rows per class
    epochs: int
    batch_size: int
    restarts: int          # embed-tree restarts per mode
    steps: int             # embed-tree steps per restart
    eval_per_leaf: int     # held-out rows per class
    far_n: int             # rows of the far-cluster OOD set
    spectra_levels: tuple  # balanced block matrix of the spectra command


FULL = Size(tree=(1, 20, 100), n_per_leaf=20, epochs=3, batch_size=128, restarts=8,
            steps=1000, eval_per_leaf=5, far_n=500, spectra_levels=(1, 4, 20, 200))
# Tiny sizes for the self-test: every command and span still runs.
QUICK = Size(tree=(1, 3, 6), n_per_leaf=10, epochs=2, batch_size=16, restarts=2,
             steps=20, eval_per_leaf=5, far_n=20, spectra_levels=(1, 2, 4, 8))

FEATURE_DIM = 32


@dataclass
class Command:
    sub: str               # CLI subcommand
    config: Path


@dataclass
class Workload:
    commands: list
    items: int             # units of work of the first command, for items_per_s
    cpcc: str              # result value reported as the cpcc metric
    probe: dict            # set-up probe spec, see setup_probe.py
    setup: list = field(default_factory=list)  # untimed commands run once


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def write_tree(work: Path, levels) -> str:
    """Serialize ``balanced_tree(levels)`` with ``LabelTree.serialize()``."""
    path = work / "hierarchy.json"
    code = ("import sys; from hypstruct.hierarchy import balanced_tree; "
            f"open(sys.argv[1], 'w').write(balanced_tree({tuple(levels)!r}).serialize())")
    run = spawn(["-c", code, str(path)], work / "tree.log")
    if run.code != 0 or not path.is_file():
        raise SetupError(f"could not write the hierarchy: {log_tail(work / 'tree.log')}")
    return rel(path)


def train_config(tree: str, seed: int, variant: str, size: Size) -> dict:
    return {
        "hierarchy": tree, "seed": seed,
        "dataset": {"synthetic": {"seed": seed, "n_per_leaf": size.n_per_leaf,
                                  "dim": FEATURE_DIM}},
        "encoder": {"kind": "mlp_1hidden", "hidden_dim": 64, "output_dim": 16},
        "objective": {"variant": variant},
        "train": {"epochs": size.epochs, "batch_size": size.batch_size},
    }


def train_c100(seed: int, work: Path, size: Size) -> Workload:
    tree = write_tree(work, size.tree)
    cfg = write_json(work / "train.json", train_config(tree, seed, "hypstructure", size))
    rows = size.n_per_leaf * size.tree[-1]
    return Workload(commands=[Command("train", cfg)], items=size.epochs * rows,
                    cpcc="final_cpcc",
                    probe={"hierarchy": tree, "seed": seed,
                           "dataset": train_config(tree, seed, "", size)["dataset"]})


def embed_c10(seed: int, work: Path, size: Size) -> Workload:
    cfg = write_json(work / "embed.json", {
        "hierarchy": "builtin:cifar10", "seed": seed, "dim": 2,
        "restarts": size.restarts, "steps": size.steps,
    })
    # the CLI always embeds in both the Poincare and the l2 mode
    return Workload(commands=[Command("embed-tree", cfg)],
                    items=size.restarts * size.steps * 2,
                    cpcc="embed_poincare_cpcc",
                    probe={"hierarchy": "builtin:cifar10", "seed": seed})


def analyze_c100(seed: int, work: Path, size: Size) -> Workload:
    tree = write_tree(work, size.tree)
    setup = []
    checkpoints = {}
    for variant in ("hypstructure", "l2cpcc"):
        cfg = write_json(work / f"train-{variant}.json",
                         train_config(tree, seed, variant, size))
        setup.append((Command("train", cfg), work / f"ckpt-{variant}"))
        checkpoints[variant] = rel(work / f"ckpt-{variant}" / "checkpoint.json")
    train_ds = train_config(tree, seed, "", size)["dataset"]
    # same class centres as training (seed), fresh noise (noise_seed)
    held_out = {"synthetic": {"seed": seed, "noise_seed": seed + 10,
                              "n_per_leaf": size.eval_per_leaf, "dim": FEATURE_DIM}}
    eval_cfg = write_json(work / "eval.json", {
        "hierarchy": tree, "seed": seed, "checkpoint": checkpoints["hypstructure"],
        "train_dataset": train_ds, "eval_dataset": held_out, "knn_k": 50,
        "delta": {"mode": "auto", "k": 2_000_000}, "gram_csv": True,
    })
    ood_cfg = write_json(work / "oodsim.json", {
        "hierarchy": tree, "seed": seed, "methods": checkpoints,
        "id_train": train_ds, "id_eval": held_out,
        "ood_sets": {"far": {"far_cluster": {"n": size.far_n}}, "same": {"id_eval": True}},
    })
    spectra_cfg = write_json(work / "spectra.json", {
        "seed": seed,
        "block_spec": {"balanced_level_counts": list(size.spectra_levels),
                       "r": [0.8, 0.5, 0.2]},
    })
    held_rows = size.eval_per_leaf * size.tree[-1]
    return Workload(commands=[Command("eval", eval_cfg), Command("oodsim", ood_cfg),
                              Command("spectra", spectra_cfg)],
                    items=held_rows, cpcc="test_cpcc",
                    probe={"hierarchy": tree, "seed": seed, "dataset": train_ds},
                    setup=setup)


WORKLOADS = {"train-c100": train_c100, "embed-c10": embed_c10, "analyze-c100": analyze_c100}


# processes -----------------------------------------------------------------------


class SetupError(RuntimeError):
    pass


@dataclass
class Run:
    code: int
    wall_s: float
    rss_mb: float


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args, log_path: Path) -> Run:
    """Run ``python3 *args`` from the checkout root; wall time and peak RSS."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def log_tail(log_path: Path) -> str:
    return log_path.read_text().strip()[-400:]


def setup_probe(spec: dict, log_path: Path) -> float:
    run = spawn([str(BENCH_DIR / "setup_probe.py"), json.dumps(spec)], log_path)
    if run.code != 0:
        raise SetupError(f"set-up probe failed: {log_tail(log_path)}")
    return float(log_path.read_text().split()[-1])


# output checks -------------------------------------------------------------------


def all_finite(doc) -> bool:
    if isinstance(doc, bool) or doc is None or isinstance(doc, str):
        return True
    if isinstance(doc, (int, float)):
        return math.isfinite(doc)
    if isinstance(doc, dict):
        return all(all_finite(v) for v in doc.values())
    return all(all_finite(v) for v in doc)


def in_range(problems, name, value, lo, hi):
    if not isinstance(value, (int, float)) or not lo <= value <= hi:
        problems.append(f"{name}={value!r} outside [{lo}, {hi}]")


def quality_values(sub: str, docs: dict, problems: list) -> dict:
    """Named result values of one command, range-checked."""
    values = {}
    if sub == "train":
        values["final_cpcc"] = docs["summary.json"]["final_cpcc"]
        in_range(problems, "final_cpcc", values["final_cpcc"], -1, 1)
    elif sub == "embed-tree":
        doc = docs["cpcc.json"]
        values["embed_poincare_cpcc"] = doc["poincare_cpcc"]
        values["embed_l2_cpcc"] = doc["l2_cpcc"]
        for name, value in values.items():
            in_range(problems, name, value, -1, 1)
    elif sub == "eval":
        doc = docs["metrics.json"]
        values = {"test_cpcc": doc["test_cpcc"], "knn_fine_acc": doc["knn_fine_accuracy"],
                  "knn_coarse_acc": doc["knn_coarse_accuracy"], "delta_rel": doc["delta_rel"]}
        in_range(problems, "test_cpcc", values["test_cpcc"], -1, 1)
        in_range(problems, "knn_fine_acc", values["knn_fine_acc"], 0, 1)
        in_range(problems, "knn_coarse_acc", values["knn_coarse_acc"], 0, 1)
    elif sub == "oodsim":
        table = docs["auroc.json"]["auroc"]
        for method, row in table.items():
            for ood_set, value in row.items():
                in_range(problems, f"auroc[{method}][{ood_set}]", value, 0, 1)
            if row.get("same") != 0.5:
                problems.append(f"auroc[{method}][same]={row.get('same')!r}, expected 0.5")
        values["ood_auroc_far"] = table["hypstructure"]["far"]
    elif sub == "spectra":
        value = docs["report.json"]["max_abs_discrepancy"]
        values["max_abs_discrepancy"] = value
        in_range(problems, "max_abs_discrepancy", value, 0, MAX_SPECTRUM_DISCREPANCY)
    return values


def csv_readable(path: Path) -> bool:
    """True if every numeric cell reads back with float(), and loadtxt where the CLI uses it."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return False
    numeric = [i for i, name in enumerate(rows[0]) if name not in TEXT_COLUMNS]
    try:
        for row in rows[1:]:
            for i in numeric:
                float(row[i])
    except (ValueError, IndexError):
        return False
    if path.name in LOADTXT_CSVS:
        import numpy as np
        try:
            np.loadtxt(path, delimiter=",", dtype=np.float64)
        except ValueError:
            return False
    return True


@dataclass
class Outcome:
    """One CLI invocation: timing, checks and what it wrote."""

    sub: str
    run: Run
    problems: list
    values: dict
    json_bytes: dict
    unreadable: int
    artifact_bytes: int
    stats: dict | None = None


def inspect(sub: str, out: Path, run: Run, stats_path: Path | None) -> Outcome:
    problems = []
    if run.code != 0:
        problems.append(f"exit code {run.code}")
    missing = [name for name in EXPECTED_ARTIFACTS[sub] if not (out / name).is_file()]
    if missing:
        problems.append(f"missing artifacts {missing}")
    json_bytes, docs = {}, {}
    for path in sorted(out.glob("*.json")):
        json_bytes[path.name] = path.read_bytes()
        try:
            docs[path.name] = json.loads(json_bytes[path.name])
        except ValueError:
            problems.append(f"{path.name} is not valid JSON")
            continue
        if not all_finite(docs[path.name]):
            problems.append(f"{path.name} holds a non-finite number")
    values = {}
    if not problems:
        try:
            values = quality_values(sub, docs, problems)
        except (KeyError, TypeError) as e:
            problems.append(f"result field missing: {e!r}")
    unreadable = sum(not csv_readable(p) for p in sorted(out.glob("*.csv")))
    artifact_bytes = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    stats = None
    if stats_path is not None:
        if stats_path.is_file():
            stats = json.loads(stats_path.read_text())
        else:
            problems.append("traced run wrote no span statistics")
    return Outcome(sub, run, problems, values, json_bytes, unreadable, artifact_bytes, stats)


def run_pass(workload: Workload, pass_dir: Path, traced: bool) -> list:
    outcomes = []
    for cmd in workload.commands:
        out = pass_dir / cmd.sub
        out.mkdir(parents=True)
        cli_args = [cmd.sub, "--config", rel(cmd.config), "--out", rel(out)]
        stats_path = None
        if traced:
            stats_path = pass_dir / f"{cmd.sub}.spans.json"
            args = [str(BENCH_DIR / "traced_cli.py"), str(stats_path), *cli_args]
        else:
            args = ["-m", "hypstruct.cli", *cli_args]
        run = spawn(args, pass_dir / f"{cmd.sub}.log")
        outcomes.append(inspect(cmd.sub, out, run, stats_path))
    return outcomes


def span_calls(outcome: Outcome):
    return ({name: entry[0] for name, entry in outcome.stats["spans"].items()},
            outcome.stats["counts"])


def cross_check(passes: list, traced_passes: list):
    """Byte-identical JSON across every pass; identical counts across traced passes."""
    reference = passes[0] if passes else traced_passes[0]
    for outcomes in passes + traced_passes:
        for ref, got in zip(reference, outcomes):
            if got.json_bytes != ref.json_bytes:
                changed = sorted(k for k in set(got.json_bytes) | set(ref.json_bytes)
                                 if got.json_bytes.get(k) != ref.json_bytes.get(k))
                got.problems.append(f"JSON artifacts differ between passes: {changed}")
    for outcomes in traced_passes[1:]:
        for ref, got in zip(traced_passes[0], outcomes):
            if got.stats is not None and ref.stats is not None \
                    and span_calls(got) != span_calls(ref):
                got.problems.append("span calls or counts differ between traced passes")


# metrics -----------------------------------------------------------------------


def pass_wall(outcomes) -> float:
    return sum(o.run.wall_s for o in outcomes)


def end_to_end(workload: Workload, passes: list, probes: list) -> dict:
    first_cmd_walls = [outcomes[0].run.wall_s for outcomes in passes]
    cpcc = next(o.values[workload.cpcc] for o in passes[0] if workload.cpcc in o.values)
    return {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": max(o.run.rss_mb for p in passes for o in p),
        "items_per_s": workload.items / statistics.median(first_cmd_walls),
        "cpcc": cpcc,
    }


def per_layer(passes: list, traced_passes: list) -> dict:
    metrics = {}
    first = traced_passes[0]
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = sum(o.stats["spans"][span][0] for o in first)
        metrics[f"{span}.self_s"] = statistics.median(
            sum(o.stats["spans"][span][1] for o in outcomes) for outcomes in traced_passes)
    counts = {name: sum(o.stats["counts"][name] for o in first)
              for name in first[0].stats["counts"]}
    grad_calls = metrics["autodiff.grad.calls"]
    present_calls = metrics["objective.present_vertices.calls"]
    metrics["autodiff.grad.nodes"] = (
        counts["autodiff.grad.nodes"] / grad_calls if grad_calls else 0)
    metrics["autodiff.atanh_clamps"] = counts["autodiff.atanh_clamps"]
    metrics["autodiff.clip_rescales"] = counts["autodiff.clip_rescales"]
    metrics["objective.present_vertices.vertices"] = (
        counts["objective.present_vertices.vertices"] / present_calls if present_calls else 0)
    metrics["cli.artifact_bytes"] = sum(o.artifact_bytes for o in first)
    metrics["cli.unreadable_artifacts"] = sum(o.unreadable for o in first)
    metrics["trace.overhead_s"] = (statistics.median(pass_wall(p) for p in traced_passes)
                                   - statistics.median(pass_wall(p) for p in passes))
    return metrics


def machine_info() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "numpy": np.__version__,
            "blas_threads": blas_threads(np), "python": platform.python_version()}


def blas_threads(np):
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") \
        or "unknown"


# entry point -------------------------------------------------------------------


def measure(args, work: Path):
    size = QUICK if args.quick else FULL
    workload = WORKLOADS[args.workload](args.seed, work, size)
    for cmd, out in workload.setup:
        out.mkdir(parents=True)
        run = spawn(["-m", "hypstruct.cli", cmd.sub, "--config", rel(cmd.config),
                     "--out", rel(out)], work / f"{out.name}.log")
        if run.code != 0:
            raise SetupError(f"set-up command {cmd.sub} failed: "
                             f"{log_tail(work / f'{out.name}.log')}")

    probes = []
    if not args.trace:
        for i in range(1 if args.quick else SETUP_PROBES):
            probes.append(setup_probe(workload.probe, work / f"probe{i}.log"))

    passes, traced_passes = [], []
    start = time.perf_counter()
    if args.trace:
        # untraced/traced pairs: at least two, so that counts can be compared
        # between traced passes, then more while a pair still fits in the time
        pair_s = 0.0
        while len(traced_passes) < 2 or time.perf_counter() - start + pair_s <= args.seconds:
            pair_start = time.perf_counter()
            passes.append(run_pass(workload, work / f"pass{len(passes)}", traced=False))
            traced_passes.append(run_pass(workload, work / f"traced{len(traced_passes)}",
                                          traced=True))
            pair_s = time.perf_counter() - pair_start
    else:
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(workload, work / f"pass{len(passes)}", traced=False))
    cross_check(passes, traced_passes)

    outcomes = [o for p in passes + traced_passes for o in p]
    failed = sum(bool(o.problems) for o in outcomes)
    report = {"passes": len(passes), "traced_passes": len(traced_passes),
              "setup_probes_s": probes,
              "pass_walls_s": [pass_wall(p) for p in passes],
              "error_rate": failed / len(outcomes),
              "unreadable_artifacts": sum(o.unreadable for o in passes[0])}
    for sub in dict.fromkeys(o.sub for o in passes[0]):
        report[f"{sub}_s"] = statistics.median(o.run.wall_s for p in passes
                                               for o in p if o.sub == sub)
    for o in passes[0]:
        report.update(o.values)
    problems = [f"{o.sub}: {msg}" for o in outcomes for msg in o.problems]
    if failed:
        metrics = {}
    elif args.trace:
        metrics = per_layer(passes, traced_passes)
    else:
        metrics = end_to_end(workload, passes, probes)
    return report, problems, len(outcomes), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "hypstruct" / "cli.py").is_file():
        print(f"error: no hypstruct sources under {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report, problems, attempted, failed, metrics = measure(args, work)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{k}={v!r}" for k, v in report.items()))
    for msg in problems:
        print(f"FAILED {msg}")
    table = PER_LAYER if args.trace else END_TO_END
    for name, unit, better in table:
        if name in metrics:
            print(f"  {name} = {metrics[name]!r} {unit} ({better} is better)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
