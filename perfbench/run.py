"""cdsl-lab benchmark: whole experiments, one at a time, in one process.

    python3 perfbench/run.py --workload rot5 --seed 2022 --seconds 15 --trace 0

Each repetition runs `protocol.run_cdsl` and `protocol.write_results` on
the workload's inputs for one experiment seed, then checks the outputs: a
finite training log whose parts add up, accuracies in [0, 1], transfer
metrics that match the matrix, and the same output digest every time the
seed repeats. A benchmark seed stands for a panel of experiment seeds
(see workloads.py); repetitions run in whole passes over the panel, as
many as fit in `--seconds` and at least one, and the first seed runs once
more when only one pass fits.

With `--trace 0` the last line holds the end-to-end metrics: run wall and
CPU time (the median over the panel of each seed's median), set-up time
(median of fresh interpreters, see setup_probe.py), peak resident memory,
and the mean transfer metrics of the panel. With `--trace 1` untraced and
traced repetitions of the first seed alternate and the last line holds the
per-layer metrics of the traced ones (see spans.py); the spans go to
`.perfbench-out/`. The line before the last one is a report: environment,
digests, per-repetition times and failure rate.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT = workloads.ROOT / ".perfbench-out"
OUTPUT_FILES = ("matrix.csv", "metrics.json", "train_log.csv")
MIN_TRACED_REPS = 4  # two untraced and two traced
SETUP_PROBES = 7  # about half before the repetitions, the rest after
PROBE_TIMEOUT_S = 120
TAPE_OPS = ("matmul", "transpose", "add", "relu", "standardize_rows", "softmax_rows",
            "mul", "reduce_sum", "reduce_mean", "log", "scale", "exp", "sub")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def experiment(cfg, seq, out_dir):
    from cdsl_lab import protocol

    result = protocol.run_cdsl(cfg, seq)
    protocol.write_results(result, out_dir)
    return result


def transfer_metrics(values) -> dict:
    """TDA, TDG and FA averages, computed here independently of the package."""
    n = len(values)
    col = lambda rows, j: statistics.fmean(float(values[i][j]) for i in rows)
    return {"tda_avg": statistics.fmean(float(values[j][j]) for j in range(n)),
            "tdg_avg": statistics.fmean(col(range(j), j) for j in range(1, n)),
            "fa_avg": statistics.fmean(col(range(j + 1, n), j) for j in range(n - 1))}


def digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        h.update(name.encode())
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()


def check(result, out_dir, cfg) -> list[str]:
    """Every way the written outputs of one run can be wrong."""
    problems = []
    values = result.matrix.values
    log = result.logs["train_log"]
    steps = values.shape[0] * cfg.epochs * cfg.steps_per_epoch
    if len(log) != steps:
        problems.append(f"train_log has {len(log)} rows, expected {steps}")
    for row in log:
        parts = [row[k] for k in ("ce", "pca", "dis", "total")]
        where = f"stage {row['stage']} epoch {row['epoch']} step {row['step']}"
        if not all(math.isfinite(v) for v in parts):
            problems.append(f"non-finite loss at {where}")
            break
        if abs(parts[3] - sum(parts[:3])) > 1e-9 * max(1.0, abs(parts[3])):
            problems.append(f"total != ce + pca + dis at {where}")
            break
    if not ((values >= 0.0) & (values <= 1.0)).all():
        problems.append("accuracy matrix entry outside [0, 1]")
    written = json.loads((Path(out_dir) / "metrics.json").read_text())
    for key, expected in transfer_metrics(values).items():
        if not math.isclose(written[key], expected, rel_tol=0.0, abs_tol=1e-12):
            problems.append(f"metrics.json {key} {written[key]} != {expected} from the matrix")
    return problems


def repetition(seed, cfg, seq, tracer=None) -> dict:
    """One timed experiment; outputs are checked after the clock stops."""
    gc.collect()
    rep = {"seed": seed, "traced": tracer is not None, "problems": []}
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        try:
            if tracer is None:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                result = experiment(cfg, seq, out_dir)
            else:
                with spans.installed(tracer):
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    result = tracer.wrap("experiment", experiment)(cfg, seq, out_dir)
            rep["wall_s"] = time.perf_counter() - wall0
            rep["cpu_s"] = time.process_time() - cpu0
        except Exception:
            rep["problems"].append("raised: " + traceback.format_exc())
            return rep
        rep["problems"] += check(result, out_dir, cfg)
        rep["digest"] = digest(out_dir)
    rep["metrics"] = result.metrics.to_dict()
    rep["pl_acc"] = [e["accuracy"] for e in result.logs["label_log"]
                     if e["method"] == cfg.labeler_method]
    return rep


def measure(inputs: list, seconds: float, tracer=None) -> list[dict]:
    """Repetitions of the (seed, cfg, seq) inputs for about `seconds`.

    Untraced, repetitions run in whole passes over the inputs, so every
    seed runs equally often whatever the speed. A pass starts only if one
    more fits in `seconds`, judged by the last one; after a single pass the
    first input runs again, so that every run checks determinism. With a
    tracer, untraced and traced repetitions of the first input alternate.
    """
    start = time.perf_counter()
    reps = []
    if tracer is not None:
        while len(reps) < MIN_TRACED_REPS or time.perf_counter() - start < seconds:
            traced = tracer if len(reps) % 2 else None
            reps.append(repetition(*inputs[0], tracer=traced))
    else:
        passes, pass_s = 0, 0.0
        while passes == 0 or time.perf_counter() - start + pass_s <= seconds:
            pass_start = time.perf_counter()
            reps += [repetition(*args) for args in inputs]
            pass_s = time.perf_counter() - pass_start
            passes += 1
        if passes == 1:
            reps.append(repetition(*inputs[0]))
    reference = {}
    for r in reps:
        if "digest" in r and not r["problems"]:
            reference.setdefault(r["seed"], r["digest"])
    for r in reps:
        if "digest" in r and r["digest"] != reference.get(r["seed"]):
            r["problems"].append(f"output digest {r['digest']} differs from "
                                 f"{reference.get(r['seed'])} for seed {r['seed']}")
    return reps


def probe_setup(workload: str, seed: int, count: int) -> list[dict]:
    """`count` set-up probes, each in a fresh interpreter, one after another."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "blas_threads": blas_threads(),
            "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def panel_median(reps: list[dict], key: str) -> float:
    """Median over the panel's seeds of each seed's median `key`."""
    by_seed = defaultdict(list)
    for r in reps:
        if key in r:
            by_seed[r["seed"]].append(r[key])
    return statistics.median(statistics.median(v) for v in by_seed.values())


def end_to_end(reps: list[dict], probes: list[dict]) -> dict:
    per_seed = {}
    for r in reps:
        if "metrics" in r:
            per_seed.setdefault(r["seed"], r["metrics"])
    quality = {key: statistics.fmean(m[key] for m in per_seed.values())
               for key in ("tda_avg", "tdg_avg", "fa_avg")}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": (panel_median(reps, "wall_s"), "s"),
        "run_cpu_s": (panel_median(reps, "cpu_s"), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "tda_avg": (quality["tda_avg"], "fraction"),
        "tdg_avg": (quality["tdg_avg"], "fraction"),
        "fa_avg": (quality["fa_avg"], "fraction"),
    }


def per_layer(reps: list[dict], tracer, probes: list[dict]) -> dict:
    traced = [r for r in reps if r["traced"] and "wall_s" in r]
    untraced = [r for r in reps if not r["traced"] and "wall_s" in r]
    n = len(traced)
    seconds = lambda span: (tracer.self_s[span] / n, "s")
    count = lambda value: (value / n, "count")
    steps = tracer.calls["diffcore.backward"]
    per_step = lambda value: (value / steps, "count")
    import_s = lambda module: (statistics.median(p["import_s"].get(module, 0.0)
                                                 for p in probes), "s")
    # means, so that the self times (also per-run means) add up to traced_run_s
    traced_run_s = statistics.fmean(r["wall_s"] for r in traced)
    untraced_run_s = statistics.fmean(r["wall_s"] for r in untraced)
    ops = {op: tracer.counts["op." + op] for op in TAPE_OPS}
    other_ops = tracer.counts["tape_nodes"] - sum(ops.values())
    metrics = {
        "diffcore.backward_s": seconds("diffcore.backward"),
        "diffcore.sgd_s": seconds("diffcore.sgd"),
        "diffcore.nodes_per_step": per_step(tracer.counts["tape_nodes"]),
        **{f"diffcore.nodes_per_step.{op}": per_step(c) for op, c in ops.items()},
        "diffcore.nodes_per_step.other": per_step(other_ops),
        "diffcore.import_s": import_s("diffcore"),
        "nets.taped_forward_s": seconds("nets.taped_forward"),
        "nets.infer_s": seconds("nets.infer"),
        "nets.infer_calls": count(tracer.calls["nets.infer"]),
        "objective.loss_s": seconds("objective.loss"),
        "randmix.draw_s": seconds("randmix.draw"),
        "randmix.autoencode_s": seconds("randmix.autoencode"),
        "randmix.gate_s": seconds("randmix.gate"),
        "randmix.mix_s": seconds("randmix.mix"),
        "randmix.rows_in": count(tracer.counts["gate_rows_in"]),
        "randmix.rows_kept": count(tracer.counts["gate_rows_kept"]),
        "randmix.import_s": import_s("randmix"),
        "labeler.assign_s": seconds("labeler.assign"),
        "labeler.knn_s": seconds("labeler.knn"),
        "labeler.calls": count(tracer.calls["labeler.assign"]),
        "labeler.pl_acc": (statistics.fmean(traced[0]["pl_acc"]), "fraction"),
        "memory.admit_s": seconds("memory.admit"),
        "memory.replay_s": seconds("memory.replay"),
        "memory.replay_rows": count(tracer.counts["replay_rows"]),
        "memory.admitted_rows": count(tracer.counts["admitted_rows"]),
        "synthdata.generate_s": seconds("synthdata.generate"),
        "synthdata.import_s": import_s("synthdata"),
        "protocol.steps": count(steps),
        "protocol.eval_s": seconds("protocol.eval"),
        "protocol.write_s": seconds("protocol.write"),
        "protocol.glue_s": seconds("protocol.glue"),
        "traced_run_s": (traced_run_s, "s"),
        "trace_overhead_s": (traced_run_s - untraced_run_s, "s"),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.add_source_path()
    import cdsl_lab

    if Path(cdsl_lab.__file__).resolve().parent != workloads.SRC / "cdsl_lab":
        sys.exit(f"perfbench: imported cdsl_lab from {cdsl_lab.__file__}, not the checkout")
    OUT.mkdir(exist_ok=True)

    # Probes on both sides of the repetitions, so that their median spans
    # the whole run rather than one moment of the machine's load.
    probes = probe_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    seeds = workloads.panel_seeds(args.seed)
    if args.trace:
        seeds = seeds[:1]
    inputs = [(s, *workloads.build(args.workload, s)) for s in seeds]
    tracer = spans.Tracer() if args.trace else None
    reps = measure(inputs, args.seconds, tracer)
    probes += probe_setup(args.workload, args.seed, SETUP_PROBES // 2)
    failed = sum(1 for r in reps if r["problems"])
    if failed == len(reps):
        print(json.dumps({"problems": [r["problems"] for r in reps]}), file=sys.stderr)
        return 1

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "panel_seeds": seeds,
        "config": inputs[0][1].to_dict(),
        "domain_samples": [s.samples for s in inputs[0][2].specs] if inputs[0][2] else None,
        "loop": "closed, one experiment at a time",
        "digests": {r["seed"]: r["digest"] for r in reps if "digest" in r and not r["problems"]},
        "fail_rate": failed / len(reps),
        "reps": [{k: r.get(k) for k in ("seed", "traced", "wall_s", "cpu_s", "problems")}
                 for r in reps],
        "setup_probes": probes,
        "environment": environment(),
    }
    if tracer is None:
        metrics = end_to_end(reps, probes)
    else:
        metrics = per_layer(reps, tracer, probes)
        n = sum(1 for r in reps if r["traced"] and "wall_s" in r)
        report["self_time_sum_s"] = sum(tracer.self_s.values()) / n
        report["spans"] = str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(report["spans"])
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
