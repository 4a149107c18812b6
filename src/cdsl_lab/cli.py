"""Command-line front end: run experiments, sweeps, ablations, and reports.

Config files are flat key=value lines mirroring RunConfig; `--set key=value`
overrides apply after the file, last one wins, and `run --seed` wins over
both. The CDSL_LAB_SEED environment variable supplies a default seed when
nothing else sets one; `sweep` and `ablate` always run SWEEP_SEEDS instead.
Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
Timestamps and the command line live only in run.meta so every other output
byte is a pure function of the config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import protocol
from .protocol import MetricsReport, RunConfig

SWEEP_PARAMS = ("r_con", "r_top", "r_top_prime")
SWEEP_SEEDS = (2022, 2023, 2024)
SEED_ENV_VAR = "CDSL_LAB_SEED"


class UsageError(ValueError):
    """Bad flags or config; maps to exit code 2."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return lowered == "true"


def _parse_tuple(text: str) -> tuple[int, ...] | None:
    if text.lower() == "none":
        return None
    return tuple(int(part) for part in text.split(","))


def _kind(hint) -> type:
    if get_origin(hint) is UnionType:  # X | None
        (hint,) = (a for a in get_args(hint) if a is not type(None))
    return get_origin(hint) or hint


# RunConfig field name -> int, float, bool, str or tuple, read from its annotation
FIELD_KINDS: dict[str, type] = {name: _kind(hint)
                                for name, hint in get_type_hints(RunConfig).items()}
_TEXT_PARSERS = {int: int, float: float, bool: _parse_bool, str: str, tuple: _parse_tuple}


def parse_value(key: str, text: str):
    """One config value from its textual form, typed per RunConfig field."""
    if key not in FIELD_KINDS:
        raise UsageError(f"unknown key {key!r}")
    try:
        return _TEXT_PARSERS[FIELD_KINDS[key]](text)
    except ValueError as exc:
        raise UsageError(f"field {key}: {exc}") from exc


def parse_config_file(path) -> dict:
    """Flat key=value document; # comments and blank lines allowed."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"config {path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config {path} line {lineno}: expected key=value, "
                             f"got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            out[key] = parse_value(key, value)
        except UsageError as exc:
            raise UsageError(f"config {path} line {lineno}: {exc}") from exc
    return out


def build_config(args) -> RunConfig:
    data = {}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            data["seed"] = int(env_seed)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from exc
    if args.config is not None:
        data.update(parse_config_file(args.config))
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set {item!r}: expected key=value")
        data[key.strip()] = parse_value(key.strip(), value.strip())
    if getattr(args, "seed", None) is not None:  # only `run` has --seed
        data["seed"] = args.seed
    try:
        cfg = RunConfig(**data)
        # unknown preset, bad order, too small a memory or split is a usage error
        protocol.check_sequence(cfg, protocol.resolve_sequence(cfg))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def make_out_dir(path) -> None:
    """Create the output directory before any run, so a bad --out costs no training."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {path}: {exc}") from exc


def _execute_run(payload: tuple[RunConfig, str]) -> dict:
    """Worker for process pools: one run, written to its own directory."""
    cfg, out_dir = payload
    result = protocol.run_cdsl(cfg)
    protocol.write_results(result, out_dir)
    return result.metrics.to_dict()


def _run_many(payloads: list[tuple[RunConfig, str]], jobs: int, out: Path,
              argv: list[str]) -> list[dict]:
    """Every run's metrics, in payload order; run.meta under `out` records
    when they started, how long they took and the command line."""
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    make_out_dir(out)
    started = time.time()
    # the fork start method starts every worker at the first submit
    workers = min(jobs, len(payloads))
    if workers <= 1:
        reports = [_execute_run(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_execute_run, payloads))
    meta = {"started_unix": started, "elapsed_seconds": time.time() - started,
            "argv": argv}
    (out / "run.meta").write_text(json.dumps(meta, indent=2) + "\n")
    return reports


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6f}"


def cmd_run(args) -> int:
    cfg = build_config(args)
    (m,) = _run_many([(cfg, args.out)], 1, Path(args.out), args.argv)
    print(f"wrote {args.out}")
    print(f"tdg_avg={_fmt(m['tdg_avg'])} tda_avg={_fmt(m['tda_avg'])} "
          f"fa_avg={_fmt(m['fa_avg'])}")
    return 0


def cmd_sweep(args) -> int:
    cfg = build_config(args)
    if args.param not in SWEEP_PARAMS:
        raise UsageError(f"--param must be one of {SWEEP_PARAMS}, got {args.param!r}")
    texts = [v.strip() for v in args.values.split(",") if v.strip() != ""]
    try:
        values = [float(t) for t in texts]
    except ValueError as exc:
        raise UsageError(f"--values: {exc}") from exc
    if not values:
        raise UsageError("--values: empty list")

    out = Path(args.out)
    payloads = []
    first_text = {}  # directory label -> the value text first written under it
    for text, value in zip(texts, values):
        label = f"{value:g}"
        if label in first_text:
            raise UsageError(f"--values: {first_text[label]} and {text} would share "
                             f"the directory {args.param}={label}")
        first_text[label] = text
        try:
            swept = replace(cfg, **{args.param: value})
            protocol.check_sequence(swept, protocol.resolve_sequence(swept))
        except ValueError as exc:
            raise UsageError(f"--values: {exc}") from exc
        for seed in SWEEP_SEEDS:
            sub = out / f"{args.param}={label}" / f"seed{seed}"
            payloads.append((replace(swept, seed=seed), str(sub)))
    reports = _run_many(payloads, args.jobs, out, args.argv)

    per_value = [reports[i:i + len(SWEEP_SEEDS)]
                 for i in range(0, len(reports), len(SWEEP_SEEDS))]
    lines = ["value,tdg_mean,tda_mean,fa_mean"]
    print(f"{args.param:>12}  tdg_mean  tda_mean  fa_mean")
    for value, group in zip(values, per_value):
        means = [sum(r[k] for r in group) / len(group)
                 for k in ("tdg_avg", "tda_avg", "fa_avg")]
        lines.append(f"{value:g}," + ",".join(f"{m:.6f}" for m in means))
        print(f"{value:>12g}  " + "  ".join(f"{m:.6f}" for m in means))
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'summary.csv'}")
    return 0


def cmd_ablate(args) -> int:
    cfg = build_config(args)
    if args.variant not in protocol.ABLATION_VARIANTS:
        raise UsageError(f"--variant must be one of {protocol.ABLATION_VARIANTS}, "
                         f"got {args.variant!r}")
    out = Path(args.out)
    payloads = []
    for seed in SWEEP_SEEDS:
        seeded = replace(cfg, seed=seed)
        payloads.append((seeded, str(out / "full" / f"seed{seed}")))
        payloads.append((protocol.variant_config(seeded, args.variant),
                         str(out / args.variant / f"seed{seed}")))
    reports = _run_many(payloads, args.jobs, out, args.argv)

    lines = ["seed,full_tdg,ablated_tdg,delta_tdg,full_tda,ablated_tda,delta_tda,"
             "full_fa,ablated_fa,delta_fa"]
    print(f"variant: {args.variant}   (delta = full - ablated)")
    print("seed      d_tdg      d_tda      d_fa")
    sums = [0.0] * 9
    for i, seed in enumerate(SWEEP_SEEDS):
        full, abl = reports[2 * i], reports[2 * i + 1]
        cells = []
        for key in ("tdg_avg", "tda_avg", "fa_avg"):
            cells.extend([full[key], abl[key], full[key] - abl[key]])
        sums = [s + c for s, c in zip(sums, cells)]
        lines.append(f"{seed}," + ",".join(f"{c:.6f}" for c in cells))
        print(f"{seed}  {cells[2]:+9.6f}  {cells[5]:+9.6f}  {cells[8]:+9.6f}")
    means = [s / len(SWEEP_SEEDS) for s in sums]
    lines.append("mean," + ",".join(f"{m:.6f}" for m in means))
    print(f"mean  {means[2]:+9.6f}  {means[5]:+9.6f}  {means[8]:+9.6f}")
    (out / "ablation.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'ablation.csv'}")
    return 0


def metrics_to_csv(metrics: MetricsReport) -> str:
    n = len(metrics.tda)
    header = "metric," + ",".join(f"domain_{j}" for j in range(n)) + ",avg"
    rows = [header]
    for name, cells, avg in (("tdg", metrics.tdg, metrics.tdg_avg),
                             ("tda", metrics.tda, metrics.tda_avg),
                             ("fa", metrics.fa, metrics.fa_avg)):
        text = [("" if c is None else f"{c:.17g}") for c in cells]
        text.append("" if avg is None else f"{avg:.17g}")
        rows.append(f"{name}," + ",".join(text))
    return "\n".join(rows) + "\n"


def render_text_report(metrics: MetricsReport) -> str:
    n = len(metrics.tda)
    header = ["metric"] + [f"domain_{j}" for j in range(n)]
    rows = [header]
    for name, cells in (("tdg", metrics.tdg), ("tda", metrics.tda),
                        ("fa", metrics.fa)):
        rows.append([name] + [_fmt(c) for c in cells])
    widths = [max(len(r[i]) for r in rows) for i in range(n + 1)]
    out = [" ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
           for row in rows]
    out.append("")
    for name, avg in (("tdg_avg", metrics.tdg_avg), ("tda_avg", metrics.tda_avg),
                      ("fa_avg", metrics.fa_avg)):
        out.append(f"{name} {_fmt(avg)}")
    return "\n".join(out) + "\n"


def cmd_report(args) -> int:
    path = Path(args.results_dir) / "metrics.json"
    if not path.is_file():
        raise UsageError(f"no metrics.json under {args.results_dir}")
    try:
        metrics = MetricsReport(**json.loads(path.read_text()))  # keys are the field names
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{path} is not a metrics report: {exc}") from exc
    if args.format == "json":
        print(json.dumps(metrics.to_dict(), indent=2, sort_keys=True))
    elif args.format == "csv":
        print(metrics_to_csv(metrics), end="")
    else:
        print(render_text_report(metrics), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdsl-lab",
        description="Continual domain shift learning experiments on synthetic "
                    "domain sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="config override, repeatable, last wins")

    p_run = sub.add_parser("run", help="single experiment")
    common(p_run)
    p_run.add_argument("--seed", type=int, help="root seed (wins over config)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="one hyperparameter over fixed seeds")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help=f"one of {', '.join(SWEEP_PARAMS)}")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_abl = sub.add_parser("ablate", help="paired full-vs-ablated runs")
    common(p_abl)
    p_abl.add_argument("--variant", required=True,
                       help=f"one of {', '.join(protocol.ABLATION_VARIANTS)}")
    p_abl.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes")
    p_abl.set_defaults(func=cmd_ablate)

    p_rep = sub.add_parser("report", help="render metrics from a results dir")
    p_rep.add_argument("results_dir")
    p_rep.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # run.meta records the command that ran
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
