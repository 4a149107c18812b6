"""Command-line front end: run experiments, sweeps, ablations, and reports.

Settings enter a run one way: the config file, then each `--set` item in
order, last one wins. Config-file lines and `--set` items share one key=value
grammar, typed per RunConfig field; `sweep` applies each `--values` entry as
one more such item. `sweep` and `ablate` run every config over the SWEEP_SEEDS
panel, replacing its seed. Exit codes: 0 success, 1 runtime failure, 2 usage
or config error. Timestamps and the command line live only in run.meta so
every other output byte is a pure function of the config.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import protocol
from .protocol import METRICS, MetricsReport, RunConfig

SWEEP_PARAMS = ("r_con", "r_top", "r_top_prime")
SWEEP_SEEDS = (2022, 2023, 2024)
AVERAGES = tuple(f"{name}_avg" for name in METRICS)


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


def parse_item(text: str, where: str) -> tuple[str, object]:
    """One `key=value` item as (key, typed value); errors start with `where`."""
    key, sep, value = text.partition("=")
    if not sep:
        raise UsageError(f"{where}: expected key=value, got {text!r}")
    try:
        return key.strip(), parse_value(key.strip(), value.strip())
    except UsageError as exc:
        raise UsageError(f"{where}: {exc}") from exc


def parse_config_file(path) -> dict:
    """Flat key=value document in UTF-8; # comments and blank lines allowed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"config {path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            key, value = parse_item(line, f"config {path} line {lineno}")
            out[key] = value
    return out


def build_config(args, *extra: tuple[str, str]) -> RunConfig:
    """The config file, then each `--set` item, then each `(item, where)` pair
    of `extra`, in order; a later key wins."""
    data = {} if args.config is None else parse_config_file(args.config)
    items = [(item, f"--set {item!r}") for item in args.set] + list(extra)
    data.update(parse_item(item, where) for item, where in items)
    try:
        cfg = RunConfig(**data)
        # unknown preset, bad order, too small a memory or split is a usage error
        protocol.check_sequence(cfg, protocol.resolve_sequence(cfg))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


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
    try:  # before any run, so a bad --out costs no training
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {out}: {exc}") from exc
    started = time.time()
    # the fork start method starts every worker at the first submit
    workers = min(jobs, len(payloads))
    if workers <= 1:
        reports = [_execute_run(p) for p in payloads]
    else:
        # imported here: `run` and `--jobs 1` start no pool and skip its import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_execute_run, payloads))
    meta = {"started_unix": started, "elapsed_seconds": time.time() - started,
            "argv": argv}
    (out / "run.meta").write_text(json.dumps(meta, indent=2) + "\n")
    return reports


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6f}"


def text_table(rows: list[list[str]]) -> str:
    """The console counterpart of `protocol.csv_text`: each column as wide as its widest
    cell, two spaces apart, the first left-aligned and the rest right-aligned; no final LF."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.rjust(w) if i else cell.ljust(w)
                              for i, (cell, w) in enumerate(zip(row, widths))).rstrip()
                     for row in rows)


def cmd_run(args) -> int:
    cfg = build_config(args)
    (m,) = _run_many([(cfg, args.out)], 1, Path(args.out), args.argv)
    print(f"wrote {args.out}")
    print(" ".join(f"{key}={_fmt(m[key])}" for key in AVERAGES))
    return 0


def _run_panel(cfgs: dict[str, RunConfig], args) -> dict[str, list[dict]]:
    """Run every config at every SWEEP_SEEDS seed into out/<name>/seed<seed>;
    returns each name's metrics in seed order."""
    out = Path(args.out)
    payloads = [(replace(cfg, seed=seed), str(out / name / f"seed{seed}"))
                for name, cfg in cfgs.items() for seed in SWEEP_SEEDS]
    reports = iter(_run_many(payloads, args.jobs, out, args.argv))
    return {name: [next(reports) for _ in SWEEP_SEEDS] for name in cfgs}


def _means(rows: list[list[float]]) -> list[float]:
    """Column means: each column's plain sum divided by the row count."""
    return [sum(column) / len(rows) for column in zip(*rows)]


def _write_table(path: Path, header: list[str], rows: list[tuple[str, list[float]]]) -> None:
    path.write_text(protocol.csv_text(header, [[label, *map(_fmt, c)] for label, c in rows]))
    print(f"wrote {path}")


def cmd_sweep(args) -> int:
    texts = [v.strip() for v in args.values.split(",") if v.strip() != ""]
    if not texts:
        raise UsageError("--values: empty list")
    swept = {}  # directory name -> config
    first_text = {}  # directory name -> the value text first written under it
    for text in texts:
        cfg = build_config(args, (f"{args.param}={text}", "--values"))
        name = f"{args.param}={getattr(cfg, args.param):g}"
        if name in first_text:
            raise UsageError(f"--values: {first_text[name]} and {text} would share "
                             f"the directory {name}")
        first_text[name] = text
        swept[name] = cfg
    panel = _run_panel(swept, args)

    table = [(name.partition("=")[2], _means([[r[k] for k in AVERAGES] for r in reports]))
             for name, reports in panel.items()]
    means = [f"{name}_mean" for name in METRICS]
    print(text_table([[args.param, *means], *([value, *map(_fmt, c)] for value, c in table)]))
    _write_table(Path(args.out) / "summary.csv", ["value", *means], table)
    return 0


def cmd_ablate(args) -> int:
    cfg = build_config(args)
    panel = _run_panel({"full": cfg,
                        args.variant: protocol.variant_config(cfg, args.variant)}, args)

    rows = [[x for k in AVERAGES for x in (full[k], abl[k], full[k] - abl[k])]
            for full, abl in zip(panel["full"], panel[args.variant])]
    table = [*zip(map(str, SWEEP_SEEDS), rows), ("mean", _means(rows))]
    print(f"variant: {args.variant}   (delta = full - ablated)")
    print(text_table([["seed", *(f"d_{name}" for name in METRICS)],
                      *([label, *(f"{d:+.6f}" for d in cells[2::3])] for label, cells in table)]))
    _write_table(Path(args.out) / "ablation.csv", ["seed", *(
        f"{kind}_{name}" for name in METRICS for kind in ("full", "ablated", "delta"))], table)
    return 0


def _metric_rows(metrics: MetricsReport) -> list[tuple[str, list, float | None]]:
    """The (name, per-domain cells, average) rows that both report formats print."""
    return [(name, getattr(metrics, name), getattr(metrics, f"{name}_avg")) for name in METRICS]


def metrics_to_csv(metrics: MetricsReport) -> str:
    header = ["metric", *(f"domain_{j}" for j in range(len(metrics.tda))), "avg"]
    return protocol.csv_text(header, [[name, *("" if c is None else f"{c:.17g}"
                                               for c in [*cells, avg])]
                                      for name, cells, avg in _metric_rows(metrics)])


def render_text_report(metrics: MetricsReport) -> str:
    """The metric table, a blank line, then the `<name>_avg` table."""
    rows = _metric_rows(metrics)
    return (text_table([["metric", *(f"domain_{j}" for j in range(len(metrics.tda)))],
                        *([name, *map(_fmt, cells)] for name, cells, _ in rows)])
            + "\n\n" + text_table([[f"{name}_avg", _fmt(avg)] for name, _, avg in rows]) + "\n")


REPORT_FORMATS = {"text": render_text_report, "csv": metrics_to_csv}


def cmd_report(args) -> int:
    path = Path(args.results_dir) / "metrics.json"
    if not path.is_file():
        raise UsageError(f"no metrics.json under {args.results_dir}")
    try:
        metrics = MetricsReport(**json.loads(path.read_text()))  # keys are the field names
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{path} is not a metrics report: {exc}") from exc
    print(REPORT_FORMATS[args.format](metrics), end="")
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
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="one hyperparameter over fixed seeds")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS,
                         help="swept hyperparameter")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_abl = sub.add_parser("ablate", help="paired full-vs-ablated runs")
    common(p_abl)
    p_abl.add_argument("--variant", required=True, choices=protocol.ABLATION_VARIANTS,
                       help="ablated ingredient")
    p_abl.set_defaults(func=cmd_ablate)
    for p in (p_sweep, p_abl):  # the seed-panel commands
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p_rep = sub.add_parser("report", help="render metrics from a results dir")
    p_rep.add_argument("results_dir")
    p_rep.add_argument("--format", choices=REPORT_FORMATS, default="text")
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
