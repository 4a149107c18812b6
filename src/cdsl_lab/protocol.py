"""Experiment protocol: staged training over a domain sequence.

Stage 0 trains on the labeled source (with full-batch augmentation and the
source-form objective), every later stage adapts to one unlabeled target
using pseudo labels, replayed exemplars, gated augmentation, and the full
objective against the frozen previous-stage model. After each stage the
model is evaluated on every domain, filling one row of the accuracy matrix
that the transfer metrics are computed from.

Determinism: one root seed fans out to named streams (data, init, randmix,
replay, labeler), so a run is a pure function of its config and disabling
one ingredient never shifts the draws of another.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from . import diffcore as dc
from . import labeler as labeler_mod
from . import memory as memory_mod
from . import nets, objective, randmix, synthdata

STREAM_DATA, STREAM_INIT, STREAM_RANDMIX, STREAM_REPLAY, STREAM_LABELER = range(5)

ABLATION_VARIANTS = ("no_randmix", "labeler=softmax", "labeler=shot_style", "no_pca")


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class RunConfig:
    sequence: str = "rot5"
    order: tuple[int, ...] | None = None
    seed: int = 2022
    epochs: int = 30
    steps_per_epoch: int = 25
    batch_size: int = 64
    replay_n: int = 16
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    hidden: tuple[int, ...] = (64, 64)
    bottleneck: tuple[int, int] = (32, 16)
    n_aug: int = 4
    r_con: float = 0.8
    r_top: float = 2.0
    r_top_prime: float = 20.0
    labeler_method: str = "t2pl"
    memory_capacity: int = 200
    source_fraction: float = 0.8
    distill_on: str = "logits"
    disable_randmix: bool = False
    disable_pca: bool = False
    stationary: bool = False
    include_pretrain_row: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"config: epochs must be non-negative, got {self.epochs}")
        if self.steps_per_epoch < 1:
            raise ValueError(f"config: steps_per_epoch must be positive, got {self.steps_per_epoch}")
        if self.batch_size < 2:
            raise ValueError(f"config: batch_size must be at least 2, got {self.batch_size}")
        if not 0 <= self.replay_n < self.batch_size:
            raise ValueError(
                f"config: replay_n must be in [0, batch_size), got {self.replay_n}")
        if not 0.0 < self.source_fraction < 1.0:
            raise ValueError(
                f"config: source_fraction must be in (0, 1), got {self.source_fraction}")
        if self.distill_on not in objective.DISTILL_MODES:
            raise ValueError(
                f"config: distill_on must be one of {objective.DISTILL_MODES}, "
                f"got {self.distill_on!r}")
        # eager sub-config construction surfaces bad values before a run starts
        self.sgd_config()
        self.randmix_config(image_side=None)
        self.labeler_config()

    def sgd_config(self) -> dc.SgdConfig:
        return dc.SgdConfig(learning_rate=self.learning_rate, momentum=self.momentum,
                            weight_decay=self.weight_decay)

    def randmix_config(self, image_side: int | None) -> randmix.RandMixConfig:
        return randmix.RandMixConfig(n_aug=self.n_aug, r_con=self.r_con,
                                     image_side=image_side)

    def labeler_config(self) -> labeler_mod.LabelerConfig:
        return labeler_mod.LabelerConfig(r_top=self.r_top, r_top_prime=self.r_top_prime,
                                         method=self.labeler_method)

    def to_dict(self) -> dict:
        out = asdict(self)
        for name, kind in FIELD_KINDS.items():
            if kind is tuple and out[name] is not None:
                out[name] = list(out[name])
        return out

    @classmethod
    def from_dict(cls, mapping: dict) -> "RunConfig":
        unknown = set(mapping) - set(FIELD_KINDS)
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        coerced = {}
        for name, kind in FIELD_KINDS.items():
            if name not in mapping:
                continue
            accepts, convert, noun = _COERCE[kind]
            value = mapping[name]
            if not accepts(value):
                raise ValueError(f"config: {name} must be {noun}, got {value!r}")
            coerced[name] = convert(value)
        return cls(**coerced)


def _kind(hint) -> type:
    if get_origin(hint) in (Union, UnionType):  # X | None
        (hint,) = (a for a in get_args(hint) if a is not type(None))
    return get_origin(hint) or hint


# RunConfig field name -> int, float, bool, str or tuple, read from its annotation
FIELD_KINDS: dict[str, type] = {name: _kind(hint)
                                for name, hint in get_type_hints(RunConfig).items()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# kind -> (accepts a decoded value, converts it, what an error calls the kind)
_COERCE = {
    int: (lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()), int,
          "an integer"),
    float: (_is_number, float, "a number"),
    bool: (lambda v: isinstance(v, bool), bool, "a boolean"),
    str: (lambda v: isinstance(v, str), str, "a string"),
    tuple: (lambda v: v is None or isinstance(v, (list, tuple)),
            lambda v: None if v is None else tuple(int(x) for x in v),
            "a list of integers"),
}


@dataclass
class AccuracyMatrix:
    """Rows: model state after each training stage. Columns: domains."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"matrix: expected 2-d values, got shape {self.values.shape}")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ValueError("matrix: accuracies must lie in [0, 1]")

    @property
    def stages(self) -> int:
        return self.values.shape[0]

    @property
    def domains(self) -> int:
        return self.values.shape[1]


@dataclass
class MetricsReport:
    tdg: list[float | None]
    tda: list[float]
    fa: list[float | None]
    tdg_avg: float | None
    tda_avg: float
    fa_avg: float | None

    def to_dict(self) -> dict:
        return {"tdg": self.tdg, "tda": self.tda, "fa": self.fa,
                "tdg_avg": self.tdg_avg, "tda_avg": self.tda_avg,
                "fa_avg": self.fa_avg}

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(tdg=list(d["tdg"]), tda=list(d["tda"]), fa=list(d["fa"]),
                   tdg_avg=d["tdg_avg"], tda_avg=d["tda_avg"], fa_avg=d["fa_avg"])


def compute_metrics(matrix: AccuracyMatrix | np.ndarray) -> MetricsReport:
    """Per-domain transfer metrics from the stage-by-domain accuracy matrix.

    Generalization to a domain averages the rows before its stage, adaptation
    is the diagonal entry, and forgetting averages the rows after.
    """
    values = matrix.values if isinstance(matrix, AccuracyMatrix) else np.asarray(matrix)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"metrics: need a square stage-by-domain matrix, got {values.shape}")
    n = values.shape[0]
    tdg: list[float | None] = [None if j == 0 else float(values[:j, j].mean())
                               for j in range(n)]
    tda = [float(values[j, j]) for j in range(n)]
    fa: list[float | None] = [float(values[j + 1:, j].mean()) if j < n - 1 else None
                              for j in range(n)]
    def avg(xs):
        defined = [x for x in xs if x is not None]
        return float(np.mean(defined)) if defined else None
    return MetricsReport(tdg=tdg, tda=tda, fa=fa, tdg_avg=avg(tdg),
                         tda_avg=float(np.mean(tda)), fa_avg=avg(fa))


@dataclass
class RunResult:
    config: RunConfig
    matrix: AccuracyMatrix
    metrics: MetricsReport
    logs: dict
    model: nets.Network
    memory: memory_mod.ExemplarMemory | None


def resolve_sequence(cfg: RunConfig) -> synthdata.DomainSequence:
    presets = synthdata.standard_sequences()
    if cfg.sequence not in presets:
        raise ValueError(f"config: unknown sequence {cfg.sequence!r}, "
                         f"expected one of {sorted(presets)}")
    seq = presets[cfg.sequence]
    if cfg.order is None:
        return seq
    if sorted(cfg.order) != list(range(len(seq.specs))):
        raise ValueError(f"config: order {cfg.order} is not a permutation of "
                         f"0..{len(seq.specs) - 1}")
    return synthdata.DomainSequence(f"{seq.name}@{','.join(map(str, cfg.order))}",
                                    [seq.specs[i] for i in cfg.order], seq.seed)


def _accuracy(net: nets.Network, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(nets.predict_labels(net, x) == y))


def run_cdsl(cfg: RunConfig,
             sequence: synthdata.DomainSequence | None = None) -> RunResult:
    """Train through the whole sequence and fill the accuracy matrix.

    The stationary flag reduces the target stages to plain adaptation:
    no replay memory, no distillation, contrastive term in source form.
    """
    seq = resolve_sequence(cfg) if sequence is None else sequence
    datasets = [synthdata.generate(spec, rng_for(cfg.seed, STREAM_DATA, 10 + i))
                for i, spec in enumerate(seq.specs)]
    src_x, src_y = datasets[0]
    tr_x, tr_y, te_x, te_y = synthdata.split_source(
        src_x, src_y, cfg.source_fraction, rng_for(cfg.seed, STREAM_DATA, 1))

    batch_rng = rng_for(cfg.seed, STREAM_DATA, 2)
    init_rng = rng_for(cfg.seed, STREAM_INIT)
    randmix_rng = rng_for(cfg.seed, STREAM_RANDMIX)
    replay_rng = rng_for(cfg.seed, STREAM_REPLAY)

    image_side = synthdata.BITMAP_SIDE if seq.specs[0].kind == "bitmap8" else None
    rm_cfg = cfg.randmix_config(image_side)
    lab_cfg = cfg.labeler_config()
    sgd_cfg = cfg.sgd_config()

    model = nets.build_network(seq.input_dim, seq.classes, init_rng,
                               hidden=cfg.hidden, bottleneck=cfg.bottleneck)
    previous: nets.Network | None = None  # frozen snapshot after the last stage
    memory_enabled = not cfg.stationary
    mem = memory_mod.ExemplarMemory(cfg.memory_capacity) if memory_enabled else None
    sgd_state: dc.SgdState | None = None
    params = nets.parameters(model)

    eval_sets = [(te_x, te_y) if i == 0 else datasets[i]
                 for i in range(len(seq.specs))]
    logs: dict = {"train_log": [], "label_log": [], "stage_log": [], "admissions": []}
    if cfg.include_pretrain_row:
        logs["pretrain_row"] = [_accuracy(model, ex, ey) for ex, ey in eval_sets]

    def train_step(stage: int, epoch: int, step: int, batch_x, batch_y, stage_kind):
        nonlocal sgd_state
        with dc.Tape() as tape:
            ctx = objective.build_context(model, previous, batch_x, batch_y,
                                          distill_on=cfg.distill_on)
            total, parts = objective.total_loss(
                ctx, stage_kind,
                disable_pca=cfg.disable_pca,
                force_source_pca=cfg.stationary,
                disable_distill=cfg.stationary)
        losses = {"ce": parts.ce, "pca": parts.pca, "dis": parts.dis, "total": parts.total}
        if not np.isfinite(list(losses.values())).all():
            values = " ".join(f"{k}={v!r}" for k, v in losses.items())
            raise FloatingPointError(
                f"non-finite loss at stage {stage} epoch {epoch} step {step}: {values}")
        dc.zero_grads(params)
        dc.backward(tape, total, params=params)
        sgd_state = dc.sgd_step(params, sgd_cfg, sgd_state)
        logs["train_log"].append({"stage": stage, "epoch": epoch, "step": step, **losses})

    def draw_batch(rng, x, y, size):
        idx = rng.choice(x.shape[0], size=size, replace=size > x.shape[0])
        return x[idx], y[idx]

    matrix_rows = []
    for stage, spec in enumerate(seq.specs):
        dom_x, dom_y = datasets[stage]
        if stage == 0:
            for epoch in range(cfg.epochs):
                for step in range(cfg.steps_per_epoch):
                    bx, by = draw_batch(batch_rng, tr_x, tr_y, cfg.batch_size)
                    px, py = bx, by
                    if not cfg.disable_randmix:
                        ax, ay = randmix.augment_batch(model, bx, by, rm_cfg,
                                                       "source", randmix_rng)
                        px = np.vstack([bx, ax])
                        py = np.concatenate([by, ay])
                    train_step(stage, epoch, step, px, py, "source")
            admit_x, admit_y = tr_x, tr_y
        else:
            pls = None
            for epoch in range(cfg.epochs):
                pls = labeler_mod.assign_labels(model, dom_x, lab_cfg, stage)
                logs["label_log"].append({
                    "stage": stage, "epoch": epoch, "domain": stage,
                    "method": pls.method,
                    "accuracy": float(np.mean(pls.labels == dom_y))})
                if epoch == 0:
                    baseline = labeler_mod.softmax_labels(model, dom_x, stage)
                    logs["label_log"].append({
                        "stage": stage, "epoch": epoch, "domain": stage,
                        "method": "softmax_baseline",
                        "accuracy": float(np.mean(baseline.labels == dom_y))})
                for step in range(cfg.steps_per_epoch):
                    take_replay = (memory_enabled and cfg.replay_n > 0
                                   and mem.total() > 0)
                    cur_n = cfg.batch_size - (cfg.replay_n if take_replay else 0)
                    bx, by = draw_batch(batch_rng, dom_x, pls.labels, cur_n)
                    pieces_x, pieces_y = [bx], [by]
                    if take_replay:
                        rx, ry, _ = memory_mod.replay_batch(mem, cfg.replay_n, replay_rng)
                        pieces_x.append(rx)
                        pieces_y.append(ry)
                    if not cfg.disable_randmix:
                        ax, ay = randmix.augment_batch(model, bx, by, rm_cfg,
                                                       "target", randmix_rng)
                        if ax.shape[0]:
                            pieces_x.append(ax)
                            pieces_y.append(ay)
                    train_step(stage, epoch, step,
                               np.vstack(pieces_x), np.concatenate(pieces_y), "target")
            if pls is None:  # zero-epoch run still needs labels for admission
                pls = labeler_mod.assign_labels(model, dom_x, lab_cfg, stage)
            admit_x, admit_y = dom_x, pls.labels

        if memory_enabled:
            record = memory_mod.admit_domain(mem, model, admit_x, admit_y, stage)
            record["stage"] = stage
            logs["admissions"].append(record)
        previous = nets.snapshot(model)
        row = [_accuracy(model, ex, ey) for ex, ey in eval_sets]
        matrix_rows.append(row)
        logs["stage_log"].append({
            "stage": stage, "domain": stage,
            "snapshot_hash": nets.param_hash(previous),
            "memory_total": mem.total() if memory_enabled else 0,
            "bucket_sizes": {d: len(mem.buckets[d]) for d in mem.domains()}
            if memory_enabled else {}})

    matrix = AccuracyMatrix(np.array(matrix_rows))
    return RunResult(config=cfg, matrix=matrix, metrics=compute_metrics(matrix),
                     logs=logs, model=model, memory=mem)


def run_stationary(cfg: RunConfig, source: synthdata.DomainSpec,
                   target: synthdata.DomainSpec) -> float:
    """Single-shot adaptation accuracy on one source/target pair."""
    seq = synthdata.DomainSequence("stationary", [source, target])
    result = run_cdsl(replace(cfg, stationary=True), sequence=seq)
    return float(result.matrix.values[1, 1])


def variant_config(cfg: RunConfig, variant: str) -> RunConfig:
    """The config for one ablation variant; everything else untouched."""
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"protocol: unknown ablation {variant!r}, "
                         f"expected one of {ABLATION_VARIANTS}")
    if variant == "no_randmix":
        return replace(cfg, disable_randmix=True)
    if variant == "no_pca":
        return replace(cfg, disable_pca=True)
    return replace(cfg, labeler_method=variant.split("=", 1)[1])


def ablate(cfg: RunConfig, variant: str) -> RunResult:
    """Run with one ingredient removed; every RNG stream else is untouched."""
    return run_cdsl(variant_config(cfg, variant))


def write_results(result: RunResult, out_dir) -> None:
    """Deterministic results tree: matrix, metrics, training log, config echo."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = result.matrix.values
    with open(out / "matrix.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"domain_{j}" for j in range(values.shape[1])])
        for row in values:
            writer.writerow([f"{v:.6f}" for v in row])
    (out / "metrics.json").write_text(
        json.dumps(result.metrics.to_dict(), indent=2, sort_keys=True) + "\n")
    with open(out / "train_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "epoch", "step", "ce", "pca", "dis", "total"])
        for row in result.logs["train_log"]:
            writer.writerow([row["stage"], row["epoch"], row["step"],
                             f"{row['ce']:.17g}", f"{row['pca']:.17g}",
                             f"{row['dis']:.17g}", f"{row['total']:.17g}"])
    (out / "config.resolved.json").write_text(
        json.dumps(result.config.to_dict(), indent=2, sort_keys=True) + "\n")


def load_metrics(results_dir) -> MetricsReport:
    payload = json.loads((Path(results_dir) / "metrics.json").read_text())
    return MetricsReport.from_dict(payload)
