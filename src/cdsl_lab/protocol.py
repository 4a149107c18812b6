"""Experiment protocol: staged training over a domain sequence.

Every stage runs the same loop: batches of the stage's training rows,
replayed exemplars once the memory holds any, RandMix augmentation, and
the objective against the frozen previous-stage model when there is one.
Stage 0 trains on the labeled source with its true labels and augments
every row; every later stage adapts to one unlabeled target with pseudo
labels assigned once per epoch and augments only confident rows. After each
stage the model is evaluated on every domain, filling one row of the
accuracy matrix that the transfer metrics are computed from.

Determinism: one root seed fans out to named streams (data, init, randmix,
replay), so a run is a pure function of its config and disabling one
ingredient never shifts the draws of another.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import diffcore as dc
from . import labeler as labeler_mod
from . import memory as memory_mod
from . import nets, objective, randmix, synthdata

STREAM_DATA, STREAM_INIT, STREAM_RANDMIX, STREAM_REPLAY = range(4)

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
    bottleneck: tuple[int, int] | None = (32, 16)
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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config: {f.name} must be finite, got {value}")
        if self.seed < 0:
            raise ValueError(f"config: seed must be non-negative, got {self.seed}")
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
        if self.hidden is None:
            raise ValueError("config: hidden must be a list of integers, got None")
        if self.bottleneck is not None and len(self.bottleneck) != 2:
            raise ValueError("config: bottleneck must be a list of 2 integers or none, "
                             f"got {self.bottleneck}")
        for name in ("hidden", "bottleneck"):
            widths = getattr(self, name) or ()
            if any(w < 1 for w in widths):
                raise ValueError(f"config: {name} widths must be positive, got {widths}")
        if self.memory_capacity < 1:
            raise ValueError(
                f"config: memory_capacity must be positive, got {self.memory_capacity}")
        if self.distill_on not in objective.DISTILL_MODES:
            raise ValueError(
                f"config: distill_on must be one of {objective.DISTILL_MODES}, "
                f"got {self.distill_on!r}")
        if self.labeler_method not in labeler_mod.METHODS:
            raise ValueError(
                f"config: labeler_method must be one of {labeler_mod.METHODS}, "
                f"got {self.labeler_method!r}")
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
        return asdict(self)  # tuples serialize as JSON lists


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


@dataclass
class MetricsReport:
    tdg: list[float | None]
    tda: list[float]
    fa: list[float | None]
    tdg_avg: float | None
    tda_avg: float
    fa_avg: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def compute_metrics(values: np.ndarray) -> MetricsReport:
    """Per-domain transfer metrics from the stage-by-domain accuracy matrix.

    Generalization to a domain averages the rows before its stage, adaptation
    is the diagonal entry, and forgetting averages the rows after.
    """
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
                                    [seq.specs[i] for i in cfg.order])


def _accuracy(net: nets.Network, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(nets.predict_labels(net, x) == y))


def check_sequence(cfg: RunConfig, seq: synthdata.DomainSequence) -> None:
    """The replay memory must keep at least one exemplar of every domain, the
    source split at least one training row, and t2pl at least one neighbour
    on every target domain."""
    if not cfg.stationary and cfg.memory_capacity < len(seq.specs):
        raise ValueError(f"config: memory_capacity {cfg.memory_capacity} cannot hold "
                         f"one exemplar of each of {len(seq.specs)} domains")
    rows = seq.specs[0].samples
    if int(rows * cfg.source_fraction) < 1:
        raise ValueError(f"config: source_fraction {cfg.source_fraction} leaves no "
                         f"training row of the {rows} source rows")
    if cfg.labeler_method == "t2pl":
        for spec in seq.specs[1:]:
            if labeler_mod.t2pl_kappa(spec.samples, spec.classes, cfg.r_top_prime) < 1:
                raise ValueError(f"config: r_top_prime {cfg.r_top_prime} leaves t2pl no "
                                 f"neighbour on a target domain of {spec.samples} rows")


def run_cdsl(cfg: RunConfig,
             sequence: synthdata.DomainSequence | None = None) -> RunResult:
    """Train through the whole sequence and fill the accuracy matrix.

    One loop serves every stage (see the module docstring). The stationary
    flag keeps no memory and hands the objective no previous model: plain
    adaptation, no replay, no distillation, contrastive term in source form.
    """
    seq = resolve_sequence(cfg) if sequence is None else sequence
    check_sequence(cfg, seq)
    datasets = [synthdata.generate(spec, rng_for(cfg.seed, STREAM_DATA, 10 + i))
                for i, spec in enumerate(seq.specs)]
    src_x, src_y = datasets[0]
    tr_x, tr_y, te_x, te_y = synthdata.split_source(
        src_x, src_y, cfg.source_fraction, rng_for(cfg.seed, STREAM_DATA, 1))

    batch_rng = rng_for(cfg.seed, STREAM_DATA, 2)
    init_rng = rng_for(cfg.seed, STREAM_INIT)
    randmix_rng = rng_for(cfg.seed, STREAM_RANDMIX)
    replay_rng = rng_for(cfg.seed, STREAM_REPLAY)

    rm_cfg = cfg.randmix_config(seq.specs[0].image_side)
    lab_cfg = cfg.labeler_config()
    sgd_cfg = cfg.sgd_config()

    model = nets.build_network(seq.input_dim, seq.classes, init_rng,
                               hidden=cfg.hidden, bottleneck=cfg.bottleneck)
    previous: nets.Network | None = None  # frozen snapshot after the last stage
    memory_enabled = not cfg.stationary
    mem = memory_mod.ExemplarMemory(cfg.memory_capacity) if memory_enabled else None
    velocities: list[np.ndarray] | None = None
    params = nets.parameters(model)

    eval_sets = [(te_x, te_y) if i == 0 else datasets[i]
                 for i in range(len(seq.specs))]
    logs: dict = {"train_log": [], "label_log": [], "stage_log": [], "admissions": []}

    def train_step(stage: int, epoch: int, step: int, batch_x, batch_y):
        nonlocal velocities
        with dc.Tape() as tape:
            ctx = objective.build_context(model, None if cfg.stationary else previous,
                                          batch_x, batch_y, distill_on=cfg.distill_on)
            total, losses = objective.total_loss(ctx, disable_pca=cfg.disable_pca)
        if not np.isfinite(list(losses.values())).all():
            values = " ".join(f"{k}={v!r}" for k, v in losses.items())
            raise FloatingPointError(
                f"non-finite loss at stage {stage} epoch {epoch} step {step}: {values}")
        dc.zero_grads(params)
        dc.backward(tape, total, params=params)
        velocities = dc.sgd_step(params, sgd_cfg, velocities)
        logs["train_log"].append({"stage": stage, "epoch": epoch, "step": step, **losses})

    def pseudo_labels(stage: int, epoch: int, x, y) -> np.ndarray:
        """One target epoch's labels, logged with the softmax baseline's once."""
        pls = labeler_mod.assign_labels(model, x, lab_cfg, stage)
        scored = [(pls.method, pls.labels)]
        if epoch == 0:
            scored.append(("softmax_baseline",
                           labeler_mod.softmax_labels(model, x, stage).labels))
        logs["label_log"].extend(
            {"stage": stage, "epoch": epoch, "domain": stage, "method": method,
             "accuracy": float(np.mean(assigned == y))}
            for method, assigned in scored)
        return pls.labels

    def draw_batch(rng, x, y, size):
        idx = rng.choice(x.shape[0], size=size, replace=size > x.shape[0])
        return x[idx], y[idx]

    matrix_rows = []
    for stage in range(len(seq.specs)):
        source = stage == 0
        x, y = (tr_x, tr_y) if source else datasets[stage]
        labels = y if source else None
        augment_kind = "source" if source else "target"  # target rows are gated
        replay_n = cfg.replay_n if memory_enabled and mem.total() > 0 else 0
        for epoch in range(cfg.epochs):
            if not source:
                labels = pseudo_labels(stage, epoch, x, y)
            for step in range(cfg.steps_per_epoch):
                pieces = [draw_batch(batch_rng, x, labels, cfg.batch_size - replay_n)]
                if replay_n:
                    pieces.append(memory_mod.replay_batch(mem, replay_n, replay_rng))
                if not cfg.disable_randmix:
                    pieces.append(randmix.augment_batch(model, *pieces[0], rm_cfg,
                                                        augment_kind, randmix_rng))
                xs, ys = zip(*pieces)
                train_step(stage, epoch, step, np.vstack(xs), np.concatenate(ys))
        if labels is None:  # zero-epoch run still needs labels for admission
            labels = labeler_mod.assign_labels(model, x, lab_cfg, stage).labels

        if memory_enabled:
            logs["admissions"].append(
                {**memory_mod.admit_domain(mem, model, x, labels, stage), "stage": stage})
        previous = nets.snapshot(model)
        matrix_rows.append([_accuracy(model, ex, ey) for ex, ey in eval_sets])
        logs["stage_log"].append({
            "stage": stage, "domain": stage,
            "snapshot_hash": nets.param_hash(previous),
            "memory_total": mem.total() if memory_enabled else 0,
            "bucket_sizes": mem.sizes() if memory_enabled else {}})

    matrix = AccuracyMatrix(np.array(matrix_rows))
    return RunResult(config=cfg, matrix=matrix, metrics=compute_metrics(matrix.values),
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
