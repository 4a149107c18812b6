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
METRICS = ("tdg", "tda", "fa")  # the transfer metrics, in report order

ABLATION_VARIANTS = {  # each variant and the RunConfig settings it changes
    "no_randmix": {"disable_randmix": True},
    "labeler=softmax": {"labeler_method": "softmax"},
    "labeler=shot_style": {"labeler_method": "shot_style"},
    "no_pca": {"disable_pca": True},
}


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Stream `key` of the seed; the package's one maker of Generators."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class RunConfig:
    """One run's settings. `__post_init__` is the only range check of a
    setting and `check_sequence` the only check against the domains; the
    records and functions the settings reach (`LabelerConfig`, `RandMixConfig`,
    `ExemplarMemory`, `BatchContext`, `split_source`, `sgd_step`) trust them."""

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
    n_aug: int = randmix.RandMixConfig.n_aug
    r_con: float = randmix.RandMixConfig.r_con
    r_top: float = labeler_mod.LabelerConfig.r_top
    r_top_prime: float = labeler_mod.LabelerConfig.r_top_prime
    labeler_method: str = labeler_mod.LabelerConfig.method
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
        if self.learning_rate <= 0.0:
            raise ValueError(
                f"config: learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"config: momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ValueError(
                f"config: weight_decay must be non-negative, got {self.weight_decay}")
        if self.n_aug < 1:
            raise ValueError(f"config: n_aug must be at least 1, got {self.n_aug}")
        if not 0.0 <= self.r_con <= 1.0:
            raise ValueError(f"config: r_con must be in [0, 1], got {self.r_con}")
        if self.r_top < 1.0:
            raise ValueError(f"config: r_top must be at least 1, got {self.r_top}")
        if self.r_top_prime < self.r_top:
            raise ValueError(f"config: r_top_prime ({self.r_top_prime}) must be "
                             f">= r_top ({self.r_top})")

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
        if not ((self.values >= 0.0) & (self.values <= 1.0)).all():
            raise ValueError("matrix: accuracies must lie in [0, 1]")


@dataclass
class MetricsReport:
    tdg: list[float | None]
    tda: list[float]
    fa: list[float | None]
    tdg_avg: float | None
    tda_avg: float
    fa_avg: float | None

    def __post_init__(self):
        """ValueError unless tdg, tda and fa are lists of one length whose cells and
        averages are numbers in [0, 1], with null only where a metric has no value."""
        lists = [getattr(self, name) for name in METRICS]
        if not all(isinstance(cells, list) for cells in lists) or len(set(map(len, lists))) != 1:
            raise ValueError("tdg, tda and fa must be lists of one length")
        n = len(self.tda)
        nullable = {"tdg": (0, n), "tda": (), "fa": (n - 1, n)}  # index n is the average
        for name, cells in zip(METRICS, lists):
            for j, value in enumerate([*cells, getattr(self, f"{name}_avg")]):
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not (number and 0 <= value <= 1) and not (value is None and j in nullable[name]):
                    where = f"{name}_avg" if j == n else f"{name}[{j}]"
                    raise ValueError(f"{where} must be a number in [0, 1], got {value!r}")

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
            if labeler_mod.class_share(spec.samples, spec.classes, cfg.r_top_prime) < 1:
                raise ValueError(f"config: r_top_prime {cfg.r_top_prime} leaves t2pl no "
                                 f"neighbour on a target domain of {spec.samples} rows")


def run_cdsl(cfg: RunConfig,
             sequence: synthdata.DomainSequence | None = None) -> RunResult:
    """Train through the whole sequence and fill the accuracy matrix.

    One loop serves every stage (see the module docstring). The stationary
    flag keeps no memory and hands the objective no previous model: plain
    adaptation, no replay, no distillation, contrastive term in source form.
    BLAS runs on one thread throughout, so a panel of N parallel runs uses
    about N cores; the outputs are the same at any thread count.
    """
    seq = resolve_sequence(cfg) if sequence is None else sequence
    check_sequence(cfg, seq)
    with dc.one_blas_thread():
        return _run_stages(cfg, seq)


def _run_stages(cfg: RunConfig, seq: synthdata.DomainSequence) -> RunResult:
    datasets = [synthdata.generate(spec, rng_for(cfg.seed, STREAM_DATA, 10 + i))
                for i, spec in enumerate(seq.specs)]
    src_x, src_y = datasets[0]
    tr_x, tr_y, te_x, te_y = synthdata.split_source(
        src_x, src_y, cfg.source_fraction, rng_for(cfg.seed, STREAM_DATA, 1))

    batch_rng = rng_for(cfg.seed, STREAM_DATA, 2)
    init_rng = rng_for(cfg.seed, STREAM_INIT)
    randmix_rng = rng_for(cfg.seed, STREAM_RANDMIX)
    replay_rng = rng_for(cfg.seed, STREAM_REPLAY)

    rm_cfg = randmix.RandMixConfig(n_aug=cfg.n_aug, r_con=cfg.r_con,
                                   image_side=seq.specs[0].image_side)
    lab_cfg = labeler_mod.LabelerConfig(r_top=cfg.r_top, r_top_prime=cfg.r_top_prime,
                                        method=cfg.labeler_method)

    model = nets.build_network(seq.input_dim, seq.classes, init_rng,
                               hidden=cfg.hidden, bottleneck=cfg.bottleneck)
    previous: nets.Network | None = None  # continual runs: frozen snapshot after the last stage
    mem = None if cfg.stationary else memory_mod.ExemplarMemory(cfg.memory_capacity)
    params = nets.parameters(model)
    packed = nets.pack_parameters(model)  # every parameter views it; grad refilled every step
    velocity = np.zeros_like(packed.values)

    eval_sets = [(te_x, te_y) if i == 0 else datasets[i]
                 for i in range(len(seq.specs))]
    logs: dict = {"train_log": [], "label_log": [], "stage_log": [], "admissions": []}

    def train_step(stage: int, epoch: int, step: int, batch_x, batch_y):
        with dc.Tape() as tape:
            ctx = objective.build_context(model, previous, batch_x, batch_y,
                                          distill_on=cfg.distill_on)
            total, losses = objective.total_loss(ctx, disable_pca=cfg.disable_pca)
        if not np.isfinite(list(losses.values())).all():
            values = " ".join(f"{k}={v!r}" for k, v in losses.items())
            raise FloatingPointError(
                f"non-finite loss at stage {stage} epoch {epoch} step {step}: {values}")
        dc.zero_grads(params)
        dc.backward(tape, total, params=params)
        np.concatenate([p.grad for p in params], axis=None, out=packed.grad)
        dc.sgd_step(packed, velocity, learning_rate=cfg.learning_rate,
                    momentum=cfg.momentum, weight_decay=cfg.weight_decay)
        logs["train_log"].append({"stage": stage, "epoch": epoch, "step": step, **losses})

    def pseudo_labels(stage: int, epoch: int, x, y) -> np.ndarray:
        """One target epoch's labels, logged with the softmax baseline's once;
        the baseline is the argmax of the labeler's own class probabilities."""
        try:
            pls = labeler_mod.assign_labels(model, x, lab_cfg, stage)
        except ValueError as exc:
            raise ValueError(f"pseudo labels at stage {stage} epoch {epoch}: {exc}") from exc
        scored = [(pls.method, pls.labels)]
        if epoch == 0:
            scored.append(("softmax_baseline", np.argmax(pls.probs, axis=1)))
        logs["label_log"].extend(
            {"stage": stage, "epoch": epoch, "method": method,
             "accuracy": float(np.mean(assigned == y))}
            for method, assigned in scored)
        return pls.labels

    matrix_rows = []
    for stage in range(len(seq.specs)):
        source = stage == 0
        x, y = (tr_x, tr_y) if source else datasets[stage]
        labels = y if source else None
        augment_kind = "source" if source else "target"  # target rows are gated
        replay_n = cfg.replay_n if mem is not None and mem.total() > 0 else 0
        for epoch in range(cfg.epochs):
            if not source:
                labels = pseudo_labels(stage, epoch, x, y)
            for step in range(cfg.steps_per_epoch):
                pieces = [synthdata.draw_rows(x, labels, cfg.batch_size - replay_n, batch_rng)]
                if replay_n:
                    pieces.append(memory_mod.replay_batch(mem, replay_n, replay_rng))
                if not cfg.disable_randmix:
                    pieces.append(randmix.augment_batch(model, *pieces[0], rm_cfg,
                                                        augment_kind, randmix_rng))
                xs, ys = zip(*pieces)
                train_step(stage, epoch, step, np.vstack(xs), np.concatenate(ys))
        # a step's update shows in the next step's loss; the stage's last
        # update has no next step in this stage, so check the parameters once
        for name, t in nets.named_parameters(model):
            if not np.isfinite(t.values).all():
                raise FloatingPointError(f"non-finite parameter {name} after stage {stage}")
        if mem is not None:
            if labels is None:  # zero-epoch run still needs labels for admission
                labels = labeler_mod.assign_labels(model, x, lab_cfg, stage).labels
            logs["admissions"].append(
                {**memory_mod.admit_domain(mem, model, x, labels), "stage": stage})
            previous = nets.snapshot(model)
        matrix_rows.append([_accuracy(model, ex, ey) for ex, ey in eval_sets])
        logs["stage_log"].append({
            "stage": stage, "snapshot_hash": nets.param_hash(model),
            "memory_total": mem.total() if mem is not None else 0,
            "bucket_sizes": mem.sizes() if mem is not None else {}})

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
                         f"expected one of {tuple(ABLATION_VARIANTS)}")
    return replace(cfg, **ABLATION_VARIANTS[variant])


def ablate(cfg: RunConfig, variant: str) -> RunResult:
    """Run with one ingredient removed; every RNG stream else is untouched."""
    return run_cdsl(variant_config(cfg, variant))


def csv_text(header: list[str], rows: list[list[str]]) -> str:
    """The lab's one CSV writer: cells joined by commas, every line ended by LF.
    No cell the lab writes holds a comma, a quote or a newline, so none is quoted."""
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def write_results(result: RunResult, out_dir) -> None:
    """Deterministic results tree: matrix, metrics, training log, config echo.
    Both tables go through `csv_text`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = result.matrix.values
    (out / "matrix.csv").write_text(csv_text(
        [f"domain_{j}" for j in range(values.shape[1])],
        [[f"{v:.6f}" for v in row] for row in values]))
    (out / "metrics.json").write_text(
        json.dumps(result.metrics.to_dict(), indent=2, sort_keys=True) + "\n")
    losses = objective.LOSS_COLUMNS
    (out / "train_log.csv").write_text(csv_text(
        ["stage", "epoch", "step", *losses],
        [[str(row["stage"]), str(row["epoch"]), str(row["step"]),
          *(f"{row[k]:.17g}" for k in losses)] for row in result.logs["train_log"]]))
    (out / "config.resolved.json").write_text(
        json.dumps(result.config.to_dict(), indent=2, sort_keys=True) + "\n")
