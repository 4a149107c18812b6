"""Training objectives: prototype cross-entropy, contrastive prototype
alignment across adjacent models, and soft-output distillation.

All losses are diffcore primitives, so one backward pass covers the whole
objective, and all read one score matrix, features @ prototypes.T. Each loss is
one mean_gap, the row mean of lse(every term) minus one positive column [n, 1],
a row_dot of terms with a target. CE's terms are the scores, its target the
one-hot labels; alignment adds the scores against the frozen previous prototypes
(its positive then the lse of both one-hot columns) and the feature Gram matrix
plus a mask, 0 between rows of different classes and -inf elsewhere (so each row
with itself too). Distillation is CE against the frozen model's soft output.
With no previous model in the batch context alignment collapses to the
current-prototypes-only form and nothing is distilled. The step's loss is one
add over the parts present; LOSS_COLUMNS names the parts and their sum.

For CE and alignment, whose terms hold their positives (the assigned
class's entries, which a one-hot row_dot keeps with their bits), the gap is
never below 0, with no clamp. One positive p is an entry of its row's terms:
lse(terms) is rounded from M + log(S), M the row max and S >= 1 as the shifted
sum holds an exact 1, and rounding is monotone, so lse(terms) >= M >= p.
Two positives, p = lse(positives): each lse is at least its shift, the row max
(M of the terms, m <= M of the positives). Two with M = m share the shift,
and the terms' sum holds the positives' exponentials with their bits. Two
with M > m: the exact gap, at least log(1 + e^(M - m) / (1 + e)) with e <= 1,
exceeds log 1.5, far beyond the rounding of logs of sums in [1, terms], and
rounding M + log(sum) and m + log(sum') keeps their order."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from . import nets
from .diffcore import Tensor

DISTILL_MODES = ("logits", "representation")
# the logged loss parts, then their sum: train_log.csv's loss columns in order
LOSS_COLUMNS = ("ce", "pca", "dis", "total")


@dataclass
class BatchContext:
    features: Tensor  # [n, d], tape-attached
    labels: np.ndarray  # [n] int, true on source / pseudo on target
    prototypes: Tensor  # current model's prototypes [classes, d]
    distill_on: str  # "logits" or "representation"
    prev_prototypes: np.ndarray | None = None  # frozen [classes, d]
    # frozen row softmax of the previous model's logits, or of its
    # representations in "representation" mode
    distill_target: np.ndarray | None = None
    onehot: np.ndarray = field(init=False)  # float one-hot of labels [n, classes]
    scores: Tensor = field(init=False)  # taped linear(features, prototypes)
    assigned: Tensor = field(init=False)  # scores' assigned-class column [n, 1]
    lse: Tensor = field(init=False)  # scores' row log-sum-exp [n, 1]

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError(
                f"objective: {n} feature rows but labels shape {self.labels.shape}")
        classes = self.prototypes.shape[0]
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= classes):
            raise ValueError(f"objective: labels outside [0, {classes})")
        # built after the range check: a label outside it would give a zero row
        self.onehot = (self.labels[:, None] == np.arange(classes)).astype(np.float64)
        self.scores = dc.linear(self.features, self.prototypes)
        self.assigned = dc.row_dot(self.scores, self.onehot)
        self.lse = dc.logsumexp_rows(self.scores)


def build_context(net, prev_net, x: np.ndarray, labels: np.ndarray,
                  distill_on: str) -> BatchContext:
    """Forward the batch and collect everything the losses need.

    Call under an active tape when training; the frozen model's outputs are
    plain arrays, never recorded, and only the one the distillation mode reads.
    """
    feats = nets.features(net, x)
    prev_protos = target = None
    if prev_net is not None:
        prev_protos = prev_net.prototypes.values
        if distill_on == "representation":
            target = nets.softmax_rows(nets.feature_values(prev_net, x))
        else:
            target = nets.predict_probs(prev_net, x)
    return BatchContext(features=feats, labels=labels,
                        prototypes=net.prototypes,
                        prev_prototypes=prev_protos, distill_target=target,
                        distill_on=distill_on)


def ce_loss(ctx: BatchContext) -> Tensor:
    """Mean negative log softmax score of the assigned class (bias-free logits)."""
    return dc.mean_gap(ctx.lse, ctx.assigned)


def _alignment(ctx: BatchContext, prev_prototypes: np.ndarray | None) -> Tensor:
    """Prototype alignment, with the previous prototypes' terms when given."""
    terms, positive = [ctx.scores], ctx.assigned
    if prev_prototypes is not None:
        prev = dc.linear(ctx.features, prev_prototypes)
        terms.append(prev)
        positive = dc.logsumexp_rows(ctx.assigned, dc.row_dot(prev, ctx.onehot))
    cross_class = np.where(ctx.labels[:, None] != ctx.labels, 0.0, -np.inf)
    pairs = dc.add(dc.linear(ctx.features, ctx.features), cross_class)
    return dc.mean_gap(dc.logsumexp_rows(*terms, pairs), positive)


def pca_loss(ctx: BatchContext) -> Tensor:
    """Alignment to the assigned class's prototypes: the current ones, and the
    previous ones when the context holds `prev_prototypes` (else the source form)."""
    return _alignment(ctx, ctx.prev_prototypes)


def source_pca_loss(ctx: BatchContext) -> Tensor:
    """Alignment with only the current prototypes (no previous model yet)."""
    return _alignment(ctx, None)


def distill_loss(ctx: BatchContext) -> Tensor:
    """Mean KL from the frozen model's soft outputs t to softmax(z), with z the
    scores or, in representation mode, the features: per row the lse gap
    sum t log t + lse(z) - t . z, exact however small a probability gets."""
    target = ctx.distill_target
    if target is None:
        raise ValueError("objective: distill_loss needs previous-model outputs")
    z, lse = ((ctx.scores, ctx.lse) if ctx.distill_on == "logits"
              else (ctx.features, dc.logsumexp_rows(ctx.features)))
    log_t = np.log(target, out=np.zeros_like(target), where=target > 0.0)  # 0 log 0 = 0
    neg_entropy = np.add.reduce(target * log_t, axis=1, keepdims=True)
    # exact KL is non-negative; relu only strips float artifacts near zero
    return dc.relu(dc.mean_gap(dc.add(neg_entropy, lse), dc.row_dot(z, target)))


def total_loss(ctx: BatchContext, *, disable_pca: bool) -> tuple[Tensor, dict]:
    """Stage loss, one add over the parts present, and the logged values of
    LOSS_COLUMNS, 0.0 for an absent part. `pca_loss` reads the context's
    `prev_prototypes`, and the context's `distill_target`, when there is one,
    adds distillation."""
    parts = {"ce": ce_loss(ctx)}
    if not disable_pca:
        parts["pca"] = pca_loss(ctx)
    if ctx.distill_target is not None:
        parts["dis"] = distill_loss(ctx)
    parts["total"] = dc.add(*parts.values())
    return parts["total"], {k: parts[k].item() if k in parts else 0.0 for k in LOSS_COLUMNS}
