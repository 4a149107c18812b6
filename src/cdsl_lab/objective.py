"""Training objectives: prototype cross-entropy, contrastive prototype
alignment across adjacent models, and soft-output distillation.

All losses are built from diffcore primitives so one backward pass covers
the whole objective. The alignment term treats current and previous
prototype rows of the assigned class as positives and same-batch features
of other classes as negatives; with no previous model in the batch context
it collapses to the current-prototypes-only form and nothing is distilled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import diffcore as dc
from . import nets
from .diffcore import Tensor

DISTILL_MODES = ("logits", "representation")


@dataclass
class LossBreakdown:
    ce: float
    pca: float
    dis: float
    total: float


@dataclass
class BatchContext:
    features: Tensor  # [n, d], tape-attached
    labels: np.ndarray  # [n] int, true on source / pseudo on target
    prototypes: Tensor  # current model's prototypes [classes, d]
    prev_prototypes: np.ndarray | None = None  # frozen [classes, d]
    # frozen row softmax of the previous model's logits, or of its
    # representations in "representation" mode
    distill_target: np.ndarray | None = None
    distill_on: str = "logits"

    def __post_init__(self):
        if self.distill_on not in DISTILL_MODES:
            raise ValueError(
                f"objective: distill_on must be one of {DISTILL_MODES}, got {self.distill_on!r}")
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError(
                f"objective: {n} feature rows but labels shape {self.labels.shape}")
        classes = self.prototypes.shape[0]
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= classes):
            raise ValueError(f"objective: labels outside [0, {classes})")


def build_context(net, prev_net, x: np.ndarray, labels: np.ndarray,
                  distill_on: str = "logits") -> BatchContext:
    """Forward the batch and collect everything the losses need.

    Call under an active tape when training; the frozen model's outputs are
    plain arrays, never recorded, and only the one the distillation mode reads.
    """
    feats = nets.features(net, x)
    prev_protos = target = None
    if prev_net is not None:
        prev_protos = prev_net.prototypes.values
        if distill_on == "representation":
            target = dc.softmax_rows(nets.feature_values(prev_net, x)).values
        else:
            target = nets.predict_probs(prev_net, x)
    return BatchContext(features=feats, labels=labels,
                        prototypes=net.prototypes,
                        prev_prototypes=prev_protos, distill_target=target,
                        distill_on=distill_on)


def _onehot(labels: np.ndarray, classes: int) -> np.ndarray:
    return np.eye(classes)[labels]


def ce_loss(ctx: BatchContext) -> Tensor:
    """Mean negative log softmax score of the assigned class (bias-free logits)."""
    scores = dc.linear(ctx.features, ctx.prototypes)
    probs = dc.softmax_rows(scores)
    onehot = Tensor(_onehot(ctx.labels, ctx.prototypes.shape[0]))
    picked = dc.reduce_sum(dc.mul(probs, onehot), axis=1)
    return dc.scale(dc.reduce_mean(dc.log(picked)), -1.0)


def _negative_pair_mask(labels: np.ndarray) -> np.ndarray:
    diff = labels[:, None] != labels[None, :]
    np.fill_diagonal(diff, False)
    return diff.astype(np.float64)


def _pair_term(ctx: BatchContext) -> Tensor:
    """Row sums of exp feature-feature scores over cross-class pairs."""
    gram = dc.linear(ctx.features, ctx.features)
    masked = dc.mul(dc.exp(gram), Tensor(_negative_pair_mask(ctx.labels)))
    return dc.reduce_sum(masked, axis=1)


def _alignment(ctx: BatchContext, prev_prototypes: np.ndarray | None) -> Tensor:
    """Prototype alignment, with the previous prototypes' terms when given.
    Node order: exps, numerators, denominators, pair term."""
    onehot = Tensor(_onehot(ctx.labels, ctx.prototypes.shape[0]))
    exps = [dc.exp(dc.linear(ctx.features, ctx.prototypes))]
    if prev_prototypes is not None:
        # a matmul, not linear: the C-ordered copy in linear changes the bits here
        exps.append(dc.exp(dc.matmul(ctx.features, Tensor(prev_prototypes.T))))
    numerator = reduce(dc.add, [dc.reduce_sum(dc.mul(e, onehot), axis=1) for e in exps])
    denominator = dc.add(reduce(dc.add, [dc.reduce_sum(e, axis=1) for e in exps]),
                         _pair_term(ctx))
    return dc.reduce_mean(dc.sub(dc.log(denominator), dc.log(numerator)))


def pca_loss(ctx: BatchContext) -> Tensor:
    """Alignment to current and previous prototypes of the assigned class."""
    if ctx.prev_prototypes is None:
        raise ValueError("objective: pca_loss needs previous prototypes; "
                         "use source_pca_loss on the source stage")
    return _alignment(ctx, ctx.prev_prototypes)


def source_pca_loss(ctx: BatchContext) -> Tensor:
    """Alignment with only the current prototypes (no previous model yet)."""
    return _alignment(ctx, None)


def distill_loss(ctx: BatchContext) -> Tensor:
    """Mean KL from the frozen model's soft outputs to the current ones."""
    target = ctx.distill_target
    if target is None:
        raise ValueError("objective: distill_loss needs previous-model outputs")
    scores = (dc.linear(ctx.features, ctx.prototypes) if ctx.distill_on == "logits"
              else ctx.features)
    current = dc.softmax_rows(scores)
    entropy = (target * np.log(np.maximum(target, dc.LOG_CLAMP))).sum(axis=1)
    cross = dc.reduce_sum(dc.mul(Tensor(target), dc.log(current)), axis=1)
    kl = dc.reduce_mean(dc.sub(Tensor(entropy), cross))
    # exact KL is non-negative; relu only strips float artifacts near zero
    return dc.relu(kl)


def total_loss(ctx: BatchContext, *, disable_pca: bool = False) -> tuple[Tensor, LossBreakdown]:
    """Stage loss and its logged decomposition (total = ce + pca + dis).
    A previous model in the context adds its PCA terms and distillation."""
    has_previous = ctx.prev_prototypes is not None
    ce = ce_loss(ctx)
    total = ce

    pca_val = 0.0
    if not disable_pca:
        pca = pca_loss(ctx) if has_previous else source_pca_loss(ctx)
        total = dc.add(total, pca)
        pca_val = pca.item()

    dis_val = 0.0
    if has_previous:
        dis = distill_loss(ctx)
        total = dc.add(total, dis)
        dis_val = dis.item()

    return total, LossBreakdown(ce=ce.item(), pca=pca_val, dis=dis_val,
                                total=total.item())
