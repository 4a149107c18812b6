import math
from collections import Counter

import numpy as np
import pytest

from conftest import max_rel_err

from cdsl_lab import diffcore as dc
from cdsl_lab import nets, objective
from cdsl_lab.diffcore import Tensor


def make_ctx(feats, labels, protos, prev_protos=None, target=None, mode="logits"):
    return objective.BatchContext(
        features=Tensor(feats, requires_grad=True),
        labels=np.asarray(labels, dtype=int),
        prototypes=Tensor(protos, requires_grad=True),
        prev_prototypes=prev_protos, distill_target=target, distill_on=mode)


def taped(loss, *args, **kwargs):
    """A context and its loss built under one tape, as in a training step."""
    with dc.Tape() as tape:
        ctx = make_ctx(*args, **kwargs)
        out = loss(ctx)
    return ctx, out, tape


def fd_inplace(fn, array, h=1e-5):
    grad = np.zeros_like(array)
    flat_g = grad.reshape(-1)
    flat_a = array.reshape(-1)
    for i in range(flat_a.size):
        keep = flat_a[i]
        flat_a[i] = keep + h
        up = fn()
        flat_a[i] = keep - h
        down = fn()
        flat_a[i] = keep
        flat_g[i] = (up - down) / (2.0 * h)
    return grad


def rand_instance(seed, n=6, d=4, classes=3, scale=0.5):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d)) * scale
    labels = rng.integers(0, classes, size=n)
    protos = rng.normal(size=(classes, d)) * scale
    prev = rng.normal(size=(classes, d)) * scale
    return feats, labels, protos, prev


def test_ce_on_zero_logits_is_log_class_count():
    ctx = make_ctx(np.zeros((5, 3)), [0, 1, 2, 3, 0], np.zeros((4, 3)))
    assert objective.ce_loss(ctx).item() == pytest.approx(math.log(4), abs=1e-12)


def test_ce_vanishes_with_growing_margin():
    protos = np.eye(3)
    labels = [0, 1, 2]
    losses = []
    for margin in (1.0, 5.0, 20.0):
        ctx = make_ctx(np.eye(3) * margin, labels, protos)
        losses.append(objective.ce_loss(ctx).item())
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-6


def test_ce_gradient_matches_finite_differences():
    feats, labels, protos, _ = rand_instance(0)
    ctx, out, tape = taped(objective.ce_loss, feats, labels, protos)
    dc.backward(tape, out)

    def value():
        return objective.ce_loss(make_ctx(feats, labels, protos)).item()

    assert max_rel_err(ctx.features.grad, fd_inplace(value, feats)) < 1e-4
    assert max_rel_err(ctx.prototypes.grad, fd_inplace(value, protos)) < 1e-4


def pca_brute_force(feats, labels, protos, prev):
    n, classes = feats.shape[0], protos.shape[0]
    per = []
    for i in range(n):
        f, y = feats[i], labels[i]
        num = math.exp(protos[y] @ f) + math.exp(prev[y] @ f)
        delta = sum(math.exp(protos[c] @ f) for c in range(classes))
        delta += sum(math.exp(prev[c] @ f) for c in range(classes))
        delta += sum(math.exp(f @ feats[j]) for j in range(n)
                     if j != i and labels[j] != y)
        per.append(math.log(delta) - math.log(num))
    return sum(per) / n


def test_pca_matches_brute_force():
    feats, labels, protos, prev = rand_instance(1, n=12, d=5, classes=4)
    ctx = make_ctx(feats, labels, protos, prev_protos=prev)
    got = objective.pca_loss(ctx).item()
    assert got == pytest.approx(pca_brute_force(feats, labels, protos, prev), abs=1e-12)


def test_pca_zero_for_single_sample_with_identical_prototypes():
    feats = np.array([[0.3, -0.7]])
    protos = np.array([[0.5, 0.5]])
    ctx = make_ctx(feats, [0], protos, prev_protos=protos.copy())
    assert objective.pca_loss(ctx).item() == pytest.approx(0.0, abs=1e-12)


def test_pca_is_permutation_invariant():
    feats, labels, protos, prev = rand_instance(2, n=8)
    base = objective.pca_loss(make_ctx(feats, labels, protos, prev_protos=prev)).item()
    perm = np.random.default_rng(3).permutation(8)
    shuffled = objective.pca_loss(
        make_ctx(feats[perm], labels[perm], protos, prev_protos=prev)).item()
    assert shuffled == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e8, 1e15])
def test_lse_gap_is_never_negative_in_any_row(scale):
    # CE's and PCA's rows with the positives tied with the largest other term
    # or one ulp below it, where rounding would show first
    rng = np.random.default_rng(round(np.log10(scale)) + 30)
    n, classes = 3000, 3
    labels = rng.integers(0, classes, size=n)
    scores, prev = (rng.normal(size=(n, classes)) * scale for _ in range(2))
    rows = np.arange(n)
    top = np.maximum(scores.max(axis=1), prev.max(axis=1))
    prev[rows, labels] = np.where(rng.random(n) < 0.5, top, np.nextafter(top, -np.inf))
    scores[rows[::3], labels[::3]] = np.nextafter(top[::3], -np.inf)
    s, p = Tensor(scores), Tensor(prev)
    onehot = np.eye(classes)[labels]
    picked = dc.row_dot(s, onehot)
    for terms, positive in (([s], picked),
                            ([s, p], dc.logsumexp_rows(picked, dc.row_dot(p, onehot)))):
        gap = dc.logsumexp_rows(*terms).values - positive.values
        assert (gap >= 0.0).all()


def test_pca_nonnegative_and_gradient_checks():
    feats, labels, protos, prev = rand_instance(4)
    ctx, out, tape = taped(objective.pca_loss, feats, labels, protos, prev_protos=prev)
    assert out.item() >= 0.0
    dc.backward(tape, out)

    def value():
        return objective.pca_loss(make_ctx(feats, labels, protos, prev_protos=prev)).item()

    assert max_rel_err(ctx.features.grad, fd_inplace(value, feats)) < 1e-4
    assert max_rel_err(ctx.prototypes.grad, fd_inplace(value, protos)) < 1e-4


def test_source_pca_equals_ce_without_cross_class_pairs():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(6, 4)) * 0.5
    protos = rng.normal(size=(3, 4)) * 0.5
    labels = np.full(6, 1)  # one class -> no negative pairs
    ctx = make_ctx(feats, labels, protos)
    assert objective.source_pca_loss(ctx).item() == pytest.approx(
        objective.ce_loss(ctx).item(), abs=1e-12)


def test_pca_loss_without_previous_prototypes_is_the_source_form():
    feats, labels, protos, _ = rand_instance(6)
    ctx = make_ctx(feats, labels, protos)
    assert objective.pca_loss(ctx).values.tobytes() == \
        objective.source_pca_loss(ctx).values.tobytes()


def test_source_pca_gradient_matches_finite_differences():
    feats, labels, protos, _ = rand_instance(6)
    ctx, out, tape = taped(objective.source_pca_loss, feats, labels, protos)
    dc.backward(tape, out)

    def value():
        return objective.source_pca_loss(make_ctx(feats, labels, protos)).item()

    assert max_rel_err(ctx.features.grad, fd_inplace(value, feats)) < 1e-4
    assert max_rel_err(ctx.prototypes.grad, fd_inplace(value, protos)) < 1e-4


def test_distill_hard_previous_vs_uniform_current_is_log_two():
    feats = np.zeros((1, 2))  # zero logits -> uniform current softmax
    protos = np.zeros((2, 2))
    prev_probs = np.array([[1.0, 0.0]])
    ctx = make_ctx(feats, [0], protos, target=prev_probs)
    assert objective.distill_loss(ctx).item() == pytest.approx(math.log(2), abs=1e-9)


def test_distill_is_exact_where_a_current_probability_is_tiny():
    # scores [0, 40]: softmax puts e^-40, far below any clamp, on class 0
    target = np.array([[0.5, 0.5]])
    ctx, out, tape = taped(objective.distill_loss, np.ones((1, 1)), [0],
                           np.array([[0.0], [40.0]]), target=target)
    exact = -math.log(2) + 40.0 + math.log1p(math.exp(-40.0)) - 20.0
    assert out.item() == pytest.approx(exact, rel=1e-15)  # 19.3069
    dc.backward(tape, out)
    # features are [[1]], so the prototypes' gradient is the scores' gradient
    p0 = 1.0 / (1.0 + math.exp(40.0))  # softmax - t = [p0 - 0.5, 0.5 - p0]
    assert ctx.prototypes.grad.ravel() == pytest.approx([p0 - 0.5, 0.5 - p0], rel=1e-12)


def test_distill_zero_when_outputs_match():
    feats, labels, protos, _ = rand_instance(7)
    probs = nets.softmax_rows(feats @ protos.T)
    ctx = make_ctx(feats, labels, protos, target=probs)
    assert objective.distill_loss(ctx).item() == pytest.approx(0.0, abs=1e-12)


def test_distill_nonnegative_and_gradient():
    feats, labels, protos, prev = rand_instance(8)
    prev_probs = nets.softmax_rows(feats @ prev.T)
    ctx, out, tape = taped(objective.distill_loss, feats, labels, protos, target=prev_probs)
    assert out.item() >= 0.0
    dc.backward(tape, out)

    def value():
        return objective.distill_loss(
            make_ctx(feats, labels, protos, target=prev_probs)).item()

    assert max_rel_err(ctx.features.grad, fd_inplace(value, feats)) < 1e-4
    assert max_rel_err(ctx.prototypes.grad, fd_inplace(value, protos)) < 1e-4


def test_distill_on_representations():
    feats, labels, protos, _ = rand_instance(9)
    prev_feats = feats + np.random.default_rng(10).normal(size=feats.shape) * 0.1
    target = nets.softmax_rows(prev_feats)
    ctx, out, tape = taped(objective.distill_loss, feats, labels, protos, target=target,
                           mode="representation")
    assert out.item() >= 0.0
    dc.backward(tape, out)

    def value():
        return objective.distill_loss(
            make_ctx(feats, labels, protos, target=target, mode="representation")).item()

    assert max_rel_err(ctx.features.grad, fd_inplace(value, feats)) < 1e-4
    same = make_ctx(feats, labels, protos, target=nets.softmax_rows(feats),
                    mode="representation")
    assert objective.distill_loss(same).item() == pytest.approx(0.0, abs=1e-12)


def test_context_validation():
    with pytest.raises(ValueError, match="labels"):
        make_ctx(np.zeros((2, 2)), [0], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="labels"):
        make_ctx(np.zeros((2, 2)), [0, 5], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="previous"):
        objective.distill_loss(make_ctx(np.zeros((2, 2)), [0, 1], np.zeros((2, 2))))


def test_total_loss_decomposition_on_target_stage():
    feats, labels, protos, prev = rand_instance(11)
    prev_probs = nets.softmax_rows(feats @ prev.T)
    ctx = make_ctx(feats, labels, protos, prev_protos=prev, target=prev_probs)
    total, parts = objective.total_loss(ctx, disable_pca=False)
    assert list(parts) == ["ce", "pca", "dis", "total"]  # train_log.csv's column order
    assert parts["ce"] >= 0.0 and parts["pca"] >= 0.0 and parts["dis"] >= 0.0
    assert parts["total"] == total.item()
    assert abs(parts["total"] - (parts["ce"] + parts["pca"] + parts["dis"])) < 1e-12
    assert parts["dis"] > 0.0  # previous model differs, so some drift exists


def test_total_loss_on_source_stage_has_no_distillation():
    feats, labels, protos, _ = rand_instance(12)
    ctx = make_ctx(feats, labels, protos)
    total, parts = objective.total_loss(ctx, disable_pca=False)
    assert parts["dis"] == 0.0
    assert parts["pca"] == objective.source_pca_loss(ctx).item()
    assert abs(parts["total"] - (parts["ce"] + parts["pca"])) < 1e-12


def test_total_loss_ablation_flags():
    feats, labels, protos, prev = rand_instance(13)
    prev_probs = nets.softmax_rows(feats @ prev.T)
    ctx = make_ctx(feats, labels, protos, prev_protos=prev, target=prev_probs)
    _, no_pca = objective.total_loss(ctx, disable_pca=True)
    assert no_pca["pca"] == 0.0
    assert no_pca["dis"] > 0.0
    assert abs(no_pca["total"] - (no_pca["ce"] + no_pca["dis"])) < 1e-12


def test_build_context_and_backward_through_real_network():
    rng = np.random.default_rng(14)
    net = nets.build_network(3, 2, rng, hidden=(6,), bottleneck=(5, 4))
    prev = nets.snapshot(nets.build_network(3, 2, np.random.default_rng(15),
                                            hidden=(6,), bottleneck=(5, 4)))
    x = rng.normal(size=(8, 3))
    labels = rng.integers(0, 2, size=8)
    params = nets.parameters(net)
    with dc.Tape() as tape:
        ctx = objective.build_context(net, prev, x, labels, distill_on="logits")
        total, parts = objective.total_loss(ctx, disable_pca=False)
    dc.backward(tape, total, params=params)
    assert all(p.grad is not None for p in params)
    grads_norm = sum(float(np.abs(p.grad).sum()) for p in params)
    assert grads_norm > 0.0
    assert parts["total"] == pytest.approx(parts["ce"] + parts["pca"] + parts["dis"], abs=1e-12)
    # the frozen target is the teacher output the distillation mode reads
    assert np.array_equal(ctx.distill_target, nets.predict_probs(prev, x))
    repr_ctx = objective.build_context(net, prev, x, labels, distill_on="representation")
    assert np.array_equal(repr_ctx.distill_target,
                          nets.softmax_rows(nets.feature_values(prev, x)))


def test_tape_of_one_step_has_one_linear_node_per_product():
    # every dense layer and every product with the features is one linear
    # node, the scores features @ prototypes.T exactly once, and nothing is
    # transposed on the tape
    rng = np.random.default_rng(16)
    net = nets.build_network(3, 2, rng, hidden=(6, 6), bottleneck=(5, 4))
    x = rng.normal(size=(8, 3))
    labels = rng.integers(0, 2, size=8)
    ops = []
    for prev in (None, nets.snapshot(net)):
        with dc.Tape() as tape:
            ctx = objective.build_context(net, prev, x, labels, distill_on="logits")
            objective.total_loss(ctx, disable_pca=False)
        ops.append(Counter(node.op for node in tape.nodes))
        scores = [node for node in tape.nodes if any(t is net.prototypes for t in node.inputs)]
        assert [(n.op, n.inputs, n.output) for n in scores] == [
            ("linear", (ctx.features, net.prototypes), ctx.scores)]
    source, target = ops
    assert source == Counter(linear=6, relu=2, standardize_rows=1, row_dot=1,
                             logsumexp_rows=2, mean_gap=2, add=2)
    # distillation reads the scores' one lse: no softmax_rows or log node
    assert target == Counter(linear=7, relu=3, standardize_rows=1, row_dot=3,
                             logsumexp_rows=3, mean_gap=3, add=3)
