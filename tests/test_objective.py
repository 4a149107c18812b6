import math
from collections import Counter

import numpy as np
import pytest

from conftest import evaluate, max_rel_err

from cdsl_lab import diffcore as dc
from cdsl_lab import nets, objective
from cdsl_lab.diffcore import Tensor


def make_ctx(feats, labels, protos, prev_protos=None, target=None, mode="logits"):
    return objective.BatchContext(
        features=Tensor(feats, requires_grad=True),
        labels=np.asarray(labels, dtype=int),
        prototypes=Tensor(protos, requires_grad=True),
        prev_prototypes=prev_protos, distill_target=target, distill_on=mode)


def softmax(z):
    return dc.softmax_rows(z).values


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
    ctx = make_ctx(feats, labels, protos)
    out, tape = evaluate(lambda: objective.ce_loss(ctx))
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


def test_pca_nonnegative_and_gradient_checks():
    feats, labels, protos, prev = rand_instance(4)
    ctx = make_ctx(feats, labels, protos, prev_protos=prev)
    out, tape = evaluate(lambda: objective.pca_loss(ctx))
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


def test_source_pca_gradient_matches_finite_differences():
    feats, labels, protos, _ = rand_instance(6)
    ctx = make_ctx(feats, labels, protos)
    out, tape = evaluate(lambda: objective.source_pca_loss(ctx))
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


def test_distill_zero_when_outputs_match():
    feats, labels, protos, _ = rand_instance(7)
    probs = softmax(feats @ protos.T)
    ctx = make_ctx(feats, labels, protos, target=probs)
    assert objective.distill_loss(ctx).item() == pytest.approx(0.0, abs=1e-12)


def test_distill_nonnegative_and_gradient():
    feats, labels, protos, prev = rand_instance(8)
    prev_probs = softmax(feats @ prev.T)
    ctx = make_ctx(feats, labels, protos, target=prev_probs)
    out, tape = evaluate(lambda: objective.distill_loss(ctx))
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
    target = softmax(prev_feats)
    ctx = make_ctx(feats, labels, protos, target=target, mode="representation")
    out, tape = evaluate(lambda: objective.distill_loss(ctx))
    assert out.item() >= 0.0
    dc.backward(tape, out)

    def value():
        return objective.distill_loss(
            make_ctx(feats, labels, protos, target=target, mode="representation")).item()

    assert max_rel_err(ctx.features.grad, fd_inplace(value, feats)) < 1e-4
    same = make_ctx(feats, labels, protos, target=softmax(feats), mode="representation")
    assert objective.distill_loss(same).item() == pytest.approx(0.0, abs=1e-12)


def test_context_validation():
    with pytest.raises(ValueError, match="distill_on"):
        make_ctx(np.zeros((2, 2)), [0, 1], np.zeros((2, 2)), mode="features")
    with pytest.raises(ValueError, match="labels"):
        make_ctx(np.zeros((2, 2)), [0], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="labels"):
        make_ctx(np.zeros((2, 2)), [0, 5], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="previous"):
        objective.pca_loss(make_ctx(np.zeros((2, 2)), [0, 1], np.zeros((2, 2))))
    with pytest.raises(ValueError, match="previous"):
        objective.distill_loss(make_ctx(np.zeros((2, 2)), [0, 1], np.zeros((2, 2))))


def test_total_loss_decomposition_on_target_stage():
    feats, labels, protos, prev = rand_instance(11)
    prev_probs = softmax(feats @ prev.T)
    ctx = make_ctx(feats, labels, protos, prev_protos=prev, target=prev_probs)
    total, parts = objective.total_loss(ctx)
    assert list(parts) == ["ce", "pca", "dis", "total"]  # train_log.csv's column order
    assert parts["ce"] >= 0.0 and parts["pca"] >= 0.0 and parts["dis"] >= 0.0
    assert parts["total"] == total.item()
    assert abs(parts["total"] - (parts["ce"] + parts["pca"] + parts["dis"])) < 1e-12
    assert parts["dis"] > 0.0  # previous model differs, so some drift exists


def test_total_loss_on_source_stage_has_no_distillation():
    feats, labels, protos, _ = rand_instance(12)
    ctx = make_ctx(feats, labels, protos)
    total, parts = objective.total_loss(ctx)
    assert parts["dis"] == 0.0
    assert parts["pca"] == objective.source_pca_loss(ctx).item()
    assert abs(parts["total"] - (parts["ce"] + parts["pca"])) < 1e-12


def test_total_loss_ablation_flags():
    feats, labels, protos, prev = rand_instance(13)
    prev_probs = softmax(feats @ prev.T)
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
        ctx = objective.build_context(net, prev, x, labels)
        total, parts = objective.total_loss(ctx)
    dc.backward(tape, total, params=params)
    assert all(p.grad is not None for p in params)
    grads_norm = sum(float(np.abs(p.grad).sum()) for p in params)
    assert grads_norm > 0.0
    assert parts["total"] == pytest.approx(parts["ce"] + parts["pca"] + parts["dis"], abs=1e-12)
    # the frozen target is the teacher output the distillation mode reads
    assert np.array_equal(ctx.distill_target, nets.predict_probs(prev, x))
    repr_ctx = objective.build_context(net, prev, x, labels, distill_on="representation")
    assert np.array_equal(repr_ctx.distill_target,
                          softmax(nets.feature_values(prev, x)))


def test_tape_of_one_step_has_one_linear_node_per_product():
    # every dense layer and every features @ prototypes.T or features @
    # features.T product is one linear node; only the frozen previous
    # prototypes go through matmul, and nothing is transposed on the tape
    rng = np.random.default_rng(16)
    net = nets.build_network(3, 2, rng, hidden=(6, 6), bottleneck=(5, 4))
    x = rng.normal(size=(8, 3))
    labels = rng.integers(0, 2, size=8)
    ops = []
    for prev in (None, nets.snapshot(net)):
        with dc.Tape() as tape:
            objective.total_loss(objective.build_context(net, prev, x, labels))
        ops.append(Counter(node.op for node in tape.nodes))
    source, target = ops
    assert source == Counter(linear=7, relu=2, standardize_rows=1, softmax_rows=1,
                             mul=3, reduce_sum=4, log=3, reduce_mean=2, scale=1,
                             exp=2, add=2, sub=1)
    assert target == Counter(linear=8, matmul=1, relu=3, standardize_rows=1,
                             softmax_rows=2, mul=5, reduce_sum=7, log=4,
                             reduce_mean=3, scale=1, exp=3, add=5, sub=2)
