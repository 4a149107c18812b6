import numpy as np
import pytest

from cdsl_lab import diffcore as dc
from cdsl_lab import nets


def tiny_net(seed=0, input_dim=3, classes=2):
    rng = np.random.default_rng(seed)
    return nets.build_network(input_dim, classes, rng, hidden=(6, 5), bottleneck=(4, 4))


def test_identity_layer_without_bottleneck_passes_input_through():
    layer = nets.DenseLayer(dc.Tensor(np.eye(3), requires_grad=True),
                            dc.Tensor(np.zeros(3), requires_grad=True))
    net = nets.Network(nets.FeatureExtractor([layer]), None,
                       nets.DenseLayer(dc.Tensor(np.eye(3), requires_grad=True), None))
    x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    assert np.array_equal(nets.feature_values(net, x), x)


def test_orthonormal_prototypes_give_unit_logits():
    layer = nets.DenseLayer(dc.Tensor(np.eye(4), requires_grad=True), None)
    net = nets.Network(nets.FeatureExtractor([layer]), None,
                       nets.DenseLayer(dc.Tensor(np.eye(4), requires_grad=True), None))
    x = np.eye(4)[2:3]
    out = nets.logits(net, x).values
    assert np.array_equal(out, np.array([[0.0, 0.0, 1.0, 0.0]]))


def test_feature_dim_and_logit_shape():
    net = tiny_net()
    x = np.random.default_rng(1).normal(size=(7, 3))
    f = nets.feature_values(net, x)
    assert f.shape == (7, 4)
    assert nets.logits(net, x).shape == (7, 2)
    probs = nets.predict_probs(net, x)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_init_is_seeded_and_within_glorot_bounds():
    a = tiny_net(seed=42)
    b = tiny_net(seed=42)
    c = tiny_net(seed=43)
    assert nets.param_hash(a) == nets.param_hash(b)
    assert nets.param_hash(a) != nets.param_hash(c)
    for name, t in nets.named_parameters(a):
        if name.endswith("bias"):
            assert np.array_equal(t.values, np.zeros_like(t.values))
        else:
            fan_out, fan_in = t.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(t.values) <= bound)


def test_snapshot_is_frozen_and_detached():
    net = tiny_net()
    frozen = nets.snapshot(net)
    assert nets.param_hash(frozen) == nets.param_hash(net)
    assert all(not t.requires_grad for t in nets.parameters(frozen))
    net.classifier.weight.values[0, 0] += 1.0
    assert nets.param_hash(frozen) != nets.param_hash(net)


def test_snapshot_outputs_match_original():
    net = tiny_net(seed=9)
    frozen = nets.snapshot(net)
    x = np.random.default_rng(2).normal(size=(5, 3))
    assert np.array_equal(nets.predict_probs(net, x), nets.predict_probs(frozen, x))


def test_gradients_flow_to_every_parameter():
    net = tiny_net()
    x = np.random.default_rng(3).normal(size=(6, 3))
    params = nets.parameters(net)
    out, tape = dc.evaluate(lambda: dc.reduce_mean(dc.mul(nets.logits(net, x),
                                                          nets.logits(net, x))))
    dc.backward(tape, out, params=params)
    assert all(p.grad is not None for p in params)
    assert any(np.abs(p.grad).sum() > 0 for p in params)
    dc.zero_grads(params)
