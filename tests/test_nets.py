import contextlib
import tracemalloc

import numpy as np
import pytest

from conftest import evaluate

from cdsl_lab import diffcore as dc
from cdsl_lab import nets


def tiny_net(seed=0, input_dim=3, classes=2):
    rng = np.random.default_rng(seed)
    return nets.build_network(input_dim, classes, rng, hidden=(6, 5), bottleneck=(4, 4))


def eye_layer(n):
    return (dc.Tensor(np.eye(n), requires_grad=True),
            dc.Tensor(np.zeros(n), requires_grad=True))


def test_identity_layer_without_bottleneck_passes_input_through():
    net = nets.Network([eye_layer(3)], [], dc.Tensor(np.eye(3), requires_grad=True))
    x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    assert np.array_equal(nets.feature_values(net, x), x)


def test_orthonormal_prototypes_give_unit_logits():
    net = nets.Network([eye_layer(4)], [], dc.Tensor(np.eye(4), requires_grad=True))
    x = np.eye(4)[2:3]
    out = dc.linear(nets.features(net, x), net.prototypes).values
    assert np.array_equal(out, np.array([[0.0, 0.0, 1.0, 0.0]]))


# (hidden, bottleneck) -> parameter names and shapes in order for 3 inputs and
# 2 classes, and param_hash at rng seed 0; stage_log's snapshot_hash rests on both
LAYOUTS = [
    ((6, 5), (4, 4),
     [("ext.0.weight", (6, 3)), ("ext.0.bias", (6,)),
      ("ext.1.weight", (5, 6)), ("ext.1.bias", (5,)),
      ("neck.pre.weight", (4, 5)), ("neck.pre.bias", (4,)),
      ("neck.post.weight", (4, 4)), ("neck.post.bias", (4,)),
      ("proto.weight", (2, 4))],
     "78ebedae8d9679c32408dc641a3b2e52413eac90e7f7f1e710d9999f99e9cec1"),
    ((6,), None,
     [("ext.0.weight", (6, 3)), ("ext.0.bias", (6,)), ("proto.weight", (2, 6))],
     "d137dcc3070304818aa90ae2e86f995a4be7f614e58bfa566341a7b2b36fdaa1"),
    ((), (4, 3),
     [("neck.pre.weight", (4, 3)), ("neck.pre.bias", (4,)),
      ("neck.post.weight", (3, 4)), ("neck.post.bias", (3,)),
      ("proto.weight", (2, 3))],
     "13949ea7fb175e428dea8584ecb7045eda80ee093c646cf4ced053ce4d15c3be"),
]


@pytest.mark.parametrize("hidden,bottleneck,layout,digest", LAYOUTS,
                         ids=["trunk-and-neck", "no-neck", "empty-trunk"])
def test_parameter_layout(hidden, bottleneck, layout, digest):
    net = nets.build_network(3, 2, np.random.default_rng(0),
                             hidden=hidden, bottleneck=bottleneck)
    assert [(name, t.shape) for name, t in nets.named_parameters(net)] == layout
    assert nets.param_hash(net) == digest
    x = np.random.default_rng(1).normal(size=(5, 3))
    assert nets.feature_values(net, x).shape == (5, layout[-1][1][1])
    frozen = nets.snapshot(net)
    assert nets.param_hash(frozen) == digest
    assert not any(t.requires_grad for t in nets.parameters(frozen))
    assert all(t.requires_grad for t in nets.parameters(net))


def test_feature_dim_and_logit_shape():
    net = tiny_net()
    x = np.random.default_rng(1).normal(size=(7, 3))
    f = nets.feature_values(net, x)
    assert f.shape == (7, 4)
    assert dc.linear(nets.features(net, x), net.prototypes).shape == (7, 2)
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
    net.prototypes.values[0, 0] += 1.0
    assert nets.param_hash(frozen) != nets.param_hash(net)


def test_snapshot_outputs_match_original():
    net = tiny_net(seed=9)
    frozen = nets.snapshot(net)
    x = np.random.default_rng(2).normal(size=(5, 3))
    assert np.array_equal(nets.predict_probs(net, x), nets.predict_probs(frozen, x))


def taped_gradients(net, x, weights) -> list[np.ndarray]:
    """Each parameter's gradient of the mean row_dot of the scores with weights."""
    params = nets.parameters(net)
    def loss():
        rows = dc.row_dot(dc.linear(nets.features(net, x), net.prototypes), weights)
        return dc.mean_gap(rows, np.zeros(rows.shape))

    out, tape = evaluate(loss)
    dc.zero_grads(params)
    dc.backward(tape, out, params=params)
    return [p.grad for p in params]


def test_gradients_flow_to_every_parameter():
    net = tiny_net()
    x = np.random.default_rng(3).normal(size=(6, 3))
    weights = np.random.default_rng(4).normal(size=(6, net.prototypes.shape[0]))
    grads = taped_gradients(net, x, weights)
    assert all(g is not None for g in grads)
    assert any(np.abs(g).sum() > 0 for g in grads)


def test_packed_parameters_view_one_buffer_in_parameter_order():
    net = tiny_net(seed=5)
    before = nets.param_hash(net)
    flat = np.concatenate([t.values for t in nets.parameters(net)], axis=None)
    packed = nets.pack_parameters(net)
    assert packed.requires_grad and packed.values.tobytes() == flat.tobytes()
    assert packed.grad.tobytes() == np.zeros_like(flat).tobytes()
    assert all(np.shares_memory(t.values, packed.values) for t in nets.parameters(net))
    assert nets.param_hash(net) == before
    frozen = nets.snapshot(net)
    assert not any(np.shares_memory(t.values, packed.values)
                   for t in nets.parameters(frozen))


def test_packed_sgd_steps_equal_per_tensor_steps_bit_for_bit():
    hyper = dict(learning_rate=0.05, momentum=0.9, weight_decay=0.0005)
    loose, packed_net = tiny_net(seed=6), tiny_net(seed=6)
    params = nets.parameters(loose)
    velocities = [np.zeros_like(p.values) for p in params]
    packed = nets.pack_parameters(packed_net)
    velocity = np.zeros_like(packed.values)
    rng = np.random.default_rng(7)
    for _ in range(6):
        x, weights = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
        taped_gradients(loose, x, weights)
        for p, v in zip(params, velocities):
            dc.sgd_step(p, v, **hyper)
        packed.grad = np.concatenate(taped_gradients(packed_net, x, weights), axis=None)
        dc.sgd_step(packed, velocity, **hyper)
        assert nets.param_hash(packed_net) == nets.param_hash(loose)
        assert velocity.tobytes() == np.concatenate(velocities, axis=None).tobytes()


# (input_dim, classes, hidden, bottleneck, rows per block). The narrow net's
# widest layer gives 16384 // 48 = 341 rows, cut to 336 so every block
# starts at a multiple of 16; its 3-output layer runs OpenBLAS's narrow kernel
BLOCKED_NETS = [(2, 2, (64, 64), (32, 16), 256), (8, 5, (48,), (32, 3), 336)]


@pytest.mark.parametrize("blas", ["one_thread", "process_threads"])
@pytest.mark.parametrize("input_dim,classes,hidden,bottleneck,rows", BLOCKED_NETS,
                         ids=["default", "narrow"])
@pytest.mark.parametrize("extra", [-1, 0, 1, "3*rows+7"])
def test_blocked_inference_keeps_the_bits_of_one_forward(input_dim, classes, hidden,
                                                         bottleneck, rows, extra, blas):
    net = nets.build_network(input_dim, classes, np.random.default_rng(5),
                             hidden=hidden, bottleneck=bottleneck)
    n = 3 * rows + 7 if extra == "3*rows+7" else rows + extra
    x = np.random.default_rng(6).normal(size=(n, input_dim))
    threads = dc.one_blas_thread() if blas == "one_thread" else contextlib.nullcontext()
    with threads:
        feats = nets.features(net, x).values
        scores = dc.linear(feats, net.prototypes).values
        got = (nets.feature_values(net, x), nets.predict_probs(net, x),
               nets.predict_labels(net, x))
    want = (feats, nets.softmax_rows(scores), np.argmax(scores, axis=1))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_inference_memory_does_not_grow_with_the_rows():
    net = nets.build_network(2, 2, np.random.default_rng(7), hidden=(64, 64),
                             bottleneck=(32, 16))
    x = np.random.default_rng(8).normal(size=(20_000, 2))
    # one unblocked forward holds [20000, 64] activations, 30 MB at its peak
    tracemalloc.start()
    try:
        feats = nets.feature_values(net, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < feats.nbytes + 2 ** 20
