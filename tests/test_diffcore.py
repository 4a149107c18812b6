import numpy as np
import pytest

from conftest import evaluate, fd_gradient, max_rel_err

from cdsl_lab import diffcore as dc


def wrap(*arrays):
    return [dc.Tensor(a, requires_grad=True) for a in arrays]


def test_evaluate_matches_straight_line_recomputation():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=(4,))

    def f(xt, wt, bt):
        h = dc.relu(dc.linear(xt, wt, bt))
        return dc.reduce_mean(dc.mul(h, h))

    out, tape = evaluate(f, *wrap(x, w, b))
    direct = np.mean(np.maximum(x @ w.T + b, 0.0) ** 2)
    assert abs(out.item() - direct) < 1e-12
    assert len(tape) > 0


def test_evaluate_is_deterministic_bitwise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4))

    def f(xt):
        return dc.reduce_sum(dc.softmax_rows(dc.matmul(xt, xt)))

    a, _ = evaluate(f, *wrap(x))
    b, _ = evaluate(f, *wrap(x))
    assert a.item() == b.item()


@pytest.mark.parametrize("seed", range(5))
def test_composite_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 3))
    w1 = rng.normal(size=(3, 5))
    w2 = rng.normal(size=(5, 2))
    probe = rng.normal(size=(4, 2))

    def loss(xv, w1v, w2v):
        h = dc.standardize_rows(dc.matmul(dc.as_tensor(xv), dc.as_tensor(w1v)))
        p = dc.softmax_rows(dc.matmul(dc.relu(h), dc.as_tensor(w2v)))
        return dc.reduce_mean(dc.mul(dc.log(p), dc.Tensor(probe)))

    xt, w1t, w2t = wrap(x, w1, w2)
    out, tape = evaluate(loss, xt, w1t, w2t)
    dc.backward(tape, out)
    for i, t in enumerate([xt, w1t, w2t]):
        num = fd_gradient(loss, [x, w1, w2], wrt=i)
        assert max_rel_err(t.grad, num) < 1e-4


CONSTANT_INPUT_CASES = [
    ("mul", lambda const, var: dc.mul(const, var), 0),
    ("mul", lambda const, var: dc.mul(var, const), 1),
    ("matmul", lambda const, var: dc.matmul(const, var), 0),
    ("matmul", lambda const, var: dc.matmul(var, const), 1),
    ("linear", lambda const, var: dc.linear(const, var), 0),
]


@pytest.mark.parametrize("op,apply,const_at", CONSTANT_INPUT_CASES,
                         ids=["mul-a", "mul-b", "matmul-a", "matmul-b", "linear-x"])
def test_vjp_skips_inputs_without_requires_grad(op, apply, const_at):
    rng = np.random.default_rng(11)
    const = dc.Tensor(rng.normal(size=(3, 3)))
    var = dc.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    with dc.Tape() as tape:
        out = apply(const, var)
    (node,) = tape.nodes
    assert node.op == op
    grads = node.vjp(np.ones(out.shape))
    assert grads[const_at] is None
    assert grads[1 - const_at].shape == (3, 3)


BINARY_CASES = [
    ("add", dc.add, [(3, 4), (3, 4)]),
    ("sub", dc.sub, [(3, 4), (3, 4)]),
    ("mul", dc.mul, [(3, 4), (3, 4)]),
    ("matmul", dc.matmul, [(3, 4), (4, 2)]),
]


@pytest.mark.parametrize("name,op,shapes", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_binary_primitive_gradients(name, op, shapes):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    arrays = [rng.normal(size=s) for s in shapes]
    probe_shape = op(dc.Tensor(arrays[0]), dc.Tensor(arrays[1])).shape
    probe = rng.normal(size=probe_shape)

    def loss(a, b):
        return dc.reduce_sum(dc.mul(op(dc.as_tensor(a), dc.as_tensor(b)), dc.Tensor(probe)))

    ts = wrap(*arrays)
    out, tape = evaluate(loss, *ts)
    dc.backward(tape, out)
    for i, t in enumerate(ts):
        num = fd_gradient(loss, arrays, wrt=i)
        assert max_rel_err(t.grad, num) < 1e-4, name


@pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
def test_linear_gradients_match_finite_differences(with_bias):
    rng = np.random.default_rng(21)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(2, 4))]
    if with_bias:
        arrays.append(rng.normal(size=(2,)))
    probe = rng.normal(size=(3, 2))

    def loss(*xs):
        return dc.reduce_sum(dc.mul(dc.linear(*map(dc.as_tensor, xs)), dc.Tensor(probe)))

    ts = wrap(*arrays)
    out, tape = evaluate(loss, *ts)
    dc.backward(tape, out)
    assert [n.op for n in tape.nodes] == ["linear", "mul", "reduce_sum"]
    for i, t in enumerate(ts):
        num = fd_gradient(loss, arrays, wrt=i)
        assert max_rel_err(t.grad, num) < 1e-4


UNARY_CASES = [
    ("relu", dc.relu),
    ("exp", dc.exp),
    ("softmax_rows", dc.softmax_rows),
    ("standardize_rows", dc.standardize_rows),
    ("scale", lambda a: dc.scale(a, -2.5)),
    ("sum_axis0", lambda a: dc.reduce_sum(a, axis=0)),
]


@pytest.mark.parametrize("name,op", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_primitive_gradients(name, op):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    x = rng.normal(size=(4, 5)) + 0.1  # keep relu away from the kink
    probe_shape = op(dc.Tensor(x)).shape
    probe = rng.normal(size=probe_shape)

    def loss(a):
        return dc.reduce_sum(dc.mul(op(dc.as_tensor(a)), dc.Tensor(probe)))

    (t,) = wrap(x)
    out, tape = evaluate(loss, t)
    dc.backward(tape, out)
    num = fd_gradient(loss, [x], wrt=0)
    assert max_rel_err(t.grad, num) < 1e-4, name


def test_log_gradient_matches_fd_on_positive_input():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.5, 2.0, size=(3, 3))

    def loss(a):
        return dc.reduce_sum(dc.log(dc.as_tensor(a)))

    (t,) = wrap(x)
    out, tape = evaluate(loss, t)
    dc.backward(tape, out)
    num = fd_gradient(loss, [x], wrt=0)
    assert max_rel_err(t.grad, num) < 1e-4


def test_log_clamps_at_zero_and_kills_gradient_below_clamp():
    (t,) = wrap(np.array([[0.0, 1.0]]))
    out, tape = evaluate(lambda a: dc.reduce_sum(dc.log(a)), t)
    assert np.isfinite(out.item())
    assert out.item() == pytest.approx(np.log(dc.LOG_CLAMP))
    dc.backward(tape, out)
    assert t.grad[0, 0] == 0.0
    assert t.grad[0, 1] == 1.0


def test_gradient_of_elementwise_sum_is_ones_exactly():
    (t,) = wrap(np.arange(12.0).reshape(3, 4))
    out, tape = evaluate(lambda a: dc.reduce_sum(a), t)
    dc.backward(tape, out)
    assert np.array_equal(t.grad, np.ones((3, 4)))


def test_unused_input_gets_zero_gradient():
    used, unused = wrap(np.ones((2, 2)), np.ones(3))
    out, tape = evaluate(lambda a, b: dc.reduce_sum(a), used, unused)
    dc.backward(tape, out, params=[used, unused])
    assert np.array_equal(unused.grad, np.zeros(3))
    assert np.array_equal(used.grad, np.ones((2, 2)))


def test_gradients_accumulate_until_zeroed():
    (t,) = wrap(np.array([2.0, 3.0]))

    out, tape = evaluate(lambda a: dc.reduce_sum(dc.mul(a, a)), t)
    dc.backward(tape, out)
    first = t.grad.copy()
    dc.backward(tape, out)
    assert np.allclose(t.grad, 2.0 * first)
    dc.zero_grads([t])
    assert t.grad is None


def test_softmax_rows_sum_to_one_and_standardize_moments():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 7)) * 3.0
    s = dc.softmax_rows(dc.Tensor(x))
    assert np.allclose(s.values.sum(axis=1), 1.0, atol=1e-12)
    z = dc.standardize_rows(dc.Tensor(x))
    assert np.allclose(z.values.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(z.values.var(axis=1), 1.0, atol=1e-3)


def test_standardize_constant_row_maps_to_zeros():
    z = dc.standardize_rows(dc.Tensor(np.full((2, 5), 3.7)))
    assert np.array_equal(z.values, np.zeros((2, 5)))


def test_shape_mismatch_raises_structured_error():
    with pytest.raises(dc.DiffcoreError, match="matmul"):
        dc.matmul(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((2, 3))))
    with pytest.raises(dc.DiffcoreError, match="add"):
        dc.add(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((4, 5))))
    # nothing broadcasts: a bias row goes through linear, not add
    with pytest.raises(dc.DiffcoreError, match="add"):
        dc.add(dc.Tensor(np.ones((3, 4))), dc.Tensor(np.ones(4)))
    with pytest.raises(dc.DiffcoreError, match="linear"):
        dc.linear(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((3, 2))))
    with pytest.raises(dc.DiffcoreError, match="linear"):
        dc.linear(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((4, 3))),
                  dc.Tensor(np.ones(3)))


def test_backward_rejects_non_scalar_output():
    (t,) = wrap(np.ones((2, 2)))
    out, tape = evaluate(lambda a: dc.mul(a, a), t)
    with pytest.raises(dc.DiffcoreError, match="scalar"):
        dc.backward(tape, out)


def test_sgd_two_steps_match_hand_derivation():
    cfg = dc.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.01)
    theta = dc.Tensor(np.array([2.0]), requires_grad=True)

    def grad_of(v):
        return 2.0 * v  # d/dv of v^2

    th0 = 2.0
    theta.grad = np.array([grad_of(th0)])
    velocities = dc.sgd_step([theta], cfg)
    v1 = grad_of(th0) + 0.01 * th0
    th1 = th0 - 0.1 * v1
    assert theta.values[0] == th1

    theta.grad = np.array([grad_of(th1)])
    assert dc.sgd_step([theta], cfg, velocities) is velocities  # updated in place
    v2 = 0.9 * v1 + (grad_of(th1) + 0.01 * th1)
    th2 = th1 - 0.1 * v2
    assert theta.values[0] == th2


def test_sgd_without_momentum_or_decay_is_plain_descent():
    cfg = dc.SgdConfig(learning_rate=0.5, momentum=0.0, weight_decay=0.0)
    p = dc.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.2, 0.4])
    dc.sgd_step([p], cfg)
    assert np.array_equal(p.values, np.array([1.0 - 0.1, -2.0 - 0.2]))


def test_sgd_config_validation():
    with pytest.raises(dc.DiffcoreError):
        dc.SgdConfig(learning_rate=0.0)
    with pytest.raises(dc.DiffcoreError):
        dc.SgdConfig(learning_rate=0.1, momentum=1.0)
    with pytest.raises(dc.DiffcoreError):
        dc.SgdConfig(learning_rate=0.1, weight_decay=-1e-9)


def test_sgd_requires_gradients():
    p = dc.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(dc.DiffcoreError, match="gradient"):
        dc.sgd_step([p], dc.SgdConfig(learning_rate=0.1))


def test_sgd_rejects_velocities_of_another_parameter_list():
    p = dc.Tensor(np.ones(2), requires_grad=True)
    p.grad = np.ones(2)
    with pytest.raises(dc.DiffcoreError, match="velocities"):
        dc.sgd_step([p], dc.SgdConfig(learning_rate=0.1), [np.zeros(2), np.zeros(2)])
