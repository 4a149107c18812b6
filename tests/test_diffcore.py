import zlib

import numpy as np
import pytest

from conftest import AWKWARD_WIDTHS, awkward_rows, evaluate, fd_gradient, max_rel_err
from test_protocol import tiny_config, tiny_sequence

from cdsl_lab import diffcore as dc
from cdsl_lab import nets, objective, protocol


def wrap(*arrays):
    return [dc.Tensor(a, requires_grad=True) for a in arrays]


def test_evaluate_matches_straight_line_recomputation():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=(4,))
    probe = rng.normal(size=(5, 4))

    def f(xt, wt, bt):
        h = dc.relu(dc.linear(xt, wt, bt))
        rows = dc.row_dot(h, probe)
        return dc.mean_gap(rows, np.zeros(rows.shape))

    out, tape = evaluate(f, *wrap(x, w, b))
    direct = np.mean((np.maximum(x @ w.T + b, 0.0) * probe).sum(axis=1))
    assert abs(out.item() - direct) < 1e-12
    assert len(tape) > 0


def test_evaluate_is_deterministic_bitwise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4))

    def f(xt):
        lse = dc.logsumexp_rows(dc.linear(xt, xt))
        return dc.mean_gap(lse, np.zeros(lse.shape))

    a, _ = evaluate(f, *wrap(x))
    b, _ = evaluate(f, *wrap(x))
    assert a.item() == b.item()


@pytest.mark.parametrize("seed", range(5))
def test_composite_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 3))
    w1 = rng.normal(size=(5, 3))
    w2 = rng.normal(size=(2, 5))
    probe = rng.normal(size=(4, 2))

    def loss(xv, w1v, w2v):
        h = dc.standardize_rows(dc.linear(dc.as_tensor(xv), dc.as_tensor(w1v)))
        z = dc.linear(dc.relu(h), dc.as_tensor(w2v))
        lse = dc.logsumexp_rows(dc.row_dot(z, probe), z)
        return dc.mean_gap(lse, np.zeros(lse.shape))

    xt, w1t, w2t = wrap(x, w1, w2)
    out, tape = evaluate(loss, xt, w1t, w2t)
    dc.backward(tape, out)
    for i, t in enumerate([xt, w1t, w2t]):
        num = fd_gradient(loss, [x, w1, w2], wrt=i)
        assert max_rel_err(t.grad, num) < 1e-4


CONSTANT_INPUT_CASES = [
    ("linear", lambda const, var: dc.linear(const, var), 0),
    ("linear", lambda const, var: dc.linear(var, const), 1),
    ("logsumexp_rows", lambda const, var: dc.logsumexp_rows(const, var), 0),
    ("logsumexp_rows", lambda const, var: dc.logsumexp_rows(var, const), 1),
]


@pytest.mark.parametrize("op,apply,const_at", CONSTANT_INPUT_CASES,
                         ids=["linear-x", "linear-w",
                              "logsumexp_rows-a", "logsumexp_rows-b"])
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


def assert_vjp_matches_finite_differences(op, arrays, rng, name=None):
    """The one node op records: its vjp at a random probe against a finite
    difference of probe . op(x), for every input."""
    out, tape = evaluate(op, *wrap(*arrays))
    (node,) = tape.nodes
    probe = rng.normal(size=out.shape)
    grads = node.vjp(probe)
    assert len(grads) == len(arrays)

    def dot(*xs):
        return float(np.sum(probe * op(*map(dc.Tensor, xs)).values))

    for i, g in enumerate(grads):
        assert max_rel_err(g, fd_gradient(dot, arrays, wrt=i)) < 1e-4, name
    return node


BINARY_CASES = [
    ("add", dc.add, [(3, 4), (3, 4)]),
    ("mean_gap", dc.mean_gap, [(3, 4), (3, 4)]),
    ("add", dc.add, [(3, 4), (3, 4), (3, 4)]),  # add sums any number of terms
]


@pytest.mark.parametrize("name,op,shapes", BINARY_CASES, ids=["add", "mean_gap", "add-3"])
def test_binary_primitive_gradients(name, op, shapes):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrays = [rng.normal(size=s) for s in shapes]
    assert assert_vjp_matches_finite_differences(op, arrays, rng, name).op == name


@pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
def test_linear_gradients_match_finite_differences(with_bias):
    rng = np.random.default_rng(21)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(2, 4))]
    if with_bias:
        arrays.append(rng.normal(size=(2,)))
    assert assert_vjp_matches_finite_differences(dc.linear, arrays, rng).op == "linear"


SOFT_WEIGHTS = np.random.default_rng(23).normal(size=(4, 5))

UNARY_CASES = [
    ("relu", dc.relu),
    ("standardize_rows", dc.standardize_rows),
    ("logsumexp_rows", dc.logsumexp_rows),
    ("row_dot", lambda a: dc.row_dot(a, SOFT_WEIGHTS)),
]


@pytest.mark.parametrize("name,op", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_primitive_gradients(name, op):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = rng.normal(size=(4, 5)) + 0.1  # keep relu away from the kink
    assert assert_vjp_matches_finite_differences(op, [x], rng, name).op == name


def test_gradient_of_elementwise_sum_is_ones_exactly():
    (t,) = wrap(np.arange(12.0).reshape(1, 12))
    out, tape = evaluate(lambda a: dc.row_dot(a, np.ones((1, 12))), t)
    dc.backward(tape, out)
    assert np.array_equal(t.grad, np.ones((1, 12)))


def test_unused_input_gets_zero_gradient():
    used, unused = wrap(np.ones((2, 2)), np.ones(3))
    out, tape = evaluate(lambda a, b: dc.mean_gap(a, np.zeros(a.shape)), used, unused)
    dc.backward(tape, out, params=[used, unused])
    assert np.array_equal(unused.grad, np.zeros(3))
    assert np.array_equal(used.grad, np.full((2, 2), 0.25))


def test_gradients_accumulate_until_zeroed():
    (t,) = wrap(np.array([[2.0, 3.0]]))

    out, tape = evaluate(dc.logsumexp_rows, t)
    dc.backward(tape, out)
    first = t.grad.copy()
    dc.backward(tape, out)
    assert np.allclose(t.grad, 2.0 * first)
    dc.zero_grads([t])
    assert t.grad is None


def test_softmax_rows_sum_to_one_and_standardize_moments():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 7)) * 3.0
    s = nets.softmax_rows(x)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
    z = dc.standardize_rows(dc.Tensor(x))
    assert np.allclose(z.values.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(z.values.var(axis=1), 1.0, atol=1e-3)


def test_standardize_constant_row_maps_to_zeros():
    z = dc.standardize_rows(dc.Tensor(np.full((2, 5), 3.7)))
    assert np.array_equal(z.values, np.zeros((2, 5)))


def test_logsumexp_rows_gradients_over_several_blocks_and_a_pick():
    rng = np.random.default_rng(13)
    arrays = [rng.normal(size=(4, w)) for w in (3, 1, 5)]
    onehot = np.eye(3)[[2, 0, 1, 2]]

    def loss(a, b, c):
        a, b, c = map(dc.as_tensor, (a, b, c))
        return dc.mean_gap(dc.logsumexp_rows(a, b, c),
                           dc.logsumexp_rows(dc.row_dot(a, onehot), b))

    ts = wrap(*arrays)
    out, tape = evaluate(loss, *ts)
    dc.backward(tape, out)
    for i, t in enumerate(ts):
        assert max_rel_err(t.grad, fd_gradient(loss, arrays, wrt=i)) < 1e-4


def test_logsumexp_rows_shifts_large_entries_by_the_row_maximum():
    a = np.array([[1000.0, 998.5], [-3.0, 0.25]])
    b = np.array([[1001.25], [1.0]])
    out = dc.logsumexp_rows(dc.Tensor(a), dc.Tensor(b)).values
    assert np.isfinite(out).all()
    rows = np.hstack([a, b])
    top = rows.max(axis=1, keepdims=True)
    assert np.array_equal(out, top + np.log(np.exp(rows - top).sum(axis=1, keepdims=True)))
    # a per-row column, the shape row_dot gives on the same rows
    assert out.shape == dc.row_dot(dc.Tensor(rows), np.ones_like(rows)).shape == (2, 1)
    assert out[0, 0] == pytest.approx(1001.25 + np.log(np.exp([-1.25, -2.75, 0.0]).sum()),
                                   abs=1e-12)


def test_logsumexp_rows_gives_minus_inf_terms_zero_gradient():
    (t,) = wrap(np.array([[0.5, -np.inf, 2.0], [-np.inf, -np.inf, 1.0]]))
    out, tape = evaluate(lambda a: dc.mean_gap(dc.logsumexp_rows(a), np.zeros((2, 1))), t)
    assert out.item() == pytest.approx((np.log(np.exp(0.5) + np.exp(2.0)) + 1.0) / 2)
    dc.backward(tape, out)
    assert t.grad[0, 1] == 0.0 and t.grad[1, 0] == 0.0 and t.grad[1, 1] == 0.0
    assert t.grad[1, 2] == 0.5
    assert t.grad[0].sum() == pytest.approx(0.5)


def test_logsumexp_rows_of_one_column_is_that_column_bit_for_bit():
    scales = np.repeat([1e-3, 1.0, 1e3], 3)[:, None]
    column = np.random.default_rng(17).normal(size=(9, 1)) * scales
    out = dc.logsumexp_rows(dc.Tensor(column)).values
    assert out.tobytes() == column.tobytes()
    # a one-hot row_dot picks the column with its bits
    picked = dc.row_dot(dc.Tensor(np.hstack([column, -column])), np.eye(2)[[0] * 9])
    assert picked.values.tobytes() == column.tobytes()
    assert dc.logsumexp_rows(picked).values.tobytes() == column.tobytes()


def test_logsumexp_rows_and_row_dot_reject_mismatched_shapes():
    with pytest.raises(dc.DiffcoreError, match="logsumexp_rows"):
        dc.logsumexp_rows(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((3, 3))))
    with pytest.raises(dc.DiffcoreError, match="logsumexp_rows"):
        dc.logsumexp_rows(dc.Tensor(np.ones(3)))
    with pytest.raises(dc.DiffcoreError, match="logsumexp_rows"):
        dc.logsumexp_rows()
    with pytest.raises(dc.DiffcoreError, match="row_dot"):
        dc.row_dot(dc.Tensor(np.ones((2, 3))), np.ones((3, 2)))
    with pytest.raises(dc.DiffcoreError, match="row_dot"):
        dc.row_dot(dc.Tensor(np.ones((2, 3))), np.ones(3))
    with pytest.raises(dc.DiffcoreError, match="row_dot"):
        dc.row_dot(dc.Tensor(np.ones(3)), np.ones(3))


def test_shape_mismatch_raises_structured_error():
    with pytest.raises(dc.DiffcoreError, match="add"):
        dc.add(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((4, 5))))
    # nothing broadcasts: a bias row goes through linear, not add
    with pytest.raises(dc.DiffcoreError, match="add"):
        dc.add(dc.Tensor(np.ones((3, 4))), dc.Tensor(np.ones(4)))
    with pytest.raises(dc.DiffcoreError, match="mean_gap"):
        dc.mean_gap(dc.Tensor(np.ones((2, 1))), dc.Tensor(np.ones((3, 1))))
    # a column and a row of one size are not one shape either
    with pytest.raises(dc.DiffcoreError, match="mean_gap"):
        dc.mean_gap(dc.Tensor(np.ones((3, 1))), dc.Tensor(np.ones(3)))
    with pytest.raises(dc.DiffcoreError, match="linear"):
        dc.linear(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((3, 2))))
    with pytest.raises(dc.DiffcoreError, match="linear"):
        dc.linear(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((4, 3))),
                  dc.Tensor(np.ones(3)))
    with pytest.raises(dc.DiffcoreError, match=r"standardize_rows: expected 2-d, got shape \(3,\)"):
        dc.standardize_rows(dc.Tensor(np.ones(3)))


def test_add_rejects_a_mismatched_third_term():
    with pytest.raises(dc.DiffcoreError, match=r"add: incompatible shapes \(2, 3\) and \(3, 2\)"):
        dc.add(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((2, 3))),
               dc.Tensor(np.ones((3, 2))))


def test_add_of_one_term_is_that_term_and_tapes_nothing():
    (t,) = wrap(np.ones((2, 3)))
    with dc.Tape() as tape:
        assert dc.add(t) is t
    assert len(tape) == 0


def test_add_of_no_terms_raises():
    with pytest.raises(dc.DiffcoreError, match="add"):
        dc.add()


def test_backward_rejects_non_scalar_output():
    (t,) = wrap(np.ones((2, 2)))
    out, tape = evaluate(lambda a: dc.add(a, a), t)
    with pytest.raises(dc.DiffcoreError, match="scalar"):
        dc.backward(tape, out)


def test_tapes_do_not_nest():
    (t,) = wrap(np.ones((2, 3)))
    with dc.Tape() as outer:
        with pytest.raises(dc.DiffcoreError, match="already recording"):
            with dc.Tape():
                pass
        out = dc.relu(t)
    assert [node.op for node in outer.nodes] == ["relu"]
    assert outer.nodes[0].output is out and out.requires_grad


def small_training_batch(seed=21):
    rng = np.random.default_rng(seed)
    net = nets.build_network(3, 2, rng, hidden=(6,), bottleneck=(5, 4))
    return net, rng.normal(size=(8, 3)), rng.integers(0, 2, size=8)


def test_a_primitive_outside_the_tape_returns_a_constant():
    net, x, _ = small_training_batch()
    feats = nets.features(net, x)
    assert not feats.requires_grad
    # a constant carries nothing into a later tape
    with dc.Tape() as tape:
        gap = dc.mean_gap(feats, np.zeros(feats.shape))
    assert len(tape) == 0 and not gap.requires_grad
    with dc.Tape() as tape:
        taped = nets.features(net, x)
    assert taped.requires_grad and len(tape) > 0
    assert taped.values.tobytes() == feats.values.tobytes()


def test_a_tape_left_by_an_exception_lets_the_next_one_record():
    net, x, labels = small_training_batch()
    params = nets.parameters(net)

    def step():
        with dc.Tape() as tape:
            ctx = objective.build_context(net, None, x, labels, distill_on="logits")
            total, _ = objective.total_loss(ctx, disable_pca=False)
        return tape, total

    clean_tape, clean_total = step()
    with pytest.raises(RuntimeError, match="inside"):
        with dc.Tape():
            nets.features(net, x)
            raise RuntimeError("inside")
    assert not nets.features(net, x).requires_grad
    tape, total = step()
    assert [n.op for n in tape.nodes] == [n.op for n in clean_tape.nodes]
    assert total.item() == clean_total.item()
    dc.backward(tape, total, params=params)
    before = nets.param_hash(net)
    for p in params:
        dc.sgd_step(p, np.zeros_like(p.values), learning_rate=0.1, momentum=0.9,
                    weight_decay=0.0)
    assert nets.param_hash(net) != before


def test_sgd_two_steps_match_hand_derivation():
    hyper = dict(learning_rate=0.1, momentum=0.9, weight_decay=0.01)
    theta = dc.Tensor(np.array([2.0]), requires_grad=True)

    def grad_of(v):
        return 2.0 * v  # d/dv of v^2

    th0 = 2.0
    velocity = np.zeros(1)
    theta.grad = np.array([grad_of(th0)])
    dc.sgd_step(theta, velocity, **hyper)
    v1 = grad_of(th0) + 0.01 * th0
    th1 = th0 - 0.1 * v1
    assert velocity[0] == v1  # updated in place
    assert theta.values[0] == th1

    theta.grad = np.array([grad_of(th1)])
    dc.sgd_step(theta, velocity, **hyper)
    v2 = 0.9 * v1 + (grad_of(th1) + 0.01 * th1)
    th2 = th1 - 0.1 * v2
    assert velocity[0] == v2
    assert theta.values[0] == th2


def test_sgd_without_momentum_or_decay_is_plain_descent():
    p = dc.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.2, 0.4])
    dc.sgd_step(p, np.zeros(2), learning_rate=0.5, momentum=0.0, weight_decay=0.0)
    assert np.array_equal(p.values, np.array([1.0 - 0.1, -2.0 - 0.2]))


def test_sgd_requires_gradients():
    p = dc.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(dc.DiffcoreError, match="gradient"):
        dc.sgd_step(p, np.zeros(2), learning_rate=0.1, momentum=0.9, weight_decay=0.0)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_reads_every_size_one_shape(shape):
    assert dc.Tensor(np.full(shape, 2.5)).item() == 2.5


@pytest.mark.parametrize("shape", [(0,), (2,), (1, 3)])
def test_item_rejects_other_sizes(shape):
    with pytest.raises(dc.DiffcoreError, match="item"):
        dc.Tensor(np.ones(shape)).item()


def taped(op, x):
    """Output values and the vjp of a one-node op on x."""
    out, tape = evaluate(op, dc.Tensor(x, requires_grad=True))
    (node,) = tape.nodes
    return out.values, lambda g: node.vjp(g)[0]


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", AWKWARD_WIDTHS)
def test_row_ops_keep_the_bits_of_ndarray_reductions(width):
    """standardize_rows, forward and vjp, and the untaped nets.softmax_rows
    against the ndarray.mean/var/sum/max formulas byte for byte."""
    g = np.random.default_rng(width + 1).normal(size=(3, width))
    for x in awkward_rows(width):
        y, vjp = taped(dc.standardize_rows, x)
        mu = x.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + dc.STANDARDIZE_EPS)
        want = (x - mu) * inv
        assert_same_bytes(y, want)
        assert_same_bytes(vjp(g), inv * (g - g.mean(axis=1, keepdims=True)
                                         - want * (g * want).mean(axis=1, keepdims=True)))

        e = np.exp(x - x.max(axis=1, keepdims=True))
        assert_same_bytes(nets.softmax_rows(x), e / e.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("width", AWKWARD_WIDTHS)
def test_reductions_keep_the_bits_of_ndarray_reductions(width):
    """row_dot and mean_gap, forward and vjp, against ndarray.sum/mean and
    broadcast_to(...).copy() byte for byte."""
    rng = np.random.default_rng(width + 2)
    w, g_rows, g_all = rng.normal(size=(3, width)), rng.normal(size=(3, 1)), np.array(rng.normal())
    y = rng.normal(size=(3, width))
    for x in awkward_rows(width):
        out, vjp = taped(lambda t: dc.row_dot(t, w), x)
        assert_same_bytes(out, (x * w).sum(axis=1, keepdims=True))
        assert_same_bytes(vjp(g_rows), g_rows * w)
        out, tape = evaluate(dc.mean_gap, *wrap(x, y))
        assert_same_bytes(out.values, np.asarray((x - y).mean()))
        want = np.broadcast_to(g_all / x.size, x.shape).copy()
        grad_x, grad_y = tape.nodes[0].vjp(g_all)
        assert_same_bytes(grad_x, want)
        assert_same_bytes(grad_y, -want)


# ---------------------------------------------------------------- blas threads

def blas_thread_calls():
    """(get, set) of numpy's OpenBLAS thread count; skips where there is none."""
    calls = dc._openblas_threads()
    if calls is None:
        pytest.skip("numpy loaded no OpenBLAS, so there is no thread count to read")
    return calls


@pytest.fixture
def two_blas_threads():
    """Start the test at 2 BLAS threads and give back the count it found."""
    get, put = blas_thread_calls()
    found = get()
    put(2)
    yield get
    put(found)


def test_one_blas_thread_pins_the_count_and_restores_it(two_blas_threads):
    get = two_blas_threads
    with dc.one_blas_thread():
        assert get() == 1
    assert get() == 2
    with pytest.raises(RuntimeError, match="inside"):
        with dc.one_blas_thread():
            assert get() == 1
            raise RuntimeError("inside")
    assert get() == 2


def test_one_blas_thread_does_nothing_without_openblas(monkeypatch):
    found = dc._openblas_threads()

    def count():
        return found[0]() if found else None

    before = count()
    monkeypatch.setattr(dc, "_openblas_threads", lambda: None)
    with dc.one_blas_thread():
        assert count() == before
        out = dc.linear(np.eye(3), np.ones((2, 3))).values
    assert count() == before
    assert np.array_equal(out, np.ones((3, 2)))


def test_run_cdsl_trains_on_one_blas_thread(two_blas_threads, monkeypatch):
    get = two_blas_threads
    seen = []
    build_context = objective.build_context

    def spy(*args, **kwargs):
        seen.append(get())
        return build_context(*args, **kwargs)

    monkeypatch.setattr(objective, "build_context", spy)
    protocol.run_cdsl(tiny_config(epochs=1), tiny_sequence(n_domains=2))
    assert seen and set(seen) == {1}
    assert get() == 2


@pytest.mark.parametrize("width", [1, 48, 64, 400, 1056, 2 ** 15])
@pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 255, 256, 257, 513])
def test_row_blocks_tile_the_rows_at_multiples_of_16(n, width):
    blocks = dc.row_blocks(n, width)
    step = max(16, dc.BLOCK_ELEMENTS // width // 16 * 16)
    edges = [0, *(b.stop for b in blocks)]
    assert [b.start for b in blocks] == edges[:-1] and edges[-1] == n
    assert all(b.start % 16 == 0 for b in blocks)
    assert all(b.stop - b.start > 1 for b in blocks) or n == 1
    assert all(b.stop - b.start == step for b in blocks[:-1])
    assert step * width <= dc.BLOCK_ELEMENTS or step == 16
