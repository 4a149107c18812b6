"""Reverse-mode automatic differentiation on dense float64 arrays.

Tensors wrap numpy arrays. Primitive ops compute eagerly and, while a Tape
is active, append a record of how to push gradients back to their inputs.
Records are stored in execution order, so walking the tape in reverse visits
every node after all of its consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

LOG_CLAMP = 1e-12
STANDARDIZE_EPS = 1e-5


class DiffcoreError(ValueError):
    """Raised for shape or usage errors, naming the offending primitive."""


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise DiffcoreError(f"item: tensor has shape {self.shape}, not scalar")
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class TapeNode:
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    # one gradient per input; None where that input needs none
    vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


@dataclass
class Tape:
    """Ordered record of primitive applications for one backward pass."""

    nodes: list[TapeNode] = field(default_factory=list)

    def __enter__(self) -> "Tape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _ACTIVE.pop()
        if popped is not self:
            raise DiffcoreError("tape: unbalanced enter/exit")

    def __len__(self) -> int:
        return len(self.nodes)


_ACTIVE: list[Tape] = []


def _record(op: str, inputs: tuple[Tensor, ...], out_values: np.ndarray, vjp) -> Tensor:
    out = Tensor(out_values, requires_grad=any(t.requires_grad for t in inputs))
    if _ACTIVE and out.requires_grad:
        _ACTIVE[-1].nodes.append(TapeNode(op, inputs, out, vjp))
    return out


def backward(tape: Tape, output: Tensor, params: list[Tensor] | None = None) -> None:
    """Accumulate gradients of a scalar output into requires_grad tensors.

    Tensors in `params` that the output does not depend on receive zero
    gradients of their own shape.
    """
    if output.values.size != 1:
        raise DiffcoreError(f"backward: output has shape {output.shape}, not scalar")
    # id -> (tensor, gradient so far); the tape holds every node's tensors,
    # so no id is reused while the pass runs
    adjoint: dict[int, tuple[Tensor, np.ndarray]] = {
        id(output): (output, np.ones_like(output.values))}
    for node in reversed(tape.nodes):
        entry = adjoint.pop(id(node.output), None)
        if entry is None:
            continue
        grads = node.vjp(entry[1])
        for inp, gi in zip(node.inputs, grads):
            if not inp.requires_grad or gi is None:
                continue
            key = id(inp)
            if key in adjoint:
                adjoint[key] = (inp, adjoint[key][1] + gi)
            else:
                adjoint[key] = (inp, gi)
    for t, g in adjoint.values():
        t.grad = g if t.grad is None else t.grad + g
    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.values)


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.grad = None


def _binary(op: str, a, b, forward, vjp_builder) -> Tensor:
    """Elementwise op on two tensors of one shape; nothing broadcasts."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise DiffcoreError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    return _record(op, (a, b), forward(a.values, b.values), vjp_builder(a, b))


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda a, b: lambda g: (g, g))


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda a, b: lambda g: (g, -g))


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply,
                   lambda a, b: lambda g: (g * b.values if a.requires_grad else None,
                                           g * a.values if b.requires_grad else None))


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return _record("scale", (a,), a.values * c, lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DiffcoreError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.values @ b.values
    return _record("matmul", (a, b), out,
                   lambda g: (g @ b.values.T if a.requires_grad else None,
                              a.values.T @ g if b.requires_grad else None))


def linear(x, w, b=None) -> Tensor:
    """Dense map x @ w.T (+ b) as one node; w is [out, in], b is [out]."""
    x, w = as_tensor(x), as_tensor(w)
    inputs = (x, w) if b is None else (x, w, as_tensor(b))
    if (x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[1]
            or (b is not None and inputs[2].shape != (w.shape[0],))):
        shapes = " and ".join(str(t.shape) for t in inputs)
        raise DiffcoreError(f"linear: incompatible shapes {shapes}")
    # a C-ordered copy of w.T: BLAS gives other bits for the transposed view
    wt = w.values.T.copy()
    out = x.values @ wt
    if b is not None:
        out = out + inputs[2].values

    def vjp(g):
        grads = (g @ wt.T if x.requires_grad else None, (x.values.T @ g).T)
        return grads if b is None else grads + (g.sum(axis=0),)
    return _record("linear", inputs, out, vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.values > 0.0
    return _record("relu", (a,), np.where(mask, a.values, 0.0),
                   lambda g: (g * mask,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.values)
    return _record("exp", (a,), out, lambda g: (g * out,))


def log(a) -> Tensor:
    """Natural log with the argument clamped to at least LOG_CLAMP."""
    a = as_tensor(a)
    clamped = np.maximum(a.values, LOG_CLAMP)
    live = a.values > LOG_CLAMP
    return _record("log", (a,), np.log(clamped),
                   lambda g: (np.where(live, g / clamped, 0.0),))


def softmax_rows(a) -> Tensor:
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise DiffcoreError(f"softmax_rows: expected 2-d, got shape {a.shape}")
    z = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)
    def vjp(g):
        return (s * (g - (g * s).sum(axis=1, keepdims=True)),)
    return _record("softmax_rows", (a,), s, vjp)


def standardize_rows(a) -> Tensor:
    """Per-row shift to zero mean and scale to unit variance."""
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise DiffcoreError(f"standardize_rows: expected 2-d, got shape {a.shape}")
    mu = a.values.mean(axis=1, keepdims=True)
    var = a.values.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + STANDARDIZE_EPS)
    y = (a.values - mu) * inv
    def vjp(g):
        gm = g.mean(axis=1, keepdims=True)
        gy = (g * y).mean(axis=1, keepdims=True)
        return (inv * (g - gm - y * gy),)
    return _record("standardize_rows", (a,), y, vjp)


def reduce_sum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    out = a.values.sum(axis=axis)
    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)
    return _record("reduce_sum", (a,), out, vjp)


def reduce_mean(a) -> Tensor:
    """Mean of every entry, as a scalar."""
    a = as_tensor(a)
    n = a.values.size
    return _record("reduce_mean", (a,), a.values.mean(),
                   lambda g: (np.broadcast_to(g / n, a.shape).copy(),))


@dataclass
class SgdConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise DiffcoreError(f"sgd: learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise DiffcoreError(f"sgd: momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise DiffcoreError(f"sgd: weight_decay must be non-negative, got {self.weight_decay}")


def sgd_step(params: list[Tensor], cfg: SgdConfig,
             velocities: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """One momentum-SGD update in place: v <- m*v + (g + wd*p); p <- p - lr*v.
    Returns the velocities, one array per parameter, for the next step."""
    if velocities is None:
        velocities = [np.zeros_like(p.values) for p in params]
    if len(velocities) != len(params):
        raise DiffcoreError("sgd: velocities do not match parameter list")
    for p, v in zip(params, velocities):
        if p.grad is None:
            raise DiffcoreError("sgd: parameter has no gradient; run backward first")
        v *= cfg.momentum
        v += p.grad + cfg.weight_decay * p.values
        p.values -= cfg.learning_rate * v
    return velocities
