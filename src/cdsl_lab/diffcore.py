"""Reverse-mode automatic differentiation on dense float64 arrays.

Tensors wrap numpy arrays. Primitive ops compute eagerly. One Tape at a time
records: while it does, an op with an input that requires a gradient returns
a gradient-tracking output and appends a record of how to push gradients back
to its inputs. Outside the tape every op returns a constant. Records are
stored in execution order, so walking the tape in reverse visits every node
after all of its consumers. Reductions call `np.add.reduce` and
`np.maximum.reduce` directly, in the order `ndarray.mean`/`var`/`sum`/`max` do: same bits.
`one_blas_thread` runs a block with numpy's OpenBLAS on one thread.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, reduce
from pathlib import Path
from typing import Callable

import numpy as np

STANDARDIZE_EPS = 1e-5
# elements of one intermediate array where work runs in row blocks (inference, kNN scores)
BLOCK_ELEMENTS = 2 ** 14


def row_blocks(n: int, width: int) -> list[slice]:
    """Slices that tile n rows in order, about BLOCK_ELEMENTS elements a block
    at this width: max(16, BLOCK_ELEMENTS // width // 16 * 16) rows each, the
    last holding the rest. A row keeps the bits of one product over all rows,
    since BLAS splits a product's rows and never its inner sum, as long as no
    row meets other arithmetic in a block than in the whole product:
    - numpy sends a 1-row product to gemv, so a lone last row joins the block
      before it;
    - OpenBLAS computes the last (rows mod 4) rows of a product with 3 or
      fewer outputs another way, so blocks start at multiples of 16 rows (a
      multiple of the unroll on x86-64) and only the last block has such rows.
    """
    step = max(16, BLOCK_ELEMENTS // width // 16 * 16)
    stops = [*range(step, n - 1, step), n] if n else []
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


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
        return float(self.values.reshape(()))

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
    """Ordered record of primitive applications for one backward pass.
    Tapes do not nest: entering one while another records raises."""

    nodes: list[TapeNode] = field(default_factory=list)

    def __enter__(self) -> "Tape":
        global _RECORDING
        if _RECORDING is not None:
            raise DiffcoreError("tape: another tape is already recording")
        _RECORDING = self
        return self

    def __exit__(self, *exc) -> None:
        global _RECORDING
        _RECORDING = None

    def __len__(self) -> int:
        return len(self.nodes)


_RECORDING: Tape | None = None


def _record(op: str, inputs: tuple[Tensor, ...], out_values: np.ndarray, vjp) -> Tensor:
    if _RECORDING is not None:
        for t in inputs:
            if t.requires_grad:
                out = Tensor(out_values, requires_grad=True)
                _RECORDING.nodes.append(TapeNode(op, inputs, out, vjp))
                return out
    return Tensor(out_values)


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
            seen = adjoint.get(id(inp))
            adjoint[id(inp)] = (inp, gi if seen is None else seen[1] + gi)
    for t, g in adjoint.values():
        t.grad = g if t.grad is None else t.grad + g
    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.values)


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.grad = None


def _same_shape(op: str, *terms) -> tuple[Tensor, ...]:
    """Tensors of one shape, for an elementwise op; nothing broadcasts."""
    terms = tuple(as_tensor(t) for t in terms)
    for t in terms[1:]:
        if t.shape != terms[0].shape:
            raise DiffcoreError(f"{op}: incompatible shapes {terms[0].shape} and {t.shape}")
    return terms


def add(*terms) -> Tensor:
    """Sum of one or more same-shape terms, left to right, as one node; a
    single term comes back as itself."""
    if not terms:
        raise DiffcoreError("add: no terms")
    terms = _same_shape("add", *terms)
    if len(terms) == 1:
        return terms[0]
    return _record("add", terms, reduce(np.add, [t.values for t in terms]),
                   lambda g: (g,) * len(terms))


def mean_gap(a, b) -> Tensor:
    """Mean of every entry of a - b, as a scalar."""
    a, b = _same_shape("mean_gap", a, b)
    n = a.values.size
    return _record("mean_gap", (a, b), np.add.reduce(a.values - b.values, axis=None) / n,
                   lambda g: (np.full(a.shape, g / n), -np.full(a.shape, g / n)))


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
        grads = (g @ wt.T if x.requires_grad else None,
                 (x.values.T @ g).T if w.requires_grad else None)
        return grads if b is None else grads + (np.add.reduce(g, axis=0),)
    return _record("linear", inputs, out, vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.values > 0.0
    return _record("relu", (a,), np.where(mask, a.values, 0.0),
                   lambda g: (g * mask,))


def logsumexp_rows(*blocks) -> Tensor:
    """Row log-sum-exp as a column [n, 1] of 2-d blocks read side by side as one
    row of terms. Each row is shifted by its maximum over all blocks, so no
    exponential overflows and a one-column block comes back bit for bit; -inf
    terms add nothing and get zero gradient."""
    blocks = tuple(as_tensor(b) for b in blocks)
    shapes = [b.shape for b in blocks]
    if not blocks or any(len(s) != 2 or s[0] != shapes[0][0] for s in shapes):
        raise DiffcoreError(f"logsumexp_rows: expected 2-d blocks of one row count, got {shapes}")
    shift = reduce(np.maximum, [np.maximum.reduce(b.values, axis=1, keepdims=True)
                                for b in blocks])
    exps = [np.exp(b.values - shift) for b in blocks]
    total = reduce(np.add, [np.add.reduce(e, axis=1, keepdims=True) for e in exps])
    return _record("logsumexp_rows", blocks, shift + np.log(total),
                   lambda g: tuple(e * (g / total) if b.requires_grad else None
                                   for b, e in zip(blocks, exps)))


def row_dot(a, w: np.ndarray) -> Tensor:
    """Row sums of a * w as a column [n, 1], for a constant w of a's 2-d shape.
    A one-hot w picks each row's entry with its bits where a is finite: every
    other product is a zero, and a zero added to a nonzero sum leaves it be."""
    a = as_tensor(a)
    if a.values.ndim != 2 or np.shape(w) != a.shape:
        raise DiffcoreError(f"row_dot: weights of shape {np.shape(w)} for shape {a.shape}")
    return _record("row_dot", (a,), np.add.reduce(a.values * w, axis=1, keepdims=True),
                   lambda g: (g * w,))


def row_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x - mean, var) along the last axis, with the bits of ndarray.mean and var."""
    width = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / width
    return centred, np.add.reduce(centred * centred, axis=-1, keepdims=True) / width


def standardize_rows(a) -> Tensor:
    """Per-row shift to zero mean and scale to unit variance."""
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise DiffcoreError(f"standardize_rows: expected 2-d, got shape {a.shape}")
    centred, var = row_moments(a.values)
    inv = 1.0 / np.sqrt(var + STANDARDIZE_EPS)
    y = centred * inv
    def vjp(g):
        gm = np.add.reduce(g, axis=1, keepdims=True) / y.shape[1]
        gy = np.add.reduce(g * y, axis=1, keepdims=True) / y.shape[1]
        return (inv * (g - gm - y * gy),)
    return _record("standardize_rows", (a,), y, vjp)


def sgd_step(param: Tensor, velocity: np.ndarray, *,
             learning_rate: float, momentum: float, weight_decay: float) -> None:
    """One momentum-SGD update of a parameter and its velocity, both in place:
    v <- m*v + (g + wd*p); p <- p - lr*v. Every operation is elementwise, so
    on a packed buffer (`nets.pack_parameters`) each entry gets the bits of
    the update of its own parameter."""
    if param.grad is None:
        raise DiffcoreError("sgd: parameter has no gradient; run backward first")
    # one scratch array, first wd*p + g (the bits of g + wd*p) and then lr*v:
    # a packed buffer's temporaries are large, and each one freed can trim
    # the heap, so that the next step faults its pages back in
    step = np.multiply(weight_decay, param.values)
    step += param.grad
    velocity *= momentum
    velocity += step
    np.multiply(learning_rate, velocity, out=step)
    param.values -= step


@cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None where numpy uses another BLAS. CDLL on the loaded file returns the
    handle numpy already holds."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Run the block with BLAS on one thread, then restore the count found.

    At this lab's widths (64 or less) a second thread mostly spins. OpenBLAS
    threads split a product's rows and columns, never its inner sum, so every
    entry keeps its bits at any thread count. Without OpenBLAS it does nothing.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
