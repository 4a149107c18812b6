"""Shared test helpers: taped evaluation, finite-difference oracle, error
measures, and the OpenBLAS core numpy runs on and whether it can run the
Haswell kernels."""

from __future__ import annotations

import ctypes
import platform
from pathlib import Path

import numpy as np

from cdsl_lab.diffcore import Tape, Tensor


def evaluate(fn, *inputs: Tensor) -> tuple[Tensor, Tape]:
    """Run fn under a fresh tape; returns (output tensor, recorded tape)."""
    with Tape() as tape:
        out = fn(*inputs)
    return out, tape


def blas_core() -> str | None:
    """The core name numpy's bundled OpenBLAS picked for this CPU, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = (), ctypes.c_char_p
            return corename().decode()
    return None


def runs_openblas_haswell_kernels() -> bool:
    """Whether numpy's BLAS is the bundled scipy-openblas on an x86-64 CPU
    with AVX2, so OpenBLAS can be told to use its Haswell kernels."""
    from numpy._core._multiarray_umath import __cpu_features__
    return (platform.machine().lower() in ("x86_64", "amd64") and blas_core() is not None
            and __cpu_features__.get("AVX2", False))


# row widths that straddle numpy's pairwise-summation blocks
AWKWARD_WIDTHS = (1, 2, 7, 8, 9, 16, 33, 127, 128, 129, 257)


def awkward_rows(width: int) -> list[np.ndarray]:
    """Random rows, constant rows and random rows offset by 1e6, each [3, width]."""
    rows = np.random.default_rng(width).normal(size=(3, width))
    return [rows, np.full((3, width), 0.37), rows + 1e6]


def call_scalar(fn, arrays) -> float:
    out = fn(*arrays)
    if isinstance(out, Tensor):
        return float(out.values.reshape(()))
    return float(out)


def fd_gradient(fn, arrays, wrt: int, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar fn w.r.t. arrays[wrt]."""
    base = [np.array(a, dtype=np.float64, copy=True) for a in arrays]
    grad = np.zeros_like(base[wrt])
    flat = grad.reshape(-1)
    target = base[wrt].reshape(-1)
    for i in range(target.size):
        keep = target[i]
        target[i] = keep + h
        up = call_scalar(fn, base)
        target[i] = keep - h
        down = call_scalar(fn, base)
        target[i] = keep
        flat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())
