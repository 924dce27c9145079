"""Helpers that only the tests use: a finite-difference gradient check, a
centralized SGD trainer, reference patch kernels and a few small accessors."""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from feddistill.data import LabeledDataset
from feddistill.distill import sgd_step
from feddistill.errors import GraphError, NumericError
from feddistill.evaluate import StageRecord
from feddistill.models import ArchSpec, InitDistribution, cross_entropy, forward, init_params
from feddistill.seeds import make_rng
from feddistill.tensor import ParamSet, Tensor, grad


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float,
                      rel_floor: float = 1e-6) -> float:
    """Max relative error between autodiff and central differences of f at x.

    f must be deterministic; evaluations happen at x +/- eps per coordinate.
    Relative error uses max(|fd|, |ad|, rel_floor) as denominator.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x0 = np.array(x.data, copy=True)
    leaf = Tensor(x0.copy(), requires_grad=True)
    y = f(leaf)
    if y.data.size != 1:
        raise GraphError("finite_diff_check target must be scalar")
    if not np.isfinite(y.data).all():
        raise NumericError("non-finite value at the evaluation point")
    auto = grad(y, [leaf])[0].data.reshape(-1)

    def _eval(arr: np.ndarray) -> float:
        val = f(Tensor(arr)).data
        if not np.isfinite(val).all():
            raise NumericError("non-finite value during finite differencing")
        return float(val.reshape(()))

    fd = np.empty(x0.size, dtype=np.float64)
    flat = x0.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = _eval(x0)
        flat[i] = orig - eps
        fm = _eval(x0)
        flat[i] = orig
        fd[i] = (fp - fm) / (2.0 * eps)
    denom = np.maximum(rel_floor, np.maximum(np.abs(fd), np.abs(auto.astype(np.float64))))
    return float((np.abs(fd - auto) / denom).max())


def fit_model(spec: ArchSpec, data: LabeledDataset, steps: int, lr: float,
              batch_size: int, seed: int, dtype=np.float32,
              initial: ParamSet | None = None) -> ParamSet:
    """Centralized SGD on mixed minibatches (shared oracle/eval trainer)."""
    params = initial.clone() if initial is not None else init_params(
        spec, InitDistribution(seed=seed), dtype=dtype)
    rng = make_rng(seed, "fit")
    order = rng.permutation(len(data))
    cursor = 0
    for _ in range(steps):
        if cursor + batch_size > len(order):
            order = rng.permutation(len(data))
            cursor = 0
        idx = order[cursor:cursor + min(batch_size, len(order))]
        cursor += len(idx)
        x = Tensor(data.samples[idx], dtype=dtype)
        loss = cross_entropy(forward(params, spec, x), data.labels[idx])
        loss.check_finite("centralized fit")
        sgd_step(params, grad(loss, params), lr)
    return params


def per_class_accuracy(record: StageRecord) -> list[float]:
    return [c / t if t else float("nan")
            for c, t in zip(record.per_class_correct, record.per_class_total)]


def sample_shape(data: LabeledDataset) -> tuple[int, ...]:
    return tuple(data.samples.shape[1:])


def total_size(params: ParamSet) -> int:
    return sum(t.size for t in params.tensors())


def im2col_reference(arr: np.ndarray, ksize: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """NCHW patch matrix through `np.pad` and a window view; `tensor.im2col`
    must equal it bit for bit."""
    b, c = arr.shape[:2]
    xp = np.pad(arr, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(xp, (ksize, ksize), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = windows.shape[2:4]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, c * ksize * ksize)


def col2im_reference(arr: np.ndarray, image_shape, ksize: int, stride: int = 1,
                     padding: int = 0) -> np.ndarray:
    """NCHW scatter-add of a patch matrix onto +0, one (ki, kj) slice at a time in
    row-major order; `tensor.col2im` must equal it bit for bit."""
    b, c, h, w = image_shape
    oh = (h + 2 * padding - ksize) // stride + 1
    ow = (w + 2 * padding - ksize) // stride + 1
    g6 = arr.reshape(b, oh, ow, c, ksize * ksize).transpose(0, 3, 4, 1, 2)
    buf = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=arr.dtype)
    for ki in range(ksize):
        for kj in range(ksize):
            buf[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += g6[:, :, ki * ksize + kj]
    return np.ascontiguousarray(buf[:, :, padding:padding + h, padding:padding + w])
