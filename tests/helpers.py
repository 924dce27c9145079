"""Helpers that only the tests use: a finite-difference gradient check, a
centralized SGD trainer, the per-client reference of an unlearning round,
reference patch kernels, the reference MIA threshold scan, slicing and
trigonometric ops, and a few small accessors."""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from feddistill.data import LabeledDataset
from feddistill.distill import sgd_step
from feddistill.errors import GraphError, NumericError
from feddistill.evaluate import StageRecord
from feddistill.federation import aggregate
from feddistill.models import ArchSpec, InitDistribution, cross_entropy, forward, init_params
from feddistill.seeds import make_rng
from feddistill.tensor import ParamSet, Tensor, _op, grad, mul, neg


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


def per_client_round(engine, params: ParamSet, sizes: dict, pass_set, lr: float,
                     direction: float, name: str) -> ParamSet:
    """`UnlearnEngine._round` as a per-client loop: each client's pass on its
    own, minibatch by minibatch, through the interpreter and `sgd_step`, then
    aggregation weighted by set size in client order.  The stacked rounds
    must equal it bit for bit."""
    locals_ = []
    for cid in sizes:
        xs, ys = pass_set(cid)
        local = params.clone()
        for start in range(0, xs.shape[0], engine.pass_batch_size):
            stop = start + engine.pass_batch_size
            batch = Tensor(np.ascontiguousarray(xs[start:stop]))
            loss = cross_entropy(forward(local, engine.spec, batch), ys[start:stop])
            loss.check_finite(f"{name} client {cid}")
            sgd_step(local, grad(loss, local), lr, direction=direction)
        locals_.append(local)
    total = sum(sizes.values())
    return aggregate(locals_, [n / total for n in sizes.values()])


def per_class_accuracy(record: StageRecord) -> list[float]:
    return [c / t if t else float("nan")
            for c, t in zip(record.per_class_correct, record.per_class_total)]


def sample_shape(data: LabeledDataset) -> tuple[int, ...]:
    return tuple(data.samples.shape[1:])


def total_size(params: ParamSet) -> int:
    return sum(t.size for t in params.tensors())


def to_vector(params: ParamSet) -> np.ndarray:
    """Every entry's array, flattened and concatenated in order."""
    return np.concatenate([a.reshape(-1) for a in params.arrays()])


def layout(params: ParamSet) -> list[tuple[str, str]]:
    """The (name, role) of every entry, in order."""
    return [(name, role) for name, _, role in params]


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


def mia_threshold_reference(mem_fit: np.ndarray, non_fit: np.ndarray) -> tuple[float, float]:
    """The threshold scan `evaluate._fit_threshold` must equal bit for bit:
    every candidate scored by its own pass over both pools."""
    def balanced(t):
        return 0.5 * (float((mem_fit <= t).mean()) + float((non_fit > t).mean()))

    pooled = np.sort(np.concatenate([mem_fit, non_fit]))
    mids = 0.5 * (pooled[1:] + pooled[:-1])
    candidates = np.concatenate([[pooled[0] - 1e-9], mids, [pooled[-1] + 1e-9]])
    scores = np.array([balanced(t) for t in candidates])
    best = scores.max()
    tied = candidates[scores == best]
    median = float(np.median(pooled))
    return float(tied[np.argmin(np.abs(tied - median))]), float(best)


# ---- ops that only the tests use, written with public ops ---------------------


def take_slice(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = tuple(slice(start, stop) if i == axis else slice(None) for i in range(a.data.ndim))
    full = a.data.shape

    def vjp(g):
        return (pad_slice(g, full, axis, start),)

    return _op(lambda x: x[idx].copy(), (a,), vjp)


def pad_slice(a: Tensor, full_shape, axis: int, start: int) -> Tensor:
    full_shape = tuple(full_shape)
    stop = start + a.data.shape[axis]
    idx = tuple(slice(start, stop) if i == axis else slice(None) for i in range(len(full_shape)))

    def kernel(arr):
        buf = np.zeros(full_shape, dtype=arr.dtype)
        buf[idx] = arr
        return buf

    def vjp(g):
        return (take_slice(g, axis, start, stop),)

    return _op(kernel, (a,), vjp)


def sin(a: Tensor) -> Tensor:
    return _op(np.sin, (a,), lambda g: (mul(g, cos(a)),))


def cos(a: Tensor) -> Tensor:
    return _op(np.cos, (a,), lambda g: (neg(mul(g, sin(a))),))
