"""Network architectures and loss: a configurable conv net and a small MLP.

The conv net is a stack of identical blocks (3x3 conv, instance norm, ReLU,
2x2 average pooling) followed by one linear classifier.  The MLP flattens its
input and applies ReLU between linear layers.  Both are pure functions of
(params, batch) so they can be differentiated w.r.t. either side.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ShapeError
from .seeds import make_rng
from .tensor import (
    ParamSet,
    Tensor,
    add,
    asum,
    constant,
    expand,
    im2col,
    log,
    matmul,
    mean,
    mul,
    no_grad,
    relu,
    reshape,
    sqrt,
    tape_call,
    transpose,
    window_sum,
)

from .tensor import exp as texp

NORM_EPS = 1e-5
EVAL_CHUNK_BYTES = 1 << 20      # cap on one evaluation chunk's largest forward array


@dataclass(frozen=True)
class ArchSpec:
    kind: str                                  # "convnet" | "mlp"
    input_shape: tuple[int, int, int]          # (C, H, W)
    class_count: int
    blocks: int = 3                            # conv depth D
    filters: int = 128                         # conv width W
    norm: str = "instance"                     # "instance" | "none"
    pool: int = 2                              # avg-pool kernel == stride
    hidden: tuple[int, ...] = (64,)            # mlp hidden sizes
    # recorded tapes of this run's fixed-shape calls (`tensor.tape_call`)
    tapes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        object.__setattr__(self, "hidden", tuple(int(v) for v in self.hidden))

    def problems(self) -> list[str]:
        errs = []
        if self.kind not in ("convnet", "mlp"):
            errs.append(f"arch.kind: unknown kind {self.kind!r}")
        shape_ok = len(self.input_shape) == 3 and min(self.input_shape) >= 1
        if not shape_ok:
            errs.append(f"arch.input_shape: expected positive (C,H,W), got {self.input_shape}")
        if self.class_count < 2:
            errs.append("arch.class_count: need at least 2 classes")
        if self.kind == "convnet":
            if self.blocks < 1:
                errs.append("arch.blocks: must be >= 1")
            if self.filters < 1:
                errs.append("arch.filters: must be >= 1")
            if self.norm not in ("instance", "none"):
                errs.append(f"arch.norm: unknown norm {self.norm!r}")
            if self.pool < 1:
                errs.append(f"arch.pool: must be >= 1, got {self.pool}")
            elif shape_ok and self.pool > 1:
                # the most blocks whose pooling divides the input evenly
                _, h, w = self.input_shape
                g, fit = math.gcd(h, w), 0
                while fit < self.blocks and g % self.pool == 0:
                    g, fit = g // self.pool, fit + 1
                if fit < self.blocks:
                    errs.append(
                        f"arch: {h}x{w} input not divisible by pool^blocks="
                        f"{self.pool}^{self.blocks}; reduce blocks (e.g. blocks={fit})")
        if self.kind == "mlp" and any(h < 1 for h in self.hidden):
            errs.append("arch.hidden: sizes must be positive")
        return errs

    def validate(self) -> "ArchSpec":
        errs = self.problems()
        if errs:
            raise ShapeError("; ".join(errs))
        return self

    def feature_hw(self) -> tuple[int, int]:
        _, h, w = self.input_shape
        factor = self.pool ** self.blocks
        return h // factor, w // factor

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "input_shape": list(self.input_shape),
            "class_count": self.class_count,
            "blocks": self.blocks,
            "filters": self.filters,
            "norm": self.norm,
            "pool": self.pool,
            "hidden": list(self.hidden),
        }

    def digest(self) -> bytes:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).digest()


@dataclass(frozen=True)
class InitDistribution:
    """Kaiming-uniform weights, zero biases, ones/zeros for norm affine."""
    seed: int
    scheme: str = "kaiming-uniform"


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_params(spec: ArchSpec, dist: InitDistribution, dtype=np.float32) -> ParamSet:
    """Deterministic parameter set for the architecture; same seed, same bits."""
    spec.validate()
    if dist.scheme != "kaiming-uniform":
        raise ShapeError(f"unknown init scheme {dist.scheme!r}")
    rng = make_rng(dist.seed, "init", spec.kind)
    dtype = np.dtype(dtype)
    entries: list[tuple[str, Tensor, str]] = []
    c_in, h, w = spec.input_shape
    if spec.kind == "convnet":
        ch = c_in
        for d in range(spec.blocks):
            wshape = (spec.filters, ch, 3, 3)
            entries.append((f"block{d}.conv.weight",
                            Tensor(_kaiming_uniform(rng, wshape, ch * 9, dtype), requires_grad=True),
                            "conv"))
            entries.append((f"block{d}.conv.bias",
                            Tensor(np.zeros(spec.filters, dtype=dtype), requires_grad=True),
                            "conv"))
            if spec.norm == "instance":
                entries.append((f"block{d}.norm.gamma",
                                Tensor(np.ones(spec.filters, dtype=dtype), requires_grad=True),
                                "norm"))
                entries.append((f"block{d}.norm.beta",
                                Tensor(np.zeros(spec.filters, dtype=dtype), requires_grad=True),
                                "norm"))
            ch = spec.filters
        fh, fw = spec.feature_hw()
        feat = spec.filters * fh * fw
        entries.append(("head.weight",
                        Tensor(_kaiming_uniform(rng, (feat, spec.class_count), feat, dtype),
                               requires_grad=True),
                        "linear"))
        entries.append(("head.bias",
                        Tensor(np.zeros(spec.class_count, dtype=dtype), requires_grad=True),
                        "linear"))
    else:
        sizes = [c_in * h * w, *spec.hidden, spec.class_count]
        for i in range(len(sizes) - 1):
            name = f"layer{i}" if i < len(sizes) - 2 else "head"
            entries.append((f"{name}.weight",
                            Tensor(_kaiming_uniform(rng, (sizes[i], sizes[i + 1]), sizes[i], dtype),
                                   requires_grad=True),
                            "linear"))
            entries.append((f"{name}.bias",
                            Tensor(np.zeros(sizes[i + 1], dtype=dtype), requires_grad=True),
                            "linear"))
    return ParamSet(entries)


def _bias_add(x: Tensor, b: Tensor, axis: int = 1) -> Tensor:
    shape1 = tuple(b.shape[0] if i == axis else 1 for i in range(x.ndim))
    return add(x, expand(reshape(b, shape1), x.shape))


def _channel_scale(x: Tensor, g: Tensor) -> Tensor:
    shape1 = (1, g.shape[0]) + (1,) * (x.ndim - 2)
    return mul(x, expand(reshape(g, shape1), x.shape))


def _instance_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    # normalize each (sample, channel) plane to mean 0 / var 1, then affine
    mu = mean(x, axes=(2, 3), keepdims=True)
    centered = x - expand(mu, x.shape)
    var = mean(mul(centered, centered), axes=(2, 3), keepdims=True)
    xhat = centered / expand(sqrt(var + NORM_EPS), x.shape)
    return _bias_add(_channel_scale(xhat, gamma), beta, axis=1)


def _avg_pool(x: Tensor, k: int) -> Tensor:
    b, c, h, w = x.shape
    return window_sum(reshape(x, (b, c, h // k, k, w // k, k))) * (1.0 / (k * k))


def _conv3x3(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    b, _, h, w = x.shape
    f = weight.shape[0]
    cols = im2col(x, 3, 1, 1)                                   # [B*H*W, C*9]
    wmat = transpose(reshape(weight, (f, weight.size // f)))    # [C*9, F]
    out = _bias_add(matmul(cols, wmat), bias, axis=1)           # [B*H*W, F]
    return transpose(reshape(out, (b, h, w, f)), (0, 3, 1, 2))


def forward(params: ParamSet, spec: ArchSpec, batch: Tensor) -> Tensor:
    """Logits for a [B,C,H,W] batch; differentiable w.r.t. params and batch."""
    expected = spec.input_shape
    if batch.ndim != 4 or batch.shape[1:] != expected:
        raise ShapeError(f"batch shape {batch.shape} does not match input {expected}")
    if spec.kind == "convnet":
        h = batch
        for d in range(spec.blocks):
            h = _conv3x3(h, params.get(f"block{d}.conv.weight"), params.get(f"block{d}.conv.bias"))
            if spec.norm == "instance":
                h = _instance_norm(h, params.get(f"block{d}.norm.gamma"),
                                   params.get(f"block{d}.norm.beta"))
            h = relu(h)
            h = _avg_pool(h, spec.pool)
        flat = reshape(h, (batch.shape[0], h.size // batch.shape[0]))
    else:
        flat = reshape(batch, (batch.shape[0], batch.size // batch.shape[0]))
        n_hidden = len(spec.hidden)
        for i in range(n_hidden):
            flat = relu(_bias_add(matmul(flat, params.get(f"layer{i}.weight")),
                                  params.get(f"layer{i}.bias")))
    logits = _bias_add(matmul(flat, params.get("head.weight")), params.get("head.bias"))
    return logits


def log_softmax(logits: Tensor) -> Tensor:
    # subtracting the (constant) row max only stabilizes; gradients unchanged
    row_max = constant(lambda x: x.max(axis=-1, keepdims=True), logits)
    z = logits - expand(row_max, logits.shape)
    lse = log(asum(texp(z), axes=(1,), keepdims=True))
    return z - expand(lse, z.shape)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the true classes."""
    labels = np.asarray(labels)
    check_labels(labels, logits.shape)
    eye = np.eye(logits.shape[1], dtype=logits.data.dtype)
    onehot = constant(lambda y: eye[y], labels)
    picked = asum(mul(log_softmax(logits), onehot))
    return picked * (-1.0 / logits.shape[0])


def check_labels(labels: np.ndarray, logits_shape: tuple[int, int]) -> None:
    """ShapeError unless `labels` holds one in-range class per logits row."""
    rows, n_classes = logits_shape
    if labels.ndim != 1 or labels.shape[0] != rows:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits_shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise ShapeError(f"labels must lie in [0, {n_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")


def _eval_rows(spec: ArchSpec, itemsize: int) -> int:
    """Rows per evaluation chunk: the most for which the largest per-sample
    forward array (an activation or an im2col patch matrix) stays within
    EVAL_CHUNK_BYTES, and at least two (see _chunk_bounds).  It also bounds
    the rows of a stacked group (`_stack_groups`)."""
    c, h, w = spec.input_shape
    if spec.kind == "convnet":
        widest = 0
        for _ in range(spec.blocks):
            widest = max(widest, h * w * max(9 * c, spec.filters))
            c, h, w = spec.filters, h // spec.pool, w // spec.pool
    else:
        widest = max(c * h * w, *spec.hidden, spec.class_count)
    return max(2, EVAL_CHUNK_BYTES // (widest * itemsize))


def _stack_groups(spec: ArchSpec, shapes: Mapping, batch: int | None = None) -> list[list]:
    """The keys of `shapes` (key -> (array shape, dtype)), in order, grouped
    by shape and dtype for stacked replay: a group whose calls take b rows
    each (`batch` rows at most, the whole array by default) holds at most
    `_eval_rows // b` members, and at least one."""
    by_shape: dict[tuple, list] = {}
    for key, shape in shapes.items():
        by_shape.setdefault(shape, []).append(key)
    groups = []
    for (shape, dtype), keys in by_shape.items():
        rows = shape[0] if batch is None else min(batch, shape[0])
        size = max(1, _eval_rows(spec, dtype.itemsize) // rows)
        groups += [keys[i:i + size] for i in range(0, len(keys), size)]
    return groups


def _chunk_bounds(n: int, rows: int) -> list[tuple[int, int]]:
    # A one-row matrix product rounds differently from the same row inside a
    # larger one, so no chunk has one row: a one-row remainder joins the chunk
    # before it.
    bounds = [(start, min(start + rows, n)) for start in range(0, n, rows)]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] == 1:
        bounds[-2:] = [(bounds[-2][0], n)]
    return bounds


def _chunked_logits(params: ParamSet, spec: ArchSpec, samples: np.ndarray) -> np.ndarray:
    """Logits of every sample, in chunks of `_eval_rows` rows, without
    building graphs: one forward tape per chunk shape, with the parameters
    and the chunk as its inputs."""
    dtype = params.tensors()[0].dtype
    out = np.empty((samples.shape[0], spec.class_count), dtype=dtype)
    data = [t.data for t in params.tensors()]
    with no_grad():
        for start, stop in _chunk_bounds(samples.shape[0], _eval_rows(spec, dtype.itemsize)):
            x = np.ascontiguousarray(samples[start:stop], dtype=dtype)
            out[start:stop] = tape_call(
                spec.tapes, "forward", data + [x],
                lambda arrays: [forward(params, spec, Tensor(arrays[-1]))])[0]
    return out


def predict(params: ParamSet, spec: ArchSpec, samples: np.ndarray) -> np.ndarray:
    """Argmax class per sample, evaluated without building graphs."""
    return _chunked_logits(params, spec, samples).argmax(axis=1)
