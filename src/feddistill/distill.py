"""Gradient-matching dataset distillation.

A synthetic per-class dataset is optimized so that the model gradient it
induces stays close (in a layerwise cosine distance) to the gradient induced
by real batches of the same class, along the trajectory of a training run.
Matching is class-wise: each class's synthetic bucket is updated against a
real batch of that class only.

The synthetic update differentiates the gradient distance through the inner
gradient computation with respect to the synthetic pixels, so the model
gradient on synthetic data must be taken with graph retention.

The first-order loss gradient and the match update run the same fixed-shape
graph thousands of times.  Each is a taped call (`tensor.tape_call`): its
kernels are recorded once per key into a `Tape` kept on the `ArchSpec`
(`spec.tapes`) and replayed afterwards.  The match update replays once per
group of classes that share a bucket shape, stacked on a leading group axis.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import ClassBatchSampler, LabeledDataset, class_index
from .errors import ShapeError
from .models import (
    ArchSpec,
    InitDistribution,
    _stack_groups,
    check_labels,
    cross_entropy,
    forward,
    init_params,
)
from .seeds import derive_seed, make_rng
from .tensor import (
    GradSet,
    ParamSet,
    Tensor,
    _node,
    _recorder,
    asum,
    by_member,
    constant,
    div,
    grad,
    hypergrad,
    mul,
    reshape,
    sqrt,
    tape_call,
    transpose,
)

log = logging.getLogger(__name__)

ZERO_ROW_EPS = 1e-10


@dataclass
class DistillConfig:
    outer_steps: int = 200          # global rounds (integrated) / restarts (standalone)
    inner_steps: int = 50           # local steps per round
    syn_steps: int = 1              # gradient-descent steps on pixels per match
    syn_lr: float = 0.1
    model_lr: float = 0.01
    real_batch_per_class: int = 256
    seed: int = 0


class SyntheticDataset:
    """Per-class trainable synthetic samples plus their matching counters.

    Pixels are left unclamped while being optimized; clamping to [0, 1]
    happens only on export.
    """

    def __init__(self, buckets: dict[int, Tensor]):
        self.buckets = dict(sorted(buckets.items()))
        self.match_skips = 0
        self.real_grad_steps = 0
        self.real_samples_touched = 0
        for c, t in self.buckets.items():
            if t.ndim != 4 or t.shape[0] < 1:
                raise ShapeError(f"synthetic bucket for class {c} must be [m,C,H,W], got {t.shape}")
            if not t.requires_grad:
                raise ShapeError(f"synthetic bucket for class {c} must require grad")

    def classes(self) -> list[int]:
        return list(self.buckets)

    def count(self, classes=None) -> int:
        if classes is None:
            return sum(t.shape[0] for t in self.buckets.values())
        return sum(self.buckets[c].shape[0] for c in classes if c in self.buckets)

    def union(self, classes=None) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated pixels and labels for the given classes (all if None)."""
        keys = [c for c in self.buckets if classes is None or c in set(classes)]
        if not keys:
            raise ShapeError("no synthetic buckets for the requested classes")
        xs = np.concatenate([self.buckets[c].data for c in keys])
        ys = np.concatenate([np.full(self.buckets[c].shape[0], c, dtype=np.int64) for c in keys])
        return xs, ys

    def clone(self) -> "SyntheticDataset":
        out = SyntheticDataset(
            {c: Tensor(t.data.copy(), requires_grad=True) for c, t in self.buckets.items()})
        out.match_skips = self.match_skips
        out.real_grad_steps = self.real_grad_steps
        out.real_samples_touched = self.real_samples_touched
        return out

    def export(self, class_count: int, source: str = "distilled") -> LabeledDataset:
        xs, ys = [], []
        for c, t in self.buckets.items():
            xs.append(np.clip(t.data, 0.0, 1.0).astype(np.float32))
            ys.append(np.full(t.shape[0], c, dtype=np.int64))
        return LabeledDataset(np.concatenate(xs), np.concatenate(ys), class_count, source=source)


def synthetic_size(n_c: int, s: float) -> int:
    """Per-class synthetic count: floor(n_c / s), rounded up to 1 when the
    class is present at all."""
    if n_c <= 0:
        return 0
    return max(1, int(math.floor(n_c / s)))


def init_synthetic(client_data: LabeledDataset, s: float, seed: int,
                   dtype=np.float32) -> SyntheticDataset:
    """Initialize synthetic buckets from randomly selected real samples."""
    if s <= 0:
        raise ValueError("scale factor s must be positive")
    if len(client_data) == 0:
        raise ShapeError("cannot distill an empty client dataset")
    buckets: dict[int, Tensor] = {}
    for c, idx in enumerate(class_index(client_data)):
        m_c = synthetic_size(len(idx), s)
        if m_c == 0:
            continue
        rng = make_rng(seed, "syn-init", c)
        chosen = rng.choice(idx, size=m_c, replace=m_c > len(idx))
        chosen.sort()
        buckets[c] = Tensor(client_data.samples[chosen].astype(np.dtype(dtype)),
                            requires_grad=True, dtype=dtype)
    return SyntheticDataset(buckets)


# ---- gradient distance ---------------------------------------------------------


def _as_rows(t: Tensor, role: str) -> Tensor:
    # one row per output unit; 1-D parameters (biases, norm affine) are a
    # single row, linear weights are stored input-major so transpose first
    if t.ndim == 1:
        return reshape(t, (1, t.shape[0]))
    if role == "linear" and t.ndim == 2:
        return transpose(t)
    if role == "conv" and t.ndim == 4:
        return reshape(t, (t.shape[0], t.size // t.shape[0]))
    raise ShapeError(f"unsupported gradient tensor (role={role}, shape={t.shape})")


def grad_distance(ga: GradSet, gb: GradSet) -> Tensor:
    """Layerwise sum over output units of (1 - cosine) between gradient rows.

    Rows whose norm falls below 1e-10 on either side are skipped (contribute
    zero); near convergence whole layers can vanish and the cosine would be
    undefined there.  Differentiable w.r.t. whichever side carries a graph.
    """
    if ga.names != gb.names:
        raise ShapeError("gradient sets come from different architectures")
    total: Tensor | None = None
    tiny = 1e-20
    for (_, ta, role), (_, tb, _) in zip(ga, gb):
        if ta.shape != tb.shape:
            raise ShapeError(f"gradient shapes differ: {ta.shape} vs {tb.shape}")
        ra, rb = _as_rows(ta, role), _as_rows(tb, role)
        dots = asum(mul(ra, rb), axes=(1,))
        na2 = asum(mul(ra, ra), axes=(1,))
        nb2 = asum(mul(rb, rb), axes=(1,))
        # tiny keeps masked rows' derivatives finite; the mask zeroes them out
        na = sqrt(na2 + tiny)
        nb = sqrt(nb2 + tiny)
        mask = constant(_both_rows_nonzero, na2, nb2)
        row_terms = mul(mask, 1.0 - div(dots, mul(na, nb)))
        layer = asum(row_terms)
        total = layer if total is None else total + layer
    if total is None:
        raise ShapeError("empty gradient sets")
    return total


def _both_rows_nonzero(na2: np.ndarray, nb2: np.ndarray) -> np.ndarray:
    return ((np.sqrt(na2) >= ZERO_ROW_EPS) & (np.sqrt(nb2) >= ZERO_ROW_EPS)).astype(na2.dtype)


def _detached(data: np.ndarray) -> Tensor:
    out = Tensor(data)
    out._detached_src = True
    return out


def loss_gradient(params: ParamSet, spec: ArchSpec, batch: Tensor, labels: np.ndarray,
                  context: str, create_graph: bool = False) -> GradSet:
    """Cross-entropy gradient w.r.t. params; a non-finite loss raises
    NumericError naming `context`.  The first-order gradient is a taped call
    (`_taped_loss_gradient`)."""
    labels = np.asarray(labels)
    if create_graph or _recorder() is not None:
        return _loss_grads(params, spec, batch, labels, context, create_graph)
    grads = _taped_loss_gradient(params, spec, [t.data for t in params.tensors()]
                                 + [batch.data, labels], context)
    return GradSet([_detached(g) for g in grads], params.names, params.roles)


def _loss_grads(params: ParamSet, spec: ArchSpec, batch: Tensor, labels: np.ndarray,
                context: str, create_graph: bool) -> GradSet:
    loss = cross_entropy(forward(params, spec, batch), labels)
    loss.check_finite(context)
    return grad(loss, params, create_graph=create_graph)


def _taped_loss_gradient(params: ParamSet, spec: ArchSpec, inputs: list, context: str,
                         k: int = 1, shared: int = 0) -> list[np.ndarray]:
    """The first-order loss gradient through `tape_call` over `inputs`: the
    parameter arrays (of `params`' entries), a batch and its labels, for a
    group of `k` members as `tape_call` stacks them."""
    labels, n = inputs[-1], len(params)
    check_labels(labels.reshape(-1), (labels.size, spec.class_count))

    def record(arrays):
        return _loss_grads(params.with_data(arrays[:n]), spec, Tensor(arrays[n]), arrays[n + 1],
                           context, False).grads

    return tape_call(spec.tapes, "loss_gradient", inputs, record, context, k, shared)


def class_gradient(params: ParamSet, spec: ArchSpec, batch: Tensor, label: int,
                   create_graph: bool = False) -> GradSet:
    """Cross-entropy gradient w.r.t. params over a single-class batch."""
    labels = np.full(batch.shape[0], label, dtype=np.int64)
    return loss_gradient(params, spec, batch, labels, f"class {label} gradient", create_graph)


def sgd_step(params: ParamSet, grads: GradSet, lr: float, direction: float = -1.0) -> None:
    """In-place parameter update: theta <- theta + direction*lr*grad."""
    grads.check_congruent(params)
    for p, g in zip(params.tensors(), grads.grads):
        p.data = p.data + p.data.dtype.type(direction * lr) * g.data


def match_step(params: ParamSet, spec: ArchSpec,
               real_batch_by_class: Mapping[int, Tensor],
               syn: SyntheticDataset, cfg: DistillConfig,
               real_grads: Mapping[int, GradSet] | None = None) -> SyntheticDataset:
    """One class-wise matching update of the synthetic pixels.

    For every class with a real batch: take the (possibly pre-computed) real
    gradient as a constant target, recompute the synthetic-bucket gradient
    with graph retention, and descend `cfg.syn_steps` times with `cfg.syn_lr`
    on the distance, via the hypergradient.  Classes whose buckets share a
    shape are matched as one group (`_stack_groups`); after a non-finite
    value the update reruns class by class (`by_member`), so the error names
    the first failing class over all syn steps.  Model parameters are never
    touched.
    """
    targets: dict[int, GradSet] = {}
    for c in sorted(real_batch_by_class):
        if c not in syn.buckets:
            syn.match_skips += 1
            log.warning("no synthetic bucket for class %d; matching skipped", c)
        elif real_grads is not None and c in real_grads:
            targets[c] = real_grads[c]
        else:
            targets[c] = class_gradient(params, spec, real_batch_by_class[c], c)

    def update(classes: list[int]) -> dict[int, Tensor]:
        buckets = {c: syn.buckets[c] for c in classes}
        for _ in range(cfg.syn_steps):
            pixel_grads: dict[int, Tensor] = {}
            for group in _stack_groups(spec, {c: (b.shape, b.dtype) for c, b in buckets.items()}):
                pixel_grads.update(zip(group, _match_gradient(params, spec, targets, buckets,
                                                              group)))
            buckets = {c: Tensor(b.data - b.data.dtype.type(cfg.syn_lr) * pixel_grads[c].data,
                                 requires_grad=True) for c, b in buckets.items()}
        return buckets

    syn.buckets.update(by_member(update, list(targets)))
    return syn


def _match_gradient(params: ParamSet, spec: ArchSpec, g_reals: Mapping[int, GradSet],
                    buckets: Mapping[int, Tensor], classes: list[int]) -> list[Tensor]:
    """For each of `classes`, whose buckets share a shape: hypergrad of
    grad_distance(g_real, class gradient of the bucket) w.r.t. the bucket.

    One taped call for the group, with the labels as an input, so one tape
    serves every class of a bucket shape; the buckets, labels and real
    gradients are stacked on a leading group axis.  When the call records,
    the first class gets the interpreter's hypergrad; every other class's
    `hypergrad` receives a one-node graph (distance <- bucket) whose VJP
    returns the class's slice of the replay."""
    n = len(params)
    members = [[g.data for g in g_reals[c].grads]
               + [buckets[c].data, np.full(buckets[c].shape[0], c, dtype=np.int64)]
               for c in classes]
    stacked = [np.stack(arrays) for arrays in zip(*members)] if len(classes) > 1 else members[0]
    check_labels(stacked[-1].reshape(-1), (stacked[-1].size, spec.class_count))
    recorded: list[Tensor] = []

    def record(arrays):
        bucket = Tensor(arrays[-2], requires_grad=True)
        g_syn = loss_gradient(params, spec, bucket, arrays[-1], f"class {classes[0]} gradient",
                              create_graph=True)
        distance = grad_distance(GradSet([Tensor(a) for a in arrays[n:2 * n]], params.names,
                                         params.roles), g_syn)
        recorded.append(hypergrad(distance, [bucket])[0])
        return [distance, recorded[0]]

    dist, pixel = tape_call(spec.tapes, "match", [t.data for t in params.tensors()] + stacked,
                            record, f"class {classes[0]} gradient", len(classes), n)
    if len(classes) == 1:
        dist, pixel = dist[None], pixel[None]
    out = recorded
    for i in range(len(recorded), len(classes)):
        bucket = buckets[classes[i]]
        node = _node(dist[i, ...], (bucket,), lambda g, p=pixel[i]: (Tensor(p),))
        out.append(hypergrad(node, [bucket])[0])
    return out


# ---- standalone distillation and fine-tuning ------------------------------------


def _distill_loops(syn: SyntheticDataset, data: LabeledDataset, spec: ArchSpec,
                   cfg: DistillConfig, outer_steps: int, seed_tag: str,
                   dtype) -> SyntheticDataset:
    sampler = ClassBatchSampler(data, make_rng(cfg.seed, seed_tag, "batches"))
    for k in range(outer_steps):
        params = init_params(spec, InitDistribution(seed=derive_seed(cfg.seed, seed_tag, k)),
                             dtype=dtype)
        for _ in range(cfg.inner_steps):
            batches = {}
            for c in sampler.classes():
                idx = sampler.next_batch(c, cfg.real_batch_per_class)
                batches[c] = Tensor(data.samples[idx], dtype=dtype)
                syn.real_samples_touched += len(idx)
            match_step(params, spec, batches, syn, cfg)
            syn.real_grad_steps += len(batches)
            xs, ys = syn.union()
            sgd_step(params, loss_gradient(params, spec, Tensor(xs), ys,
                                           f"synthetic loss during {seed_tag} round {k}"),
                     cfg.model_lr)
    return syn


def distill_standalone(data: LabeledDataset, spec: ArchSpec, cfg: DistillConfig,
                       s: float = 100.0, syn: SyntheticDataset | None = None,
                       dtype=np.float32) -> SyntheticDataset:
    """Full distillation from randomly re-initialized models.

    Each of `cfg.outer_steps` restarts draws a fresh model and walks it
    `cfg.inner_steps` steps on the synthetic loss while matching gradients
    class-wise along the way.  Deterministic per cfg.seed.
    """
    if syn is None:
        syn = init_synthetic(data, s, derive_seed(cfg.seed, "standalone-syn"), dtype=dtype)
    return _distill_loops(syn, data, spec, cfg, cfg.outer_steps, "standalone", dtype)


def fine_tune(syn: SyntheticDataset, data: LabeledDataset, spec: ArchSpec, steps: int,
              cfg: DistillConfig, dtype=np.float32) -> SyntheticDataset:
    """Extra standalone-style refinement passes over an existing synthetic set.

    `steps` == 0 is the identity.  Each pass costs inner_steps * (classes held)
    real-data gradient computations, visible in `syn.real_grad_steps`.
    """
    if steps < 0:
        raise ValueError("fine-tune steps must be >= 0")
    if steps == 0:
        return syn
    return _distill_loops(syn, data, spec, cfg, steps, "finetune", dtype)
