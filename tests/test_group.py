"""Grouped replay: a match tape recorded for one class replays over the
buckets, labels and real gradients of several classes stacked on a leading
group axis, and a loss-gradient tape recorded for one client replays over the
minibatches (and parameters) of several clients; each member's slice equals
its own replay bit for bit.  Expand steps whose readers broadcast by
themselves leave the tapes."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddistill.distill import (
    DistillConfig,
    SyntheticDataset,
    _match_gradient,
    class_gradient,
    grad_distance,
    loss_gradient,
    match_step,
)
from feddistill.errors import NumericError
from feddistill.models import ArchSpec, InitDistribution, init_params
from feddistill.tensor import (
    Recorder,
    Tensor,
    _broadcast,
    asum,
    expand,
    hypergrad,
    matmul,
    mul,
    reshape,
)

# the architectures of the benchmark workloads and the digest configs
ARCHS = {
    "mlp": dict(kind="mlp", input_shape=(1, 4, 4), class_count=3, hidden=(16,)),
    "conv16": dict(kind="convnet", input_shape=(1, 16, 16), class_count=10, blocks=2,
                   filters=16),
    "conv8x8": dict(kind="convnet", input_shape=(1, 8, 8), class_count=4, blocks=3, filters=4),
}
# (architecture, bucket rows): fl_mlp and blobs_small hold one-row buckets,
# fl_conv and the 3-block digest convnet two-row ones
BUCKETS = [("mlp", 1), ("mlp", 3), ("conv16", 1), ("conv16", 2), ("conv8x8", 2)]
GROUP_AXIS_KERNELS = {
    "reshape.<locals>.<lambda>", "transpose.<locals>.kernel", "asum.<locals>.<lambda>",
    "_broadcast", "_window_sum", "im2col.<locals>.kernel", "col2im.<locals>.kernel",
    "log_softmax.<locals>.<lambda>", "_matmul",
}
_CACHED: dict = {}


def _class_inputs(spec, params, rows, k, seed):
    """Real gradients, buckets and labels of `k` classes (labels cycle)."""
    rng = np.random.default_rng(seed)
    dtype = params.tensors()[0].dtype
    g_reals, buckets, labels = [], [], []
    for i in range(k):
        label = i % spec.class_count
        real = Tensor(rng.normal(size=(4,) + spec.input_shape), dtype=dtype)
        g_reals.append(class_gradient(params, spec, real, label))
        buckets.append(Tensor(rng.normal(size=(rows,) + spec.input_shape), dtype=dtype,
                              requires_grad=True))
        labels.append(label)
    return g_reals, buckets, labels


def _match_tape(arch, rows, dtype):
    """A fresh spec, its parameters, and the match tape recorded for one
    class with `rows`-row buckets."""
    key = (arch, rows, np.dtype(dtype).name)
    if key not in _CACHED:
        spec = ArchSpec(**ARCHS[arch])
        params = init_params(spec, InitDistribution(seed=3), dtype=dtype)
        g_reals, buckets, labels = _class_inputs(spec, params, rows, 1, seed=0)
        _match_gradient(params, spec, dict(zip(labels, g_reals)), dict(zip(labels, buckets)),
                        labels)
        (tape,) = [t for k, t in spec.tapes.items() if k[0] == "match"]
        _CACHED[key] = spec, params, tape
    return _CACHED[key]


def _is_expand(kernel) -> bool:
    return getattr(kernel, "func", None) is _broadcast


def _kernel_name(kernel) -> str:
    return "_broadcast" if _is_expand(kernel) else kernel.__qualname__


def _lockstep(arch, rows, dtype, k, seed):
    """Replay the match tape step by step for each of `k` classes alone and
    for the `k` classes stacked, and return the steps whose stacked output
    differs from the per-class outputs, and the kernels that saw a group axis.
    A stacked slot holds one slice per class; a shared one equals every
    class's value."""
    spec, params, tape = _match_tape(arch, rows, dtype)
    g_reals, buckets, labels = _class_inputs(spec, params, rows, k, seed)
    shared = params.arrays()
    per_class = [shared + gr.arrays() + [b.data, np.full(rows, y)]
                 for gr, b, y in zip(g_reals, buckets, labels)]
    stacked_inputs = shared + [np.stack(a) for a in list(zip(*per_class))[len(shared):]]
    runs = []
    for inputs in per_class + [stacked_inputs]:
        slots = list(tape._template)
        slots[1:1 + len(inputs)] = inputs
        runs.append(slots)
    alone, grouped = runs[:-1], runs[-1]
    mismatches, seen = [], set()
    for kernel, ins, out, _ in tape._steps:
        if out == 0:                                        # check_finite
            continue
        if any(grouped[i].ndim > alone[0][i].ndim for i in ins):
            seen.add(_kernel_name(kernel))
        for slots in runs:
            slots[out] = kernel(*[slots[i] for i in ins])
        value = grouped[out]
        stacked = value.ndim > alone[0][out].ndim
        for c, slots in enumerate(alone):
            got = value[c] if stacked else value
            if got.shape != slots[out].shape or got.tobytes() != slots[out].tobytes():
                mismatches.append((_kernel_name(kernel), [slots[i].shape for i in ins]))
                break
    return mismatches, seen


@pytest.mark.parametrize("arch, rows", BUCKETS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(k=st.sampled_from([1, 2, 3, 10]), seed=st.integers(0, 2 ** 16))
def test_every_match_kernel_is_group_invariant(arch, rows, dtype, k, seed):
    """Every step of the match tape, given its inputs stacked on a leading
    group axis, equals the per-class steps bit for bit: the reshapes,
    transposes, sums, expands, window sums, patch kernels, the log-softmax
    row max and the matrix products, at the shapes of every workload and
    digest architecture, one-row buckets included.  No shape is excluded."""
    mismatches, _ = _lockstep(arch, rows, dtype, k, seed)
    assert mismatches == []


def test_the_group_property_reaches_every_group_axis_kernel():
    _, mlp = _lockstep("mlp", 1, np.float32, 2, seed=1)
    _, conv = _lockstep("conv8x8", 2, np.float32, 2, seed=1)
    assert mlp | conv >= GROUP_AXIS_KERNELS
    assert "_broadcast" not in mlp                     # every MLP expand is elided


# (architecture, rows) of the loss-gradient calls the unlearning passes stack:
# the MLP's 1-row ascent and 22-row recovery minibatches (fl_mlp, blobs_small),
# and the 2- and 4-row ascent sets of fl_conv's and the digest's convnets
LOSS_SHAPES = [("mlp", 1), ("mlp", 22), ("conv16", 2), ("conv16", 4), ("conv8x8", 2),
               ("conv8x8", 4)]


def _loss_tape(arch, rows, dtype):
    """A fresh spec, its parameters, and the loss-gradient tape recorded for
    one `rows`-row minibatch."""
    key = ("loss", arch, rows, np.dtype(dtype).name)
    if key not in _CACHED:
        spec = ArchSpec(**ARCHS[arch])
        params = init_params(spec, InitDistribution(seed=3), dtype=dtype)
        rng = np.random.default_rng(rows)
        batch = Tensor(rng.normal(size=(rows,) + spec.input_shape), dtype=dtype)
        loss_gradient(params, spec, batch, rng.integers(0, spec.class_count, size=rows), "x")
        (tape,) = spec.tapes.values()
        _CACHED[key] = spec, params, tape
    return _CACHED[key]


def _steps(tape, inputs):
    """Replay `tape` one step at a time, releasing dead slots; yield each
    step's kernel and output (`check_finite` steps have none)."""
    slots = list(tape._template)
    slots[1:1 + len(inputs)] = inputs
    for kernel, ins, out, dead in tape._steps:
        value = kernel(*[slots[i] for i in ins])
        if out:
            slots[out] = value
            yield kernel, value
        for i in dead:
            slots[i] = None


def _digest(a) -> bytes:
    return hashlib.blake2b(repr((a.shape, a.dtype.str)).encode() + a.tobytes(),
                           digest_size=16).digest()


@pytest.mark.parametrize("arch, rows", LOSS_SHAPES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("per_member_params", [False, True], ids=["shared", "stacked"])
@pytest.mark.parametrize("k", [1, 2, 4, 100])
def test_every_loss_gradient_kernel_is_group_invariant(arch, rows, dtype, per_member_params, k):
    """Every step of the loss-gradient tape, given the minibatches and labels
    of `k` clients stacked on a leading group axis, and the parameters shared
    (a pass's first step) or stacked too (every later step), equals each
    client's own step bit for bit.  No shape is excluded."""
    spec, params, tape = _loss_tape(arch, rows, dtype)
    rng = np.random.default_rng(17 * k + rows)
    base = params.arrays()
    members = []
    for c in range(k):
        own = [p + p.dtype.type(0.01 * c) * rng.normal(size=p.shape).astype(p.dtype)
               for p in base] if per_member_params else base
        members.append(own + [rng.normal(size=(rows,) + spec.input_shape).astype(dtype),
                              rng.integers(0, spec.class_count, size=rows)])
    shared = 0 if per_member_params else len(base)
    grouped = base[:shared] + [np.stack(a) for a in list(zip(*members))[shared:]]
    alone = [[(value.ndim, _digest(value)) for _, value in _steps(tape, inputs)]
             for inputs in members]
    mismatches = []
    for i, (kernel, value) in enumerate(_steps(tape, grouped)):
        for c in range(k):
            ndim, want = alone[c][i]
            if (_digest(value[c]) if value.ndim == ndim + 1 else _digest(value)) != want:
                mismatches.append((i, _kernel_name(kernel), c))
                break
    assert mismatches == []


def _interpreted(params, spec, g_real, bucket, label):
    g_syn = class_gradient(params, spec, bucket, label, create_graph=True)
    return hypergrad(grad_distance(g_real, g_syn), [bucket])[0].data


@pytest.mark.parametrize("arch", ["mlp", "conv8x8"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grouped_match_step_equals_the_interpreter(arch, dtype):
    spec = ArchSpec(**dict(ARCHS[arch], class_count=4))
    params = init_params(spec, InitDistribution(seed=5), dtype=dtype)
    rng = np.random.default_rng(8)
    sizes = [1, 1, 2, 3]
    syn = SyntheticDataset({c: Tensor(rng.normal(size=(m,) + spec.input_shape), dtype=dtype,
                                      requires_grad=True) for c, m in enumerate(sizes)})
    cfg = DistillConfig(syn_lr=0.5)
    replays = []
    for _ in range(3):
        batches = {c: Tensor(rng.normal(size=(4,) + spec.input_shape), dtype=dtype)
                   for c in range(4)}
        grads = {c: class_gradient(params, spec, batches[c], c) for c in range(4)}
        expected = {c: b.data - b.data.dtype.type(0.5) * _interpreted(params, spec, grads[c], b, c)
                    for c, b in syn.buckets.items()}
        match_step(params, spec, batches, syn, cfg, real_grads=grads)
        for c in range(4):
            assert syn.buckets[c].data.tobytes() == expected[c].tobytes()
        replays.append({k[1][-2][0][0]: t.replays for k, t in spec.tapes.items()
                        if k[0] == "match"})
    # the first step records each shape's tape (class 1 then replays alone);
    # after that each bucket shape replays once per step
    assert replays == [{1: 1, 2: 0, 3: 0}, {1: 2, 2: 1, 3: 1}, {1: 3, 2: 2, 3: 2}]


@pytest.mark.parametrize("bad, message", [
    ({2}, "class 2"),                # the second class of a stacked group
    ({2, 3}, "class 2"),
    ({1, 2}, "class 1"),             # class 1's group replays after class 2's
])
def test_a_nan_in_a_group_names_the_first_failing_class(bad, message):
    spec = ArchSpec(**dict(ARCHS["mlp"], class_count=4))
    params = init_params(spec, InitDistribution(seed=5))
    rng = np.random.default_rng(2)
    sizes = [2, 1, 2, 1]              # groups by shape: classes (0, 2), then (1, 3)
    batches = {c: Tensor(rng.normal(size=(4,) + spec.input_shape), dtype=np.float32)
               for c in range(4)}
    grads = {c: class_gradient(params, spec, batches[c], c) for c in range(4)}

    def syn(nan_classes):
        buckets = {}
        for c, m in enumerate(sizes):
            data = rng.normal(size=(m,) + spec.input_shape).astype(np.float32)
            if c in nan_classes:
                data[-1, 0, 0, 0] = np.nan
            buckets[c] = Tensor(data, requires_grad=True)
        return SyntheticDataset(buckets)

    match_step(params, spec, batches, syn(()), DistillConfig(), real_grads=grads)  # records
    with pytest.raises(NumericError, match=f"^non-finite values in {message} gradient$"):
        match_step(params, spec, batches, syn(bad), DistillConfig(), real_grads=grads)


def test_the_match_fallback_names_the_first_failing_class_over_all_syn_steps():
    """Class 2 fails at syn step 0 (a NaN pixel), class 0 only at step 1: the
    step size is float32(1e39), which is inf, so the first update overflows
    every bucket it moves.  The error names class 0, the first class that
    fails on its own over both steps, as a per-class loop would; class 0's
    one-row bucket keeps it out of the group (1, 2, 3) that fails first."""
    spec = ArchSpec(**dict(ARCHS["mlp"], class_count=4))
    params = init_params(spec, InitDistribution(seed=5))
    rng = np.random.default_rng(2)
    batches = {c: Tensor(rng.normal(size=(4,) + spec.input_shape), dtype=np.float32)
               for c in range(4)}
    grads = {c: class_gradient(params, spec, batches[c], c) for c in range(4)}
    data = {c: rng.normal(size=(1 if c == 0 else 2,) + spec.input_shape).astype(np.float32)
            for c in range(4)}
    data[2][0, 0, 0, 0] = np.nan
    syn = SyntheticDataset({c: Tensor(d, requires_grad=True) for c, d in data.items()})
    with pytest.raises(NumericError, match="^non-finite values in class 0 gradient$"), \
            np.errstate(over="ignore", invalid="ignore"):
        match_step(params, spec, batches, syn, DistillConfig(syn_steps=2, syn_lr=1e39),
                   real_grads=grads)


def _tape_of(build):
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    row = Tensor(np.array([[1.0, -2.0, 0.5]]))
    with Recorder([x.data, row.data]) as rec:
        out = build(x, row)
    tape = rec.finish([out])
    kernels = [kernel for kernel, *_ in tape._steps]
    result = tape.run([x.data, row.data])[0]
    assert result.tobytes() == out.data.tobytes()
    return sum(map(_is_expand, kernels))


@pytest.mark.parametrize("build, expands", [
    (lambda x, r: mul(x, expand(r, (2, 3))), 0),
    (lambda x, r: mul(expand(r, (2, 3)), expand(r, (2, 3))), 1),
    (lambda x, r: mul(expand(r, (2, 3)), x) + expand(r, (2, 3)), 0),
    (lambda x, r: asum(expand(r, (2, 3)), axes=(0,)), 1),
    (lambda x, r: reshape(expand(r, (2, 3)), (3, 2)), 1),
    (lambda x, r: matmul(expand(r, (2, 3)), reshape(x, (3, 2))), 1),
    (lambda x, r: expand(r, (2, 3)), 1),
    (lambda x, r: mul(x, expand(r, (2, 3))) + reshape(expand(r, (2, 3)), (2, 3)), 1),
], ids=["mul", "two-expands", "two-readers", "asum", "reshape", "matmul", "output",
        "mixed-readers"])
def test_expands_leave_a_tape_only_before_binary_ufuncs(build, expands):
    assert _tape_of(build) == expands
