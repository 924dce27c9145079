from __future__ import annotations

import numpy as np
import pytest

from feddistill.data import LabeledDataset, synth_blobs
from feddistill.distill import (
    DistillConfig,
    SyntheticDataset,
    _sgd_update,
    class_gradient,
    distill_standalone,
    fine_tune,
    grad_distance,
    init_synthetic,
    match_step,
    sgd_step,
    synthetic_size,
)
from feddistill.errors import ShapeError
from feddistill.models import ArchSpec, InitDistribution, init_params
from feddistill.tensor import ParamSet, Tensor

from helpers import layout, to_vector

MLP64 = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=2, hidden=(5,))


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _dataset_with_counts(counts: dict[int, int], class_count: int) -> LabeledDataset:
    xs, ys = [], []
    rng = _rng(0)
    for c, n in counts.items():
        xs.append(rng.random((n, 1, 2, 2), dtype=np.float32))
        ys.append(np.full(n, c, dtype=np.int64))
    return LabeledDataset(np.concatenate(xs), np.concatenate(ys), class_count)


# ---- sizing ----------------------------------------------------------------


def test_synthetic_size_rule():
    assert synthetic_size(5000, 100) == 50
    assert synthetic_size(40, 100) == 1
    assert synthetic_size(0, 100) == 0


def test_init_synthetic_sizes_and_absent_classes():
    data = _dataset_with_counts({0: 250, 2: 40}, class_count=4)
    syn = init_synthetic(data, s=100, seed=3)
    assert sorted(syn.buckets) == [0, 2]
    assert syn.buckets[0].shape[0] == 2
    assert syn.buckets[2].shape[0] == 1
    # initialized from real samples of the right class
    bucket0 = syn.buckets[0].data
    class0 = data.samples[data.labels == 0]
    for row in bucket0:
        assert any(np.array_equal(row, real) for real in class0)


def test_init_synthetic_deterministic():
    data = _dataset_with_counts({0: 30, 1: 30}, class_count=2)
    a = init_synthetic(data, s=10, seed=5)
    b = init_synthetic(data, s=10, seed=5)
    for c in a.buckets:
        np.testing.assert_array_equal(a.buckets[c].data, b.buckets[c].data)


def test_init_synthetic_rejects_empty_and_bad_scale():
    data = _dataset_with_counts({0: 4}, class_count=2)
    with pytest.raises(ValueError):
        init_synthetic(data, s=0, seed=1)
    empty = LabeledDataset(np.zeros((0, 1, 2, 2), np.float32), np.zeros(0, np.int64), 2)
    with pytest.raises(ShapeError):
        init_synthetic(empty, s=10, seed=1)


def test_sizing_budget_invariant():
    data = _dataset_with_counts({c: 40 for c in range(10)}, class_count=10)
    syn = init_synthetic(data, s=100, seed=2)
    total = syn.count()
    assert total <= max(10, int(np.ceil(len(data) / 100)))
    assert all(t.shape[0] >= 1 for t in syn.buckets.values())


# ---- gradient distance -------------------------------------------------------


def _random_gradset(seed, dtype=np.float64) -> tuple[ParamSet, int]:
    rng = _rng(seed)
    shapes = [("layer0.weight", (4, 5), "linear"), ("layer0.bias", (5,), "linear"),
              ("head.weight", (5, 3), "linear"), ("head.bias", (3,), "linear")]
    entries = []
    rows = 0
    for name, shape, role in shapes:
        entries.append((name, Tensor(rng.normal(size=shape), dtype=dtype), role))
        rows += shape[1] if len(shape) == 2 else 1
    return ParamSet(entries), rows


def test_grad_distance_identical_is_zero():
    ga, _ = _random_gradset(1)
    gb = ga.like([Tensor(a.copy(), dtype=np.float64) for a in ga.arrays()])
    assert abs(grad_distance(ga, gb).data.item()) < 1e-12


def test_grad_distance_antipodal():
    ga, rows = _random_gradset(2)
    gb = ga.like([Tensor(-a, dtype=np.float64) for a in ga.arrays()])
    assert abs(grad_distance(ga, gb).data.item() - 2.0 * rows) < 1e-9


def test_grad_distance_matches_rowwise_cosine_oracle():
    ga, _ = _random_gradset(3)
    gb, _ = _random_gradset(4)
    got = grad_distance(ga, gb).data.item()

    expected = 0.0
    for (_, ta, role), tb in zip(ga, gb.tensors()):
        a, b = ta.data, tb.data
        if a.ndim == 1:
            a, b = a[None, :], b[None, :]
        elif role == "linear":
            a, b = a.T, b.T
        else:
            a, b = a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)
        for ra, rb in zip(a, b):
            na, nb = np.linalg.norm(ra), np.linalg.norm(rb)
            if na < 1e-10 or nb < 1e-10:
                continue
            expected += 1.0 - float(ra @ rb) / (na * nb)
    assert abs(got - expected) < 1e-6


def test_grad_distance_symmetry():
    ga, _ = _random_gradset(5)
    gb, _ = _random_gradset(6)
    assert grad_distance(ga, gb).data.item() == grad_distance(gb, ga).data.item()


def test_grad_distance_zero_rows_skipped():
    ga, rows = _random_gradset(7)
    gb = ga.like([Tensor(np.zeros_like(a), dtype=np.float64) for a in ga.arrays()])
    assert grad_distance(ga, gb).data.item() == 0.0


def test_grad_distance_shape_mismatch():
    ga, _ = _random_gradset(8)
    bad = ga.like([Tensor(np.zeros((2, 2)), dtype=np.float64) for _ in range(len(ga))])
    with pytest.raises(ShapeError, match="'layer0.weight'"):
        grad_distance(ga, bad)


# ---- match step ----------------------------------------------------------------


def _match_fixture(dtype=np.float64, seed=0):
    data = synth_blobs(2, 40, (1, 2, 2), separation=6.0, seed=seed)
    params = init_params(MLP64, InitDistribution(seed=seed), dtype=dtype)
    syn = init_synthetic(data, s=20, seed=seed, dtype=dtype)
    batches = {c: Tensor(data.samples[data.labels == c][:16], dtype=dtype) for c in (0, 1)}
    return data, params, syn, batches


def test_match_step_zero_lr_is_identity():
    _, params, syn, batches = _match_fixture()
    before = {c: t.data.copy() for c, t in syn.buckets.items()}
    cfg = DistillConfig(syn_lr=0.0)
    match_step(params, MLP64, batches, syn, cfg)
    for c in before:
        np.testing.assert_array_equal(syn.buckets[c].data, before[c])


def test_match_step_never_touches_params():
    _, params, syn, batches = _match_fixture()
    before = to_vector(params).copy()
    match_step(params, MLP64, batches, syn, DistillConfig(syn_lr=0.5, syn_steps=3))
    np.testing.assert_array_equal(to_vector(params), before)


def test_match_step_equals_fd_gradient_step():
    # independent oracle: finite differences of the distance w.r.t. pixels
    _, params, syn, batches = _match_fixture()
    c = 0
    bucket0 = syn.buckets[c].data.copy()
    g_real = class_gradient(params, MLP64, batches[c], c)

    def distance_at(pixels_flat):
        t = Tensor(pixels_flat.reshape(bucket0.shape), requires_grad=True, dtype=np.float64)
        g_syn = class_gradient(params, MLP64, t, c, create_graph=True)
        return grad_distance(g_real, g_syn).data.item()

    eps = 1e-5
    flat = bucket0.reshape(-1).astype(np.float64)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += eps
        down[i] -= eps
        fd[i] = (distance_at(up) - distance_at(down)) / (2 * eps)

    lr = 0.2
    cfg = DistillConfig(syn_lr=lr, syn_steps=1)
    match_step(params, MLP64, {c: batches[c]}, syn, cfg)
    expected = flat - lr * fd
    np.testing.assert_allclose(syn.buckets[c].data.reshape(-1), expected, atol=1e-6)


def test_match_step_missing_bucket_counts_skip():
    _, params, syn, batches = _match_fixture()
    del syn.buckets[1]
    match_step(params, MLP64, batches, syn, DistillConfig())
    assert syn.match_skips == 1


def test_match_step_descends_distance():
    data, params, syn, batches = _match_fixture(seed=3)
    c = 0
    cfg = DistillConfig(syn_lr=0.05, syn_steps=1)
    g_real = class_gradient(params, MLP64, batches[c], c)

    def current_distance():
        g_syn = class_gradient(params, MLP64, syn.buckets[c], c, create_graph=True)
        return grad_distance(g_real, g_syn).data.item()

    decreases = 0
    steps = 50
    for _ in range(steps):
        before = current_distance()
        match_step(params, MLP64, {c: batches[c]}, syn, cfg)
        after = current_distance()
        if after < before:
            decreases += 1
    assert decreases >= int(0.9 * steps)


# ---- standalone loops ------------------------------------------------------------


def test_distill_standalone_zero_outer_is_identity():
    from feddistill.seeds import derive_seed

    data = synth_blobs(2, 30, (1, 2, 2), separation=6.0, seed=4)
    cfg = DistillConfig(outer_steps=0, inner_steps=5, seed=9)
    syn = distill_standalone(data, MLP64, cfg, s=10)
    ref = init_synthetic(data, 10, derive_seed(9, "standalone-syn"))
    for c in syn.buckets:
        np.testing.assert_array_equal(syn.buckets[c].data, ref.buckets[c].data)


def test_distill_standalone_deterministic():
    data = synth_blobs(2, 40, (1, 2, 2), separation=6.0, seed=5)
    cfg = DistillConfig(outer_steps=2, inner_steps=3, real_batch_per_class=12, seed=11)
    a = distill_standalone(data, MLP64, cfg, s=10)
    b = distill_standalone(data, MLP64, cfg, s=10)
    for c in a.buckets:
        np.testing.assert_array_equal(a.buckets[c].data, b.buckets[c].data)


def test_standalone_synthetic_step_replays_the_loss_gradient_tape():
    spec = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=2, hidden=(5,))
    data = synth_blobs(2, 40, (1, 2, 2), separation=6.0, seed=5)
    cfg = DistillConfig(outer_steps=2, inner_steps=3, real_batch_per_class=12, seed=11)
    syn = distill_standalone(data, spec, cfg, s=10)
    xs, _ = syn.union()
    # key: (kind, params, ((batch shape, dtype), (labels shape, dtype)), grad mode)
    tapes = [tape for key, tape in spec.tapes.items()
             if key[0] == "loss_gradient" and key[1][-2][0] == xs.shape]
    assert xs.shape[0] != cfg.real_batch_per_class
    assert len(tapes) == 1 and tapes[0].replays >= 1


def test_fine_tune_identity_and_counter():
    data = synth_blobs(2, 40, (1, 2, 2), separation=6.0, seed=6)
    cfg = DistillConfig(outer_steps=1, inner_steps=4, real_batch_per_class=8, seed=12)
    syn = distill_standalone(data, MLP64, cfg, s=10)
    base_steps = syn.real_grad_steps
    out = fine_tune(syn, data, MLP64, 0, cfg)
    assert out is syn and syn.real_grad_steps == base_steps

    fine_tune(syn, data, MLP64, 3, cfg)
    assert syn.real_grad_steps == base_steps + 3 * cfg.inner_steps * 2


def test_sgd_step_directions():
    params = init_params(MLP64, InitDistribution(seed=1), dtype=np.float64)
    data = synth_blobs(2, 10, (1, 2, 2), separation=3.0, seed=7)
    batch = Tensor(data.samples[:6], dtype=np.float64)
    g = class_gradient(params, MLP64, batch, 0)
    before = to_vector(params).copy()
    sgd_step(params, g, lr=0.1)
    descended = to_vector(params).copy()
    np.testing.assert_allclose(descended, before - 0.1 * to_vector(g), rtol=1e-12)
    sgd_step(params, g, lr=0.1, direction=+1.0)
    np.testing.assert_allclose(to_vector(params), before, atol=1e-12)


def test_sgd_step_names_the_entry_at_fault():
    params = init_params(MLP64, InitDistribution(seed=1), dtype=np.float64)
    before = to_vector(params).copy()
    arrays = params.arrays()
    renamed = ParamSet([(("other" if i == 1 else n), Tensor(np.zeros_like(a)), r)
                        for i, ((n, _, r), a) in enumerate(zip(params, arrays))])
    with pytest.raises(ShapeError, match="'other'"):
        sgd_step(params, renamed, lr=0.1)
    wrong = params.like([Tensor(np.zeros(a.shape + (1,) if i == 2 else a.shape))
                         for i, a in enumerate(arrays)])
    with pytest.raises(ShapeError, match=f"'{layout(params)[2][0]}'"):
        sgd_step(params, wrong, lr=0.1)
    np.testing.assert_array_equal(to_vector(params), before)


def _update_operands(dtype):
    """Parameters and gradients over signed zeros, tiny, ordinary and
    near-overflow magnitudes, every pairing of them."""
    big = np.finfo(dtype).max / 3
    tiny = np.finfo(dtype).tiny
    values = np.array([0.0, -0.0, tiny, -tiny, 1e-3, -0.75, 1.0, 3.5, big, -big], dtype=dtype)
    p, g = (a.ravel() for a in np.meshgrid(values, values, indexing="ij"))
    rng = _rng(5)
    p = np.concatenate([p, rng.normal(size=64).astype(dtype)])
    g = np.concatenate([g, rng.normal(size=64).astype(dtype)])
    return p, g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lr", [0.0, 0.01, 0.3, 1.0, 3.0])
def test_sgd_update_equals_every_former_spelling(dtype, lr):
    p, g = _update_operands(dtype)
    with np.errstate(over="ignore"):
        for direction in (-1.0, 1.0):
            got = _sgd_update(p, g, lr, direction)
            # the spelling of sgd_step and of the unlearning passes
            assert got.dtype == p.dtype
            assert got.tobytes() == (p + p.dtype.type(direction * lr) * g).tobytes()
        # the spelling of the pixel update in match_step
        old_pixels = p - p.dtype.type(lr) * g
        assert _sgd_update(p, g, lr).tobytes() == old_pixels.tobytes()     # sign bits included
