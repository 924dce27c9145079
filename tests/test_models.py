from __future__ import annotations

import numpy as np
import pytest

from feddistill.errors import ShapeError
from feddistill.models import ArchSpec, InitDistribution, cross_entropy, forward, init_params
from feddistill.models import _avg_pool
from feddistill.tensor import Tensor, asum, exp, grad, mean, mul, reshape
from helpers import finite_diff_check, take_slice, to_vector, total_size


MLP = ArchSpec(kind="mlp", input_shape=(1, 1, 4), class_count=3, hidden=(8,))
CONV = ArchSpec(kind="convnet", input_shape=(1, 8, 8), class_count=4, blocks=2, filters=6)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_init_deterministic():
    a = init_params(MLP, InitDistribution(seed=7))
    b = init_params(MLP, InitDistribution(seed=7))
    for (n1, t1, _), (n2, t2, _) in zip(a, b):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)
    c = init_params(MLP, InitDistribution(seed=8))
    assert any((t1.data != t2.data).any() for t1, t2 in zip(a.tensors(), c.tensors()))


def test_mlp_parameter_count():
    params = init_params(MLP, InitDistribution(seed=0))
    assert total_size(params) == 4 * 8 + 8 + 8 * 3 + 3


def test_convnet_head_dimension_appendix_template():
    # 3 blocks of 128 filters on 3x32x32 leave a 128*4*4 feature vector
    spec = ArchSpec(kind="convnet", input_shape=(3, 32, 32), class_count=10,
                    blocks=3, filters=128)
    params = init_params(spec, InitDistribution(seed=1))
    assert params.get("head.weight").shape == (128 * 4 * 4, 10)


def test_convnet_shape_mismatch_rejected():
    spec = ArchSpec(kind="convnet", input_shape=(1, 28, 28), class_count=10, blocks=3)
    assert any("divisible" in p or "not divisible" in p for p in spec.problems())
    with pytest.raises(ShapeError):
        init_params(spec, InitDistribution(seed=0))


def test_zero_weight_head_gives_zero_logits():
    params = init_params(MLP, InitDistribution(seed=3))
    params.get("head.weight").data[:] = 0.0
    params.get("head.bias").data[:] = 0.0
    batch = Tensor(_rng(0).random((5, 1, 1, 4)).astype(np.float32))
    logits = forward(params, MLP, batch)
    np.testing.assert_array_equal(logits.data, np.zeros((5, 3), dtype=np.float32))


def test_instance_norm_is_per_sample():
    params = init_params(CONV, InitDistribution(seed=4), dtype=np.float64)
    rng = _rng(1)
    batch = rng.random((8, 1, 8, 8))
    one = forward(params, CONV, Tensor(batch[:1].copy(), dtype=np.float64))
    many = forward(params, CONV, Tensor(batch, dtype=np.float64))
    np.testing.assert_allclose(one.data[0], many.data[0], atol=1e-5)


def test_batch_permutation_equivariance():
    params = init_params(CONV, InitDistribution(seed=5))
    batch = _rng(2).random((6, 1, 8, 8)).astype(np.float32)
    perm = np.array([3, 1, 5, 0, 2, 4])
    base = forward(params, CONV, Tensor(batch)).data
    shuffled = forward(params, CONV, Tensor(batch[perm])).data
    np.testing.assert_allclose(shuffled, base[perm], atol=1e-6)


def test_instance_norm_statistics():
    # pre-affine statistics checked by neutralizing the affine parameters
    spec = ArchSpec(kind="convnet", input_shape=(2, 8, 8), class_count=3, blocks=1, filters=5)
    params = init_params(spec, InitDistribution(seed=6), dtype=np.float64)
    from feddistill.models import _instance_norm

    x = Tensor(_rng(3).random((4, 5, 8, 8)) * 10.0, dtype=np.float64)
    out = _instance_norm(x, Tensor(np.ones(5), dtype=np.float64),
                         Tensor(np.zeros(5), dtype=np.float64))
    means = out.data.mean(axis=(2, 3))
    stds = out.data.var(axis=(2, 3))
    np.testing.assert_allclose(means, np.zeros_like(means), atol=1e-4)
    np.testing.assert_allclose(stds, np.ones_like(stds), atol=1e-4)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((7, 10)))
    loss = cross_entropy(logits, np.zeros(7, dtype=np.int64))
    assert abs(loss.data.item() - np.log(10.0)) < 1e-6


def test_cross_entropy_confident_logits_monotone():
    losses = []
    for scale in (1.0, 5.0, 25.0):
        logits = np.full((4, 3), 0.0, dtype=np.float64)
        logits[:, 1] = scale
        losses.append(cross_entropy(Tensor(logits), np.ones(4, dtype=np.int64)).data.item())
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-9


def test_cross_entropy_against_logsumexp_reference():
    rng = _rng(4)
    logits = rng.normal(size=(9, 5))
    labels = rng.integers(0, 5, size=9)
    loss = cross_entropy(Tensor(logits), labels).data.item()
    ref = np.mean([np.log(np.exp(logits[i]).sum()) - logits[i, labels[i]] for i in range(9)])
    assert abs(loss - ref) < 1e-6


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_forward_ce_gradient_matches_fd_mlp():
    params = init_params(MLP, InitDistribution(seed=9), dtype=np.float64)
    rng = _rng(5)
    batch = rng.random((6, 1, 1, 4))
    labels = rng.integers(0, 3, size=6)

    flat0 = to_vector(params)
    shapes = [(n, t.shape) for n, t, _ in params]

    def f(vec: Tensor):
        # rebuild a ParamSet view on the flat vector so FD perturbs everything
        from feddistill.tensor import ParamSet, reshape

        entries = []
        off = 0
        for (name, shape), (_, _, role) in zip(shapes, params):
            size = int(np.prod(shape)) if shape else 1
            entries.append((name, reshape(take_slice(vec, 0, off, off + size), shape), role))
            off += size
        pview = _ParamView(entries)
        logits = forward(pview, MLP, Tensor(batch, dtype=np.float64))
        return cross_entropy(logits, labels)

    err = finite_diff_check(f, Tensor(flat0), eps=1e-3)
    assert err < 1e-4


class _ParamView:
    """ParamSet-alike backed by graph tensors (for FD through a flat vector)."""

    def __init__(self, entries):
        self._entries = entries

    def get(self, name):
        for n, t, _ in self._entries:
            if n == name:
                return t
        raise KeyError(name)


def test_forward_ce_gradient_matches_fd_convnet():
    spec = ArchSpec(kind="convnet", input_shape=(1, 4, 4), class_count=2, blocks=1, filters=3)
    params = init_params(spec, InitDistribution(seed=11), dtype=np.float64)
    rng = _rng(6)
    batch = Tensor(rng.random((3, 1, 4, 4)), dtype=np.float64)
    labels = rng.integers(0, 2, size=3)

    logits = forward(params, spec, batch)
    loss = cross_entropy(logits, labels)
    gs = grad(loss, params)

    # FD on the first conv weight only (cheap but meaningful)
    w = params.get("block0.conv.weight")
    base = w.data.copy()
    fd = np.zeros_like(base)
    eps = 1e-4
    for idx in np.ndindex(base.shape):
        w.data = base.copy()
        w.data[idx] += eps
        up = cross_entropy(forward(params, spec, batch), labels).data.item()
        w.data = base.copy()
        w.data[idx] -= eps
        down = cross_entropy(forward(params, spec, batch), labels).data.item()
        fd[idx] = (up - down) / (2 * eps)
    w.data = base
    ad = gs.arrays()[0]
    denom = np.maximum(1e-6, np.maximum(np.abs(fd), np.abs(ad)))
    assert (np.abs(fd - ad) / denom).max() < 1e-4


def _pooled_energy(x: Tensor, k: int, c: np.ndarray) -> Tensor:
    return asum(mul(exp(_avg_pool(x, k)), Tensor(c)))


@pytest.mark.parametrize("k", [2, 3])
def test_avg_pool_first_and_second_order_match_fd(k):
    # c01's tolerances: gradient error < 1e-4, second-order error < 1e-3
    rng = _rng(30 + k)
    x0 = rng.normal(size=(2, 2, 2 * k, 3 * k))
    c = rng.normal(size=(2, 2, 2, 3))
    w = rng.normal(size=x0.shape)
    assert finite_diff_check(lambda t: _pooled_energy(t, k, c), Tensor(x0),
                             eps=1e-3, rel_floor=1e-4) < 1e-4

    def grad_energy(t):
        # the inner gradient is taken at a unit scale so that it stays a
        # function of t, as a parameter gradient stays one of the pixels
        scale = Tensor(np.ones(x0.shape), requires_grad=True)
        g = grad(_pooled_energy(mul(t, scale), k, c), [scale], create_graph=True)[0]
        return asum(mul(mul(g, g), Tensor(w)))

    assert finite_diff_check(grad_energy, Tensor(x0), eps=1e-4, rel_floor=1e-4) < 1e-3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_avg_pool_equals_mean_of_windows_bitwise(k, dtype):
    # forward, gradient and second-order gradient all equal the plain
    # mean over the reshaped windows, bit for bit
    rng = _rng(40 + k)
    x0 = rng.normal(size=(3, 2, 2 * k, 3 * k)).astype(dtype)
    c = rng.normal(size=(3, 2, 2, 3)).astype(dtype)

    def reference(t):
        return mean(reshape(t, (3, 2, 2, k, 3, k)), axes=(3, 5))

    results = []
    for pool in (lambda t: _avg_pool(t, k), reference):
        x = Tensor(x0.copy(), requires_grad=True)
        y = pool(x)
        g = grad(asum(mul(exp(y), Tensor(c))), [x], create_graph=True)[0]
        gg = grad(asum(mul(g, g)), [x])[0]
        results.append([y.data.tobytes(), g.data.tobytes(), gg.data.tobytes()])
    assert results[0] == results[1]
