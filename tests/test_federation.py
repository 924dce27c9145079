from __future__ import annotations

import math

import numpy as np
import pytest

from feddistill.data import ClassBatchSampler, dirichlet_partition, synth_blobs
from feddistill.distill import DistillConfig, class_gradient, sgd_step
from feddistill.errors import ShapeError
from feddistill.federation import (
    ClientState,
    aggregate,
    build_clients,
    local_round,
    sample_clients,
    train_federated,
)
from feddistill.models import ArchSpec, InitDistribution, init_params
from feddistill.seeds import derive_seed, make_rng
from feddistill.tensor import ParamSet, Tensor

MLP = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=2, hidden=(6,))


def _world(n_clients=2, per_class=40, seed=0, distill=True, s=20):
    data = synth_blobs(2, per_class, (1, 2, 2), separation=6.0, seed=seed)
    parts, _ = dirichlet_partition(data, n_clients, math.inf, seed=seed + 1)
    return build_clients(parts, master_seed=seed + 2, scale_s=s, distill_enabled=distill)


# ---- aggregate -------------------------------------------------------------


def test_aggregate_identical_models_idempotent():
    params = init_params(MLP, InitDistribution(seed=1))
    out = aggregate([params, params.clone(), params.clone()], [0.2, 0.3, 0.5])
    np.testing.assert_allclose(out.to_vector(), params.to_vector(), rtol=1e-6)


def test_aggregate_degenerate_weights_select_first():
    a = init_params(MLP, InitDistribution(seed=2))
    b = init_params(MLP, InitDistribution(seed=3))
    out = aggregate([a, b], [1.0, 0.0])
    np.testing.assert_array_equal(out.to_vector(), a.to_vector())


def test_aggregate_matches_scalar_oracle():
    models = [init_params(MLP, InitDistribution(seed=s), dtype=np.float64) for s in (4, 5, 6)]
    weights = [0.2, 0.3, 0.5]
    out = aggregate(models, weights)
    expected = sum(w * m.to_vector() for w, m in zip(weights, models))
    np.testing.assert_allclose(out.to_vector(), expected, atol=1e-7)


def _aggregate_per_entry(models, weights):
    # the former loop: one pass over the models per entry
    out = []
    for i, (_, tensor, _) in enumerate(models[0]):
        acc = np.zeros_like(tensor.data)
        for m, w in zip(models, weights):
            acc = acc + tensor.data.dtype.type(w) * m.tensors()[i].data
        out.append(acc)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 4, 100])
def test_aggregate_equals_the_per_entry_loop_bitwise(k, dtype):
    base = init_params(MLP, InitDistribution(seed=12), dtype=dtype)
    rng = np.random.default_rng(k)
    models = [base.with_data([a + rng.normal(size=a.shape).astype(dtype) for a in base.arrays()])
              for _ in range(k)]
    raw = rng.random(k)
    weights = [float(w) for w in raw / raw.sum()]
    weights[-1] = 1.0 - sum(weights[:-1])
    out = aggregate(models, weights)
    assert out.names == base.names and out.roles == base.roles
    assert all(t.requires_grad for t in out.tensors())
    assert [a.tobytes() for a in out.arrays()] == \
        [a.tobytes() for a in _aggregate_per_entry(models, weights)]


def test_aggregate_names_the_incongruent_entry():
    a = init_params(MLP, InitDistribution(seed=2))
    b = a.like([Tensor(np.zeros(t.shape[:1])) if i == 2 else t for i, t in enumerate(a.tensors())])
    with pytest.raises(ShapeError, match=f"'{a.names[2]}'"):
        aggregate([a, b], [0.5, 0.5])


def test_aggregate_rejects_bad_weights():
    params = init_params(MLP, InitDistribution(seed=7))
    with pytest.raises(ShapeError):
        aggregate([params, params.clone()], [0.9, 0.2])


# ---- sample_clients -----------------------------------------------------------


def test_sample_clients_full_participation_sorted():
    assert sample_clients(5, 1.0, seed=1, round_k=0) == [0, 1, 2, 3, 4]


def test_sample_clients_ten_percent():
    chosen = sample_clients(100, 0.1, seed=2, round_k=3)
    assert len(chosen) == 10 and len(set(chosen)) == 10
    assert all(0 <= c < 100 for c in chosen)


def test_sample_clients_deterministic_and_round_dependent():
    a = sample_clients(30, 0.2, seed=5, round_k=7)
    b = sample_clients(30, 0.2, seed=5, round_k=7)
    c = sample_clients(30, 0.2, seed=5, round_k=8)
    assert a == b
    assert a != c  # overwhelmingly likely for distinct rounds


# ---- local rounds ---------------------------------------------------------------


def test_local_round_zero_steps_is_identity():
    clients = _world()
    params = init_params(MLP, InitDistribution(seed=8))
    syn_before = {c: t.data.copy() for c, t in clients[0].syn.buckets.items()}
    out, steps, touched = local_round(clients[0], params, MLP,
                                      DistillConfig(inner_steps=0), distill_enabled=True)
    assert steps == 0 and touched == 0
    np.testing.assert_array_equal(out.to_vector(), params.to_vector())
    for c in syn_before:
        np.testing.assert_array_equal(clients[0].syn.buckets[c].data, syn_before[c])


def test_local_round_reuse_counter_is_steps():
    clients = _world()
    params = init_params(MLP, InitDistribution(seed=9))
    cfg = DistillConfig(inner_steps=5, real_batch_per_class=8)
    local_round(clients[0], params, MLP, cfg, distill_enabled=True)
    assert clients[0].reuse_count == 5
    local_round(clients[0], params, MLP, cfg, distill_enabled=False)
    assert clients[0].reuse_count == 5


def test_local_round_matches_plain_fedavg_bitwise_when_disabled():
    # oracle: an independent plain implementation of class-batched local SGD
    cfg = DistillConfig(inner_steps=4, real_batch_per_class=8, model_lr=0.05)
    params = init_params(MLP, InitDistribution(seed=10))

    clients = _world(n_clients=1, seed=3, distill=False)
    got, _, _ = local_round(clients[0], params, MLP, cfg, distill_enabled=False)

    data = clients[0].data
    sampler = ClassBatchSampler(data, make_rng(5, "client", 0, "batches"))
    theta = params.clone()
    for _ in range(cfg.inner_steps):
        grads, sizes = {}, {}
        for c in sampler.classes():
            idx = sampler.next_batch(c, cfg.real_batch_per_class)
            batch = Tensor(data.samples[idx])
            sizes[c] = batch.shape[0]
            grads[c] = class_gradient(theta, MLP, batch, c)
        total = sum(sizes.values())
        mean_grads = [Tensor(sum(sizes[c] * grads[c].arrays()[i] for c in grads) / total)
                      for i in range(len(theta))]
        sgd_step(theta, theta.like(mean_grads), cfg.model_lr)

    np.testing.assert_array_equal(got.to_vector(), theta.to_vector())


def test_local_round_trajectory_unchanged_by_distillation():
    cfg = DistillConfig(inner_steps=3, real_batch_per_class=8, model_lr=0.05, syn_lr=0.2)
    params = init_params(MLP, InitDistribution(seed=11))
    on = _world(seed=4, distill=True)
    off = _world(seed=4, distill=False)
    got_on, _, _ = local_round(on[0], params, MLP, cfg, distill_enabled=True)
    got_off, _, _ = local_round(off[0], params, MLP, cfg, distill_enabled=False)
    np.testing.assert_array_equal(got_on.to_vector(), got_off.to_vector())
    # and the synthetic set did change on the enabled side
    fresh = _world(seed=4, distill=True)
    assert any((on[0].syn.buckets[c].data != fresh[0].syn.buckets[c].data).any()
               for c in on[0].syn.buckets)


# ---- federated training --------------------------------------------------------


def test_train_federated_zero_rounds_returns_init():
    clients = _world()
    cfg = DistillConfig(outer_steps=0, inner_steps=2)
    model, syn, records = train_federated(clients, MLP, cfg, master_seed=6)
    expected = init_params(MLP, InitDistribution(seed=derive_seed(6, "global-init")))
    np.testing.assert_array_equal(model.params.to_vector(), expected.to_vector())
    assert records == []


def test_train_federated_single_client_equals_centralized():
    # a one-client federation with weight 1.0 must follow centralized SGD bitwise
    cfg = DistillConfig(outer_steps=3, inner_steps=2, real_batch_per_class=8, model_lr=0.05)
    clients = _world(n_clients=1, seed=7, distill=False)
    model, _, _ = train_federated(clients, MLP, cfg, master_seed=9, distill_enabled=False)

    oracle_clients = _world(n_clients=1, seed=7, distill=False)
    # same sampler stream: master seed 9 drives both client streams
    oracle_clients[0].sampler = ClassBatchSampler(
        oracle_clients[0].data, make_rng(9, "client", 0, "batches"))
    theta = init_params(MLP, InitDistribution(seed=derive_seed(9, "global-init")))
    for _ in range(cfg.outer_steps):
        theta, _, _ = local_round(oracle_clients[0], theta, MLP, cfg, distill_enabled=False)
    np.testing.assert_array_equal(model.params.to_vector(), theta.to_vector())


def test_train_federated_bitwise_reproducible():
    cfg = DistillConfig(outer_steps=2, inner_steps=2, real_batch_per_class=8)
    m1, s1, _ = train_federated(_world(seed=8), MLP, cfg, master_seed=12)
    m2, s2, _ = train_federated(_world(seed=8), MLP, cfg, master_seed=12)
    np.testing.assert_array_equal(m1.params.to_vector(), m2.params.to_vector())
    for cid in s1:
        for c in s1[cid].buckets:
            np.testing.assert_array_equal(s1[cid].buckets[c].data, s2[cid].buckets[c].data)


def test_train_federated_weights_sum_and_equal_for_iid():
    clients = _world(n_clients=4, per_class=40, seed=9)
    cfg = DistillConfig(outer_steps=2, inner_steps=1, real_batch_per_class=8)
    _, _, records = train_federated(clients, MLP, cfg, master_seed=13)
    for r in records:
        assert abs(sum(r.weights) - 1.0) < 1e-9
        np.testing.assert_allclose(r.weights, [0.25] * 4)


def test_train_federated_partial_participation_updates_only_participants():
    clients = _world(n_clients=4, per_class=40, seed=10)
    cfg = DistillConfig(outer_steps=1, inner_steps=2, real_batch_per_class=8)
    before = {cid: {c: t.data.copy() for c, t in cl.syn.buckets.items()}
              for cid, cl in enumerate(clients)}
    model, _, records = train_federated(clients, MLP, cfg, master_seed=14, participation=0.5)
    (record,) = records
    assert len(record.client_ids) == 2
    for cid, cl in enumerate(clients):
        changed = any((cl.syn.buckets[c].data != before[cid][c]).any()
                      for c in cl.syn.buckets)
        assert changed == (cid in record.client_ids)
