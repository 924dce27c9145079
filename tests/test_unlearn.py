from __future__ import annotations

import math

import numpy as np
import pytest

from feddistill.data import dirichlet_partition, synth_blobs
from feddistill.distill import DistillConfig
from feddistill.errors import ShapeError
from feddistill.evaluate import original_data_partition
from feddistill.federation import build_clients, train_federated
from feddistill.models import ArchSpec
from feddistill.tensor import Tensor
from feddistill.unlearn import (
    ClientSplit,
    ForgetPartition,
    UnlearnEngine,
    UnlearningRequest,
    parse_request_file,
    parse_request_line,
)

SPEC = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=3, hidden=(6,))


def _trained_world(seed=0, classes=3, per_class=60, n_clients=2, rounds=4):
    data = synth_blobs(classes, per_class, (1, 2, 2), separation=8.0, seed=seed)
    parts, _ = dirichlet_partition(data, n_clients, math.inf, seed=seed + 1)
    clients = build_clients(parts, master_seed=seed + 2, scale_s=10)
    cfg = DistillConfig(outer_steps=rounds, inner_steps=3, real_batch_per_class=16, model_lr=0.1)
    spec = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=classes, hidden=(6,))
    model, _, _ = train_federated(clients, spec, cfg, master_seed=seed + 2)
    return model, clients, spec


# ---- request parsing -----------------------------------------------------------


def test_parse_single_class():
    action = parse_request_line("unlearn class=9")
    assert action.kind == "unlearn" and action.targets == [{"class": 9}]


def test_parse_client_and_batch_and_relearn():
    assert parse_request_line("unlearn client=3").targets == [{"client": 3}]
    batch = parse_request_line("batch class=5,class=8")
    assert batch.kind == "batch" and batch.targets == [{"class": 5}, {"class": 8}]
    relearn = parse_request_line("relearn class=9")
    assert relearn.kind == "relearn" and relearn.targets == [{"class": 9}]


def test_parse_file_skips_blanks_and_comments():
    actions = parse_request_file("\n# comment\nunlearn class=1\n\nbatch class=0,client=1\n")
    assert [a.kind for a in actions] == ["unlearn", "batch"]


def test_parse_rejects_garbage():
    with pytest.raises(ShapeError):
        parse_request_line("unlearn classes=1")
    with pytest.raises(ShapeError):
        parse_request_line("drop class=1")
    with pytest.raises(ShapeError):
        parse_request_line("unlearn class=1,class=2")


def test_request_validation():
    assert UnlearningRequest(targets=[]).problems()
    assert UnlearningRequest(targets=[{"sample": 3}]).problems()
    assert not UnlearningRequest(targets=[{"class": 1}]).problems()


def test_sample_level_rejected_at_resolution():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=1)
    with pytest.raises(ShapeError, match="sample-level"):
        engine.resolve_targets([{"sample": 5}])


# ---- partition -------------------------------------------------------------------


def test_partition_class_target_unions_buckets():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=3)
    part = engine.build_forget_partition({1}, set(), mix_per_class=2)
    for cid, split in part.splits.items():
        client_buckets = clients[cid].syn.buckets
        assert set(split.forget) == ({1} & set(client_buckets))
        assert set(split.keep) == set(client_buckets) - {1}
        # forget and keep index sets partition the synthetic set exactly
        assert split.forget_count() + sum(t.shape[0] for t in split.keep.values()) \
            == sum(t.shape[0] for t in client_buckets.values())


def test_partition_client_target_contributes_nothing_to_recovery():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=4)
    part = engine.build_forget_partition(set(), {1}, mix_per_class=2)
    assert part.splits[1].keep == {} and part.splits[1].mix_x is None
    assert part.splits[1].forget_count() == sum(
        t.shape[0] for t in clients[1].syn.buckets.values())
    assert part.splits[0].forget_count() == 0


def test_partition_batch_disjointness_set_algebra():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=5)
    part = engine.build_forget_partition({0, 2}, set(), mix_per_class=0)
    for cid, split in part.splits.items():
        forget_classes = set(split.forget)
        keep_classes = set(split.keep)
        assert forget_classes & keep_classes == set()
        assert forget_classes | keep_classes == set(clients[cid].syn.buckets)
        assert forget_classes == {0, 2} & set(clients[cid].syn.buckets)


def test_partition_mixins_only_from_keep_classes():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=6)
    part = engine.build_forget_partition({1}, set(), mix_per_class=3)
    for split in part.splits.values():
        if split.mix_y is None:
            continue
        assert set(np.unique(split.mix_y)) <= set(split.keep)
        for c in split.keep:
            assert (split.mix_y == c).sum() <= 3


@pytest.mark.parametrize("classes, client_ids", [({1}, set()), (set(), {1}), ({0}, {1})],
                         ids=["class", "client", "batch"])
def test_distilled_and_original_partitions_split_classes_alike(classes, client_ids):
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=3)
    distilled = engine.build_forget_partition(classes, client_ids, mix_per_class=0)
    original = original_data_partition(clients, classes, client_ids)

    def sides(partition):
        return {cid: (sorted(s.forget), sorted(s.keep)) for cid, s in partition.splits.items()}

    assert sides(distilled) == sides(original)
    assert any(forget for forget, _ in sides(distilled).values())


def test_resolve_unknown_targets():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=7)
    with pytest.raises(ShapeError, match="class 7"):
        engine.resolve_targets([{"class": 7}])
    with pytest.raises(ShapeError, match="client id 12"):
        engine.resolve_targets([{"client": 12}])


# ---- rounds ---------------------------------------------------------------------


def test_sga_zero_lr_is_identity():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=8)
    part = engine.build_forget_partition({0}, set(), mix_per_class=0)
    out = engine.sga_round(model.params, part, lr=0.0)
    np.testing.assert_array_equal(out.to_vector(), model.params.to_vector())


def test_recovery_zero_lr_is_identity():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=9)
    part = engine.build_forget_partition({0}, set(), mix_per_class=2)
    out = engine.recovery_round(model.params, part, lr=0.0)
    np.testing.assert_array_equal(out.to_vector(), model.params.to_vector())


def test_sga_is_negated_sgd_for_same_batch():
    model, clients, spec = _trained_world(n_clients=1)
    engine = UnlearnEngine(clients, spec, master_seed=10)
    bucket = {0: clients[0].syn.buckets[0]}
    ascent_part = ForgetPartition({0: ClientSplit(forget=dict(bucket), keep={})}, {0}, set())
    descent_part = ForgetPartition({0: ClientSplit(forget={}, keep=dict(bucket))}, set(), set())

    # on zero parameters the update IS the step, so negation is bitwise-exact
    zero = model.params.clone()
    for t in zero.tensors():
        t.data = np.zeros_like(t.data)
    up = engine.sga_round(zero, ascent_part, lr=0.05)
    down = engine.recovery_round(zero, descent_part, lr=0.05)
    np.testing.assert_array_equal(up.to_vector(), -down.to_vector())
    assert (up.to_vector() != 0).any()

    # on a trained model the steps still negate, up to fp rounding around theta
    up = engine.sga_round(model.params, ascent_part, lr=0.05)
    down = engine.recovery_round(model.params, descent_part, lr=0.05)
    base = model.params.to_vector()
    np.testing.assert_allclose(up.to_vector() - base, -(down.to_vector() - base), atol=1e-7)


def test_sga_empty_forget_set_errors():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=11)
    empty = ForgetPartition({0: ClientSplit(forget={}, keep={})}, set(), set())
    with pytest.raises(ShapeError):
        engine.sga_round(model.params, empty, lr=0.1)


# ---- request execution ---------------------------------------------------------


def test_execute_request_zero_rounds_zero_cost():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=12)
    request = UnlearningRequest(targets=[{"class": 0}], unlearn_rounds=0, recovery_rounds=0)
    out, costs = engine.execute_request(model, request)
    np.testing.assert_array_equal(out.params.to_vector(), model.params.to_vector())
    assert all(c.rounds == 0 and c.samples == 0 for c in costs)


def test_execute_request_counter_exactness():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=13)
    request = UnlearningRequest(targets=[{"class": 1}], unlearn_rounds=2, recovery_rounds=3,
                                mix_per_class=2)
    part = engine.build_forget_partition({1}, set(), request.mix_per_class)
    engine2 = UnlearnEngine(clients, spec, master_seed=13)
    out, costs = engine2.execute_request(model, request)
    assert costs[0].samples == 2 * part.forget_total()
    assert costs[1].samples == 3 * part.keep_total()
    # and the partition totals are themselves sums of actual bucket sizes
    recount_forget = sum(t.shape[0] for s in part.splits.values() for t in s.forget.values())
    assert part.forget_total() == recount_forget


def test_execute_request_repeat_is_noop_with_warning():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=14)
    request = UnlearningRequest(targets=[{"class": 0}], sga_lr=0.1)
    model2, _ = engine.execute_request(model, request)
    warned = engine.warnings
    model3, costs = engine.execute_request(model2, request)
    assert engine.warnings > warned
    np.testing.assert_array_equal(model3.params.to_vector(), model2.params.to_vector())
    assert all(c.rounds == 0 for c in costs)


def test_sequence_excludes_forgotten_from_recovery():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=17)
    r1 = UnlearningRequest(targets=[{"class": 0}])
    model, _ = engine.execute_request(model, r1)
    part = engine.build_forget_partition({1}, set(), mix_per_class=2)
    for split in part.splits.values():
        assert 0 not in split.keep
        if split.mix_y is not None:
            assert 0 not in np.unique(split.mix_y)


def test_unlearning_last_class_skips_recovery():
    model, clients, spec = _trained_world(classes=2)
    engine = UnlearnEngine(clients, spec, master_seed=18)
    model, _ = engine.execute_request(model, UnlearningRequest(targets=[{"class": 0}]))
    model, costs = engine.execute_request(model, UnlearningRequest(targets=[{"class": 1}]))
    assert costs[0].rounds == 1
    assert costs[1].rounds == 0 and engine.warnings >= 1


# ---- relearning -------------------------------------------------------------------


def test_relearn_zero_rounds_unchanged():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=19)
    model2, _ = engine.execute_request(model, UnlearningRequest(targets=[{"class": 0}]))
    model3, cost = engine.relearn(model2, [{"class": 0}], rounds=0)
    np.testing.assert_array_equal(model3.params.to_vector(), model2.params.to_vector())
    assert cost.rounds == 0
    assert 0 not in engine.forgotten_classes  # relearn clears the mark


def test_relearn_never_unlearned_warns_but_runs():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=20)
    out, cost = engine.relearn(model, [{"class": 1}], rounds=1)
    assert engine.warnings >= 1
    assert cost.rounds == 1
    assert (out.params.to_vector() != model.params.to_vector()).any()


def test_relearn_includes_target_buckets():
    model, clients, spec = _trained_world()
    engine = UnlearnEngine(clients, spec, master_seed=21)
    model2, _ = engine.execute_request(model, UnlearningRequest(targets=[{"class": 0}]))
    # one relearn round consumes keep + rejoined target buckets
    expected = sum(t.shape[0] for c in clients for t in c.syn.buckets.values())
    _, cost = engine.relearn(model2, [{"class": 0}], rounds=1)
    assert cost.samples == expected
