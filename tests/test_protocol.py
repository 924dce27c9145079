"""Measured desk-scale behaviors of the unlearn/recover/relearn protocol and
the baselines, on small trained worlds shared across tests."""
from __future__ import annotations

import math

import numpy as np
import pytest

from feddistill.data import dirichlet_partition, synth_blobs
from feddistill.distill import DistillConfig
from feddistill.evaluate import accuracy_report, retrain_baseline, sga_or_baseline
from feddistill.federation import build_clients, train_federated
from feddistill.models import ArchSpec
from feddistill.unlearn import UnlearnEngine, UnlearningRequest
from helpers import fit_model, per_class_accuracy

SPEC = ArchSpec(kind="mlp", input_shape=(1, 4, 4), class_count=3, hidden=(16,))
SEEDS = (0, 10, 20, 30, 40)


def _world(seed):
    full = synth_blobs(3, 400, (1, 4, 4), separation=10.0, seed=seed)
    tr, te = [], []
    for c in range(3):
        rows = np.nonzero(full.labels == c)[0]
        tr.extend(rows[:300])
        te.extend(rows[300:])
    train = full.subset(np.array(tr))
    test = full.subset(np.array(te))
    parts, _ = dirichlet_partition(train, 4, math.inf, seed=seed + 1)
    clients = build_clients(parts, master_seed=seed + 2, scale_s=100.0)
    cfg = DistillConfig(outer_steps=25, inner_steps=5, real_batch_per_class=64,
                        model_lr=0.1, seed=seed + 2)
    model, _, _ = train_federated(clients, SPEC, cfg, master_seed=seed + 2)
    return {"train": train, "test": test, "clients": clients, "model": model, "cfg": cfg}


@pytest.fixture(scope="module")
def worlds():
    return {seed: _world(seed) for seed in SEEDS}


def _request(targets, **kw):
    defaults = dict(unlearn_rounds=1, recovery_rounds=2, sga_lr=0.1, recovery_lr=0.1,
                    mix_per_class=10)
    defaults.update(kw)
    return UnlearningRequest(targets=targets, **defaults)


def test_single_sga_round_decreases_forget_accuracy(worlds):
    for seed, w in worlds.items():
        pre = accuracy_report(w["model"].params, SPEC, w["test"], {1}).f_set_accuracy()
        engine = UnlearnEngine(w["clients"], SPEC, master_seed=seed + 2)
        part = engine.build_forget_partition({1}, set(), 0)
        after = engine.sga_round(w["model"].params, part, 0.1)
        post = accuracy_report(after, SPEC, w["test"], {1}).f_set_accuracy()
        assert post < pre


def test_recovery_rounds_do_not_hurt_r_set_on_average(worlds):
    deltas = []
    for seed, w in worlds.items():
        def r_set(rounds):
            engine = UnlearnEngine(w["clients"], SPEC, master_seed=seed + 2)
            out, _ = engine.execute_request(w["model"], _request([{"class": 1}],
                                                                 recovery_rounds=rounds))
            return accuracy_report(out.params, SPEC, w["test"], {1}).r_set_accuracy()

        deltas.append(r_set(2) - r_set(0))
    assert float(np.mean(deltas)) >= 0.0


def test_original_sample_mixing_helps_on_average(worlds):
    # deeper ascent damage so the recovery set's richness matters
    deltas = []
    for seed, w in worlds.items():
        def r_set(mix):
            engine = UnlearnEngine(w["clients"], SPEC, master_seed=seed + 2)
            out, _ = engine.execute_request(w["model"], _request([{"class": 1}],
                                                                 sga_lr=0.3,
                                                                 mix_per_class=mix))
            return accuracy_report(out.params, SPEC, w["test"], {1}).r_set_accuracy()

        deltas.append(r_set(10) - r_set(0))
    assert float(np.mean(deltas)) >= 0.0


def test_relearn_restores_forget_accuracy(worlds):
    for seed, w in worlds.items():
        pre = accuracy_report(w["model"].params, SPEC, w["test"], {1}).f_set_accuracy()
        engine = UnlearnEngine(w["clients"], SPEC, master_seed=seed + 2)
        unlearned, _ = engine.execute_request(w["model"], _request([{"class": 1}]))
        assert accuracy_report(unlearned.params, SPEC, w["test"], {1}).f_set_accuracy() < 0.05
        relearned, _ = engine.relearn(unlearned, [{"class": 1}], rounds=10, lr=0.1)
        post = accuracy_report(relearned.params, SPEC, w["test"], {1}).f_set_accuracy()
        assert post >= pre - 0.10


def test_unlearning_every_class_flattens_the_model():
    # A closed softmax must put its argmax somewhere, so once every class is
    # unlearned a tiny-scale model degenerates to a constant predictor; the
    # checkable flattening is: each target collapses at its own request, and
    # the final model keeps nothing beyond the constant-predictor floor.
    spec = ArchSpec(kind="mlp", input_shape=(1, 4, 4), class_count=5, hidden=(32,))
    full = synth_blobs(5, 400, (1, 4, 4), separation=5.0, seed=0)
    tr, te = [], []
    for c in range(5):
        rows = np.nonzero(full.labels == c)[0]
        tr.extend(rows[:300])
        te.extend(rows[300:])
    train, test = full.subset(np.array(tr)), full.subset(np.array(te))
    parts, _ = dirichlet_partition(train, 4, math.inf, seed=1)
    clients = build_clients(parts, master_seed=2, scale_s=25.0)
    cfg = DistillConfig(outer_steps=12, inner_steps=5, real_batch_per_class=64,
                        model_lr=0.1, seed=2, syn_lr=0.02)
    model, _, _ = train_federated(clients, spec, cfg, master_seed=2)

    engine = UnlearnEngine(clients, spec, master_seed=2, pass_batch_size=16)
    for i, target in enumerate((1, 3, 0, 4, 2)):
        last = i == 4
        model, _ = engine.execute_request(model, UnlearningRequest(
            targets=[{"class": target}], unlearn_rounds=3 if last else 1,
            recovery_rounds=2, sga_lr=0.3 if last else 0.1, recovery_lr=0.05,
            mix_per_class=10))
        acc = per_class_accuracy(accuracy_report(model.params, spec, test, {target}))
        assert acc[target] <= 0.05, (target, acc)
    overall = accuracy_report(model.params, spec, test, set()).overall_accuracy()
    assert overall <= 1 / 5 + 0.05
    assert engine.warnings >= 1  # final recovery had nothing left and said so


def test_batched_request_forgets_both_and_costs_less(worlds):
    w = worlds[10]
    batch_engine = UnlearnEngine(w["clients"], SPEC, master_seed=12)
    batched, batch_costs = batch_engine.execute_request(
        w["model"], _request([{"class": 0}, {"class": 2}]))
    acc = accuracy_report(batched.params, SPEC, w["test"], {0, 2})
    per_class = per_class_accuracy(acc)
    assert per_class[0] < 0.05 and per_class[2] < 0.05

    seq_engine = UnlearnEngine(w["clients"], SPEC, master_seed=12)
    model, seq_total = w["model"], 0
    for target in (0, 2):
        model, costs = seq_engine.execute_request(model, _request([{"class": target}]))
        seq_total += sum(c.samples for c in costs)
    batch_total = sum(c.samples for c in batch_costs)
    assert batch_total < seq_total


def test_federated_training_tracks_centralized_oracle(worlds):
    w = worlds[0]
    central = fit_model(SPEC, w["train"], steps=w["cfg"].outer_steps * w["cfg"].inner_steps,
                        lr=0.1, batch_size=192, seed=55)
    fed_acc = accuracy_report(w["model"].params, SPEC, w["test"], set()).overall_accuracy()
    cen_acc = accuracy_report(central, SPEC, w["test"], set()).overall_accuracy()
    assert fed_acc >= 0.95 * cen_acc


def test_retrain_baseline_never_learns_forget_class(worlds):
    w = worlds[0]
    re_model, _, _ = retrain_baseline(w["clients"], {1}, set(), SPEC, w["cfg"], master_seed=2)
    assert accuracy_report(re_model.params, SPEC, w["test"], {1}).f_set_accuracy() < 0.05


def test_sga_original_baseline_forgets(worlds):
    w = worlds[0]
    out, costs = sga_or_baseline(w["model"], w["clients"], {1}, set(), master_seed=2,
                                 sga_lr=0.1, recovery_lr=0.1)
    assert accuracy_report(out.params, SPEC, w["test"], {1}).f_set_accuracy() < 0.05
    # per-round original-data cost is ~s times the distilled counter
    engine = UnlearnEngine(w["clients"], SPEC, master_seed=2)
    part = engine.build_forget_partition({1}, set(), 0)
    distilled_per_round = part.forget_total()
    original_per_round = costs[0].samples / costs[0].rounds
    ratio = original_per_round / distilled_per_round
    assert 100 / 2 <= ratio <= 100 * 2
