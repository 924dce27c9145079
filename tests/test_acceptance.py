"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines.
Everything is desk scale (blobs + MLP, CPU); every criterion finishes well
under its time budget.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from feddistill.checkpoint import load_model, load_synthetic, save_model, save_synthetic
from feddistill.data import LabeledDataset, dirichlet_partition, synth_blobs
from feddistill.distill import DistillConfig, class_gradient, fine_tune, grad_distance
from feddistill.distill import distill_standalone
from feddistill.evaluate import (
    MIAConfig,
    accuracy_report,
    mia_attack,
    retrain_baseline,
    sga_or_baseline,
)
from feddistill.federation import aggregate as fed_aggregate
from feddistill.federation import build_clients, train_federated
from feddistill.models import ArchSpec, InitDistribution, cross_entropy, forward, init_params
from feddistill.seeds import derive_seed, make_rng
from feddistill.tensor import Tensor, grad, reshape
from feddistill.unlearn import UnlearnEngine, UnlearningRequest
from helpers import finite_diff_check, fit_model, per_class_accuracy, take_slice, to_vector


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _split_blobs(classes, train_pc, test_pc, dim, sep, seed):
    full = synth_blobs(classes, train_pc + test_pc, dim, sep, seed=seed)
    tr, te = [], []
    for c in range(classes):
        rows = np.nonzero(full.labels == c)[0]
        tr.extend(rows[:train_pc])
        te.extend(rows[train_pc:])
    return full.subset(np.array(tr)), full.subset(np.array(te))


# ---------------------------------------------------------------- criterion 1


class _ParamView:
    def __init__(self, entries):
        self._by_name = {n: t for n, t, _ in entries}

    def get(self, name):
        return self._by_name[name]


def _off_kink_batch(rng, params, n, margin=0.02):
    """Sample a batch whose relu preactivations all sit > margin away from
    zero; central differences are only a valid oracle on a smooth eps-ball."""
    w0 = params.get("layer0.weight").data
    b0 = params.get("layer0.bias").data
    for _ in range(200):
        batch = rng.random((n, 1, 2, 3))
        pre = batch.reshape(n, -1) @ w0 + b0
        if np.abs(pre).min() > margin:
            return batch
    raise AssertionError("no off-kink batch found")


def test_c01_autodiff_matches_finite_differences():
    """grad < 1e-4 and hypergrad < 1e-3 relative error vs central differences,
    64-bit, 100 random MLP instances.

    Near-zero gradient coordinates are compared against a 1e-4 floor (an
    absolute check at ~1e-8) since the stated relative tolerance is only
    meaningful at the gradient's own scale.
    """
    spec = ArchSpec(kind="mlp", input_shape=(1, 2, 3), class_count=3, hidden=(8,))
    shapes = None
    worst_grad, worst_hyper = 0.0, 0.0
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(seed))
        params = init_params(spec, InitDistribution(seed=seed), dtype=np.float64)
        if shapes is None:
            shapes = [(n, t.shape, r) for n, t, r in params]
        batch = Tensor(_off_kink_batch(rng, params, 5), dtype=np.float64)
        labels = rng.integers(0, 3, size=5)

        def loss_of_flat(vec):
            entries, off = [], 0
            for name, shape, role in shapes:
                size = int(np.prod(shape))
                entries.append((name, reshape(take_slice(vec, 0, off, off + size), shape), role))
                off += size
            return cross_entropy(forward(_ParamView(entries), spec, batch), labels)

        worst_grad = max(worst_grad,
                         finite_diff_check(loss_of_flat, Tensor(to_vector(params)),
                                           eps=1e-3, rel_floor=1e-4))

        real_batch = Tensor(rng.random((6, 1, 2, 3)), dtype=np.float64)
        g_real = class_gradient(params, spec, real_batch, 1)

        def match_of_pixels(pixels):
            g_syn = class_gradient(params, spec, pixels, 1, create_graph=True)
            return grad_distance(g_real, g_syn)

        syn0 = _off_kink_batch(rng, params, 2)
        worst_hyper = max(worst_hyper,
                          finite_diff_check(match_of_pixels, Tensor(syn0, dtype=np.float64),
                                            eps=1e-4, rel_floor=1e-4))
    _verdict(1, "autodiff vs finite differences", worst_grad < 1e-4 and worst_hyper < 1e-3,
             f"grad err {worst_grad:.2e} < 1e-4, hypergrad err {worst_hyper:.2e} < 1e-3, 100 seeds")


# ---------------------------------------------------------------- criterion 2


def test_c02_distillation_utility():
    """Training on the distilled set reaches >= 90% of full-data accuracy."""
    spec = ArchSpec(kind="mlp", input_shape=(1, 4, 4), class_count=2, hidden=(16,))
    train, test = _split_blobs(2, 500, 150, (1, 4, 4), 10.0, seed=3)

    oracle = fit_model(spec, train, steps=150, lr=0.2, batch_size=64, seed=11)
    acc_full = accuracy_report(oracle, spec, test, set()).overall_accuracy()

    cfg = DistillConfig(outer_steps=10, inner_steps=10, real_batch_per_class=256,
                        syn_lr=0.1, model_lr=0.01, seed=11)
    syn = distill_standalone(train, spec, cfg, s=100.0)
    assert all(t.shape[0] == 5 for t in syn.buckets.values())  # 500 / s=100
    distilled = syn.export(2)
    student = fit_model(spec, distilled, steps=150, lr=0.2, batch_size=len(distilled), seed=12)
    acc_syn = accuracy_report(student, spec, test, set()).overall_accuracy()
    _verdict(2, "distillation utility", acc_syn >= 0.9 * acc_full,
             f"distilled {acc_syn:.3f} vs full {acc_full:.3f} (>= 90%)")


# ---------------------------------------------------------------- criterion 3


def _plain_fedavg_oracle(datasets, spec, cfg, master_seed):
    """Independent plain-FedAvg implementation (no distiller, no train_federated)."""
    from feddistill.data import ClassBatchSampler
    from feddistill.distill import sgd_step

    params = init_params(spec, InitDistribution(seed=derive_seed(master_seed, "global-init")))
    samplers = [ClassBatchSampler(d, make_rng(master_seed, "client", cid, "batches"))
                for cid, d in enumerate(datasets)]
    sizes = [len(d) for d in datasets]
    for _ in range(cfg.outer_steps):
        locals_ = []
        for cid, data in enumerate(datasets):
            theta = params.clone()
            for _ in range(cfg.inner_steps):
                grads, counts = {}, {}
                for c in samplers[cid].classes():
                    idx = samplers[cid].next_batch(c, cfg.real_batch_per_class)
                    batch = Tensor(data.samples[idx])
                    counts[c] = batch.shape[0]
                    grads[c] = class_gradient(theta, spec, batch, c)
                total = sum(counts.values())
                mean = [Tensor(sum(counts[c] * grads[c].arrays()[i] for c in grads) / total)
                        for i in range(len(theta))]
                sgd_step(theta, theta.like(mean), cfg.model_lr)
            locals_.append(theta)
        weights = [s / sum(sizes) for s in sizes]
        entries = []
        for i, (name, tensor, role) in enumerate(locals_[0]):
            acc = sum(np.float32(w) * m.tensors()[i].data for m, w in zip(locals_, weights))
            entries.append((name, Tensor(acc, requires_grad=True), role))
        from feddistill.tensor import ParamSet

        params = ParamSet(entries)
    return params


def test_c03_integrated_distillation_equivalence():
    """Distillation must not perturb the model path: disabled == plain FedAvg
    bitwise, and the trajectory is bitwise identical with matching enabled."""
    spec = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=2, hidden=(6,))
    data = synth_blobs(2, 80, (1, 2, 2), separation=6.0, seed=4)
    parts, _ = dirichlet_partition(data, 2, math.inf, seed=5)
    cfg = DistillConfig(outer_steps=3, inner_steps=3, real_batch_per_class=16, model_lr=0.05)

    off_clients = build_clients(parts, master_seed=9, scale_s=20, distill_enabled=False)
    model_off, _, _ = train_federated(off_clients, spec, cfg, master_seed=9,
                                      distill_enabled=False)
    oracle = _plain_fedavg_oracle(parts, spec, cfg, master_seed=9)
    plain_ok = np.array_equal(to_vector(model_off.params), to_vector(oracle))

    trajectory_ok = True
    for k in (1, 2, 3):
        cfg_k = DistillConfig(outer_steps=k, inner_steps=3, real_batch_per_class=16,
                              model_lr=0.05)
        on_k, _, _ = train_federated(build_clients(parts, master_seed=9, scale_s=20),
                                     spec, cfg_k, master_seed=9, distill_enabled=True)
        off_k, _, _ = train_federated(
            build_clients(parts, master_seed=9, scale_s=20, distill_enabled=False),
            spec, cfg_k, master_seed=9, distill_enabled=False)
        trajectory_ok &= np.array_equal(to_vector(on_k.params), to_vector(off_k.params))
    _verdict(3, "integrated distillation equivalence", plain_ok and trajectory_ok,
             f"plain-FedAvg bitwise {plain_ok}, trajectory bitwise {trajectory_ok}")


# ------------------------------------------------------- criteria 4 and 8 (shared runs)


C48_SPEC = ArchSpec(kind="mlp", input_shape=(1, 4, 4), class_count=3, hidden=(16,))
C48_TARGET = 1


def _single_request_run(seed: int) -> dict:
    train, test = _split_blobs(3, 300, 100, (1, 4, 4), 10.0, seed=seed)
    parts, _ = dirichlet_partition(train, 4, math.inf, seed=seed + 1)
    clients = build_clients(parts, master_seed=seed + 2, scale_s=100.0)
    cfg = DistillConfig(outer_steps=25, inner_steps=5, real_batch_per_class=64,
                        model_lr=0.1, seed=seed + 2)
    model, _, _ = train_federated(clients, C48_SPEC, cfg, master_seed=seed + 2)

    member = np.concatenate([c.data.samples[c.data.labels != C48_TARGET] for c in clients])
    member_y = np.concatenate([c.data.labels[c.data.labels != C48_TARGET] for c in clients])
    forget = np.concatenate([c.data.samples[c.data.labels == C48_TARGET] for c in clients])
    rng = np.random.Generator(np.random.PCG64(7))
    mi = np.sort(rng.choice(len(member), 200, replace=False))
    fi = np.sort(rng.choice(len(forget), 200, replace=False))
    member_pool = LabeledDataset(member[mi], member_y[mi], 3)
    forget_pool = LabeledDataset(forget[fi], np.full(200, C48_TARGET, np.int64), 3)
    nonmember_pool = test.without_classes({C48_TARGET})

    def mia(params):
        return mia_attack(params, C48_SPEC, member_pool, nonmember_pool, forget_pool,
                          MIAConfig(split_seed=seed)).forget_member_rate

    pre = accuracy_report(model.params, C48_SPEC, test, {C48_TARGET})
    mia_pre = mia(model.params)
    engine = UnlearnEngine(clients, C48_SPEC, master_seed=seed + 2)
    out, costs = engine.execute_request(model, UnlearningRequest(
        targets=[{"class": C48_TARGET}], unlearn_rounds=1, recovery_rounds=2,
        sga_lr=0.1, recovery_lr=0.1, mix_per_class=10))
    post = accuracy_report(out.params, C48_SPEC, test, {C48_TARGET})
    mia_post = mia(out.params)
    re_model, _, _ = retrain_baseline(clients, {C48_TARGET}, set(), C48_SPEC, cfg,
                                      master_seed=seed + 2)
    re_acc = accuracy_report(re_model.params, C48_SPEC, test, {C48_TARGET})
    mia_re = mia(re_model.params)
    return {
        "pre_f": pre.f_set_accuracy(), "post_f": post.f_set_accuracy(),
        "post_r": post.r_set_accuracy(), "retrain_r": re_acc.r_set_accuracy(),
        "mia_pre": mia_pre, "mia_post": mia_post, "mia_retrain": mia_re,
        "costs": costs,
    }


@pytest.fixture(scope="module")
def single_request_runs():
    return [_single_request_run(seed) for seed in (0, 10, 20, 30, 40)]


def test_c04_unlearning_effectiveness(single_request_runs):
    """1 ascent + 2 recovery rounds: mean F-Set < 5%, mean R-Set within 10
    points of the retrain oracle, and forgetting strictly reduces F-Set."""
    runs = single_request_runs
    mean_f = float(np.mean([r["post_f"] for r in runs]))
    mean_pre_f = float(np.mean([r["pre_f"] for r in runs]))
    mean_r = float(np.mean([r["post_r"] for r in runs]))
    mean_retrain_r = float(np.mean([r["retrain_r"] for r in runs]))
    gap = abs(mean_r - mean_retrain_r)
    ok = mean_f < 0.05 and gap <= 0.10 and mean_f < mean_pre_f
    _verdict(4, "unlearning effectiveness", ok,
             f"F-Set {mean_f:.3f} < 0.05, R-Set gap {gap:.3f} <= 0.10, "
             f"monotone {mean_f:.3f} < {mean_pre_f:.3f}, 5 seeds")


def test_c08_mia_sanity(single_request_runs):
    """Forget-pool member rate: after <= before, and within 15 points of the
    retrained model's rate."""
    runs = single_request_runs
    before = float(np.mean([r["mia_pre"] for r in runs]))
    after = float(np.mean([r["mia_post"] for r in runs]))
    retrain = float(np.mean([r["mia_retrain"] for r in runs]))
    ok = after <= before and abs(after - retrain) <= 0.15
    _verdict(8, "membership-inference sanity", ok,
             f"after {after:.3f} <= before {before:.3f}, |after - retrain| "
             f"{abs(after - retrain):.3f} <= 0.15, 5 seeds")


# ---------------------------------------------------------------- criterion 5


def test_c05_efficiency_ordering():
    """Counter arithmetic: distilled request <= original-data request / (s/2);
    wall time: distilled < original-data ascent < full retraining."""
    s = 100.0
    spec = ArchSpec(kind="mlp", input_shape=(1, 4, 4), class_count=3, hidden=(16,))
    train, test = _split_blobs(3, 1500, 100, (1, 4, 4), 10.0, seed=6)
    parts, _ = dirichlet_partition(train, 2, math.inf, seed=7)
    clients = build_clients(parts, master_seed=8, scale_s=s)
    cfg = DistillConfig(outer_steps=20, inner_steps=5, real_batch_per_class=256,
                        model_lr=0.1, seed=8)
    model, _, _ = train_federated(clients, spec, cfg, master_seed=8)

    engine = UnlearnEngine(clients, spec, master_seed=8)
    quick_model, quick_costs = engine.execute_request(model, UnlearningRequest(
        targets=[{"class": 1}], unlearn_rounds=1, recovery_rounds=2,
        sga_lr=0.1, recovery_lr=0.1, mix_per_class=10))
    quick_samples = sum(c.samples for c in quick_costs)
    quick_wall = sum(c.wall_ms for c in quick_costs)

    sga_model, sga_costs = sga_or_baseline(model, clients, {1}, set(), master_seed=8,
                                           unlearn_rounds=2, recovery_rounds=2,
                                           sga_lr=0.1, recovery_lr=0.1)
    sga_samples = sum(c.samples for c in sga_costs)
    sga_wall = sum(c.wall_ms for c in sga_costs)

    _, _, retrain_cost = retrain_baseline(clients, {1}, set(), spec, cfg, master_seed=8)
    retrain_wall = retrain_cost.wall_ms

    counter_ok = quick_samples <= sga_samples / (s / 2)
    wall_ok = quick_wall < sga_wall < retrain_wall
    _verdict(5, "efficiency ordering", counter_ok and wall_ok,
             f"samples {quick_samples} <= {sga_samples}/{s / 2:.0f}={sga_samples / (s / 2):.0f}; "
             f"wall {quick_wall:.0f}ms < {sga_wall:.0f}ms < {retrain_wall:.0f}ms")


# ---------------------------------------------------------------- criterion 6


def test_c06_sequential_unlearning():
    """Three classes unlearned in sequence stay < 5% through every later
    recovery stage; untouched classes end within 10 points of their
    pre-sequence accuracy."""
    spec = ArchSpec(kind="mlp", input_shape=(1, 4, 4), class_count=5, hidden=(32,))
    order = (1, 3, 0)
    all_ok, details = True, []
    for seed in (0, 10, 20):
        train, test = _split_blobs(5, 300, 100, (1, 4, 4), 12.0, seed=seed)
        parts, _ = dirichlet_partition(train, 4, math.inf, seed=seed + 1)
        clients = build_clients(parts, master_seed=seed + 2, scale_s=25.0)
        cfg = DistillConfig(outer_steps=25, inner_steps=5, real_batch_per_class=64,
                            model_lr=0.2, seed=seed + 2)
        model, _, _ = train_federated(clients, spec, cfg, master_seed=seed + 2)
        pre = per_class_accuracy(accuracy_report(model.params, spec, test, set()))

        engine = UnlearnEngine(clients, spec, master_seed=seed + 2, pass_batch_size=16)
        unlearned: list[int] = []
        forgotten_ok = True
        for target in order:
            model, _ = engine.execute_request(model, UnlearningRequest(
                targets=[{"class": target}], unlearn_rounds=3, recovery_rounds=20,
                sga_lr=0.1, recovery_lr=0.15, mix_per_class=10))
            unlearned.append(target)
            acc = per_class_accuracy(accuracy_report(model.params, spec, test, set(unlearned)))
            if any(acc[c] >= 0.05 for c in unlearned):
                forgotten_ok = False
        kept = [c for c in range(5) if c not in unlearned]
        drift = max(abs(acc[c] - pre[c]) for c in kept)
        all_ok &= forgotten_ok and drift <= 0.10
        details.append(f"seed {seed}: forgotten<5% {forgotten_ok}, kept drift {drift:.2f}")
    _verdict(6, "sequential unlearning", all_ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 7


def test_c07_fine_tuning_trend():
    """Mean post-recovery R-Set with 50 refinement passes >= without, and the
    real-gradient step counters obey steps(F) = steps(0) + F*T*classes."""
    spec = ArchSpec(kind="mlp", input_shape=(1, 4, 4), class_count=3, hidden=(16,))
    target = 0

    def run(seed, steps_f):
        train, test = _split_blobs(3, 300, 100, (1, 4, 4), 4.0, seed=seed)
        parts, _ = dirichlet_partition(train, 2, math.inf, seed=seed + 1)
        clients = build_clients(parts, master_seed=seed + 2, scale_s=500.0)
        cfg = DistillConfig(outer_steps=20, inner_steps=5, real_batch_per_class=128,
                            model_lr=0.1, syn_lr=0.1, seed=seed + 2)
        model, _, _ = train_federated(clients, spec, cfg, master_seed=seed + 2)
        counters_ok = True
        for client in clients:
            before = client.syn.real_grad_steps
            fine_tune(client.syn, client.data, spec, steps_f, cfg)
            expected = before + steps_f * cfg.inner_steps * len(client.held_classes())
            counters_ok &= client.syn.real_grad_steps == expected
            counters_ok &= len(client.held_classes()) == 3  # IID: all classes held
        engine = UnlearnEngine(clients, spec, master_seed=seed + 2, pass_batch_size=16)
        out, _ = engine.execute_request(model, UnlearningRequest(
            targets=[{"class": target}], unlearn_rounds=1, recovery_rounds=15,
            sga_lr=0.1, recovery_lr=0.15, mix_per_class=0))
        r_acc = accuracy_report(out.params, spec, test, {target}).r_set_accuracy()
        return r_acc, counters_ok

    seeds = (0, 10, 20, 30, 40)
    base = [run(seed, 0) for seed in seeds]
    tuned = [run(seed, 50) for seed in seeds]
    mean_base = float(np.mean([r for r, _ in base]))
    mean_tuned = float(np.mean([r for r, _ in tuned]))
    counters_ok = all(ok for _, ok in base + tuned)
    ok = mean_tuned >= mean_base and counters_ok
    _verdict(7, "fine-tuning trend", ok,
             f"R-Set F=50 {mean_tuned:.3f} >= F=0 {mean_base:.3f}; "
             f"counters exact {counters_ok}, 5 seeds")


# ---------------------------------------------------------------- criterion 9


def test_c09_determinism_and_persistence(tmp_path):
    """Same config+seed twice: byte-identical reports and checkpoints; every
    checkpoint survives a save/load/save cycle bit-exactly."""
    from feddistill.cli import main

    raw = {
        "seed": 17,
        "dataset": {"kind": "blobs", "classes": 3, "train_per_class": 120,
                    "test_per_class": 40, "dim": [1, 2, 2], "separation": 10.0},
        "clients": 2,
        "alpha": 0.5,
        "arch": {"kind": "mlp", "hidden": [8]},
        "distill": {"enabled": True, "rounds": 5, "local_steps": 3, "syn_lr": 0.1,
                    "model_lr": 0.1, "real_batch_per_class": 16, "scale_s": 30.0},
        "unlearn": {"requests": ["unlearn class=2"], "sga_lr": 0.1, "recovery_lr": 0.1,
                    "mix_per_class": 4},
        "baselines": {"retrain": True, "sga_original": True},
        "mia": {"enabled": True, "max_pool": 64},
    }
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        raw["output_dir"] = str(out_dir)
        config = tmp_path / f"config_{tag}.json"
        config.write_text(json.dumps(raw))
        assert main(["run", str(config)]) == 0
        outs.append(out_dir)

    compared = []
    identical = True
    for name in sorted(p.name for p in outs[0].iterdir()):
        if name == "rounds.csv" or name.endswith(".csv"):
            continue  # CSVs carry wall-clock timings
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        identical &= a == b
        compared.append(name)
    assert any(n.startswith("report_") for n in compared)

    spec = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=3, hidden=(8,))
    params = load_model(outs[0] / "model.qdmd", spec)
    resaved = tmp_path / "resaved.qdmd"
    save_model(resaved, params, spec)
    model_roundtrip = resaved.read_bytes() == (outs[0] / "model.qdmd").read_bytes()

    syn = load_synthetic(outs[0] / "synthetic_client0.qdsy", spec)
    resaved_syn = tmp_path / "resaved.qdsy"
    save_synthetic(resaved_syn, syn)
    syn_roundtrip = resaved_syn.read_bytes() == (outs[0] / "synthetic_client0.qdsy").read_bytes()

    ok = identical and model_roundtrip and syn_roundtrip
    _verdict(9, "determinism and persistence", ok,
             f"{len(compared)} artifacts byte-identical across runs; "
             f"checkpoint round-trips exact")


# ---------------------------------------------------------------- criterion 10


def test_c10_partition_properties():
    """The partitioner conserves the sample multiset exactly for every tested
    (N, alpha, seed); the IID split balances per-class counts within one."""

    def multiset(ds):
        return sorted((ds.samples[i].tobytes(), int(ds.labels[i])) for i in range(len(ds)))

    conserve_ok, balance_ok = True, True
    cases = [(1, 0.5), (3, 0.1), (5, 1.0), (4, math.inf), (7, 0.3), (2, math.inf)]
    for n_clients, alpha in cases:
        for seed in (0, 1):
            data = synth_blobs(4, 37, (1, 2, 2), separation=5.0, seed=seed)
            parts, plan = dirichlet_partition(data, n_clients, alpha, seed=seed + 3)
            combined = []
            for p in parts:
                combined.extend(multiset(p))
            conserve_ok &= sorted(combined) == multiset(data)
            if alpha == math.inf:
                for c in range(4):
                    col = plan.counts[:, c]
                    balance_ok &= int(col.max() - col.min()) <= 1
    _verdict(10, "partition properties", conserve_ok and balance_ok,
             f"{len(cases) * 2} (N, alpha, seed) cases conserve exactly; "
             f"IID within +/-1")
