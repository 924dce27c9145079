from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddistill.checkpoint import load_model, load_synthetic, save_model, save_synthetic
from feddistill.data import LabeledDataset, dirichlet_partition, synth_blobs
from feddistill.distill import DistillConfig, init_synthetic
from feddistill.errors import DataFormatError, ShapeError
from feddistill import models, tensor
from feddistill.evaluate import (
    ExperimentReport,
    MIAConfig,
    StageRecord,
    _fit_threshold,
    accuracy_report,
    mia_attack,
    per_sample_losses,
    retrain_baseline,
    sga_or_baseline,
)
from feddistill.federation import build_clients, train_federated
from feddistill.models import (
    EVAL_CHUNK_BYTES,
    ArchSpec,
    InitDistribution,
    _chunk_bounds,
    _chunked_logits,
    _eval_rows,
    forward,
    init_params,
    predict,
)
from feddistill.tensor import Tensor, no_grad
from helpers import fit_model, mia_threshold_reference, per_class_accuracy

SPEC = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=3, hidden=(8,))


def _blob_world(seed=0, classes=3, per_class=80, test_per_class=30, n_clients=2):
    full = synth_blobs(classes, per_class + test_per_class, (1, 2, 2), separation=8.0, seed=seed)
    train_idx, test_idx = [], []
    for c in range(classes):
        cls = np.nonzero(full.labels == c)[0]
        train_idx.extend(cls[:per_class])
        test_idx.extend(cls[per_class:])
    train = full.subset(np.array(train_idx), source="blobs/train")
    test = full.subset(np.array(test_idx), source="blobs/test")
    parts, _ = dirichlet_partition(train, n_clients, math.inf, seed=seed + 1)
    clients = build_clients(parts, master_seed=seed + 2, scale_s=10)
    return train, test, clients


# ---- accuracy report ---------------------------------------------------------


def test_accuracy_recomposes_from_counts():
    train, test, clients = _blob_world()
    params = init_params(SPEC, InitDistribution(seed=1))
    rec = accuracy_report(params, SPEC, test, forget_classes={1})
    weighted = sum(a * t for a, t in zip(per_class_accuracy(rec), rec.per_class_total)
                   if t)
    assert abs(weighted / len(test) - rec.overall_accuracy()) < 1e-9


def test_f_and_r_cover_test_set_exactly_once():
    train, test, clients = _blob_world()
    params = init_params(SPEC, InitDistribution(seed=2))
    rec = accuracy_report(params, SPEC, test, forget_classes={0, 2})
    f_total = sum(rec.per_class_total[c] for c in rec.forget_classes)
    r_total = sum(rec.per_class_total[c] for c in range(3) if c not in rec.forget_classes)
    assert f_total + r_total == len(test)


def test_constant_model_accuracy_is_prevalence():
    train, test, clients = _blob_world()
    params = init_params(SPEC, InitDistribution(seed=3))
    for name in ("layer0.weight", "layer0.bias", "head.weight"):
        params.get(name).data[:] = 0.0
    bias = params.get("head.bias")
    bias.data[:] = 0.0
    bias.data[2] = 5.0  # constant argmax = class 2
    rec = accuracy_report(params, SPEC, test, forget_classes=set())
    prevalence = (test.labels == 2).mean()
    assert abs(rec.overall_accuracy() - prevalence) < 1e-12


def test_per_sample_losses_match_direct_formula():
    train, test, clients = _blob_world()
    params = init_params(SPEC, InitDistribution(seed=4), dtype=np.float64)
    losses = per_sample_losses(params, SPEC, test.samples[:7], test.labels[:7])
    from feddistill.models import cross_entropy, forward

    for i in range(7):
        x = Tensor(test.samples[i:i + 1], dtype=np.float64)
        direct = cross_entropy(forward(params, SPEC, x), test.labels[i:i + 1]).item()
        assert abs(losses[i] - direct) < 1e-9


# ---- chunked, taped evaluation ---------------------------------------------------

# the MLP of blobs_small, the convnet of the fl_conv world, the 3-block
# convnet of the [1,8,8] digest world, and the default width (128 filters) on
# [1,28,28], where one sample's patch matrix alone exceeds EVAL_CHUNK_BYTES
EVAL_SPECS = {
    "mlp": dict(kind="mlp", input_shape=(1, 4, 4), class_count=3, hidden=(16,)),
    "fl_conv": dict(kind="convnet", input_shape=(1, 16, 16), class_count=10, blocks=2,
                    filters=16),
    "conv_8x8": dict(kind="convnet", input_shape=(1, 8, 8), class_count=4, blocks=3, filters=4),
    "width_128": dict(kind="convnet", input_shape=(1, 28, 28), class_count=10, blocks=2,
                      filters=128),
}


def _evaluation(params, spec, samples, labels):
    return (_chunked_logits(params, spec, samples), predict(params, spec, samples),
            per_sample_losses(params, spec, samples, labels))


def test_a_one_row_remainder_joins_the_chunk_before():
    assert _chunk_bounds(101, 25) == [(0, 25), (25, 50), (50, 75), (75, 101)]
    assert _chunk_bounds(102, 25) == [(0, 25), (25, 50), (50, 75), (75, 100), (100, 102)]
    assert _chunk_bounds(1, 25) == [(0, 1)]
    assert _chunk_bounds(25, 25) == [(0, 25)]
    assert _chunk_bounds(0, 25) == []


@pytest.mark.parametrize("name", list(EVAL_SPECS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunk_rows_follow_the_largest_forward_array(name, dtype, monkeypatch):
    spec = ArchSpec(**EVAL_SPECS[name])
    params = init_params(spec, InitDistribution(seed=1), dtype=dtype)
    sizes = []
    node = tensor._node

    def measured(data, parents, vjp):
        sizes.append(data.nbytes)
        return node(data, parents, vjp)

    with monkeypatch.context() as patch, no_grad():
        patch.setattr(tensor, "_node", measured)
        forward(params, spec, Tensor(np.zeros((1,) + spec.input_shape), dtype=dtype))
    rows = _eval_rows(spec, np.dtype(dtype).itemsize)
    assert rows == max(2, EVAL_CHUNK_BYTES // max(sizes))
    assert rows == 2 or rows * max(sizes) <= EVAL_CHUNK_BYTES < (rows + 1) * max(sizes)
    assert (rows == 2) == (name == "width_128")


# Chunk sizes checked against a reference chunking of 101 samples.  At the
# default width the 6,272-wide head takes another BLAS kernel from about 16
# rows on, so there the rule's 2-row chunks are the reference and only chunks
# of up to 12 rows are claimed to match them.
CHUNKINGS = {
    "mlp": (101, (2, 3, 7, 25, 64, 100)),
    "fl_conv": (101, (2, 3, 7, 25, 64, 100)),
    "conv_8x8": (101, (2, 3, 7, 25, 64, 100)),
    "width_128": (2, (3, 7, 12)),
}


@pytest.mark.parametrize("name", list(EVAL_SPECS))
def test_evaluation_is_bitwise_invariant_to_the_chunk_size(name, monkeypatch):
    spec = ArchSpec(**EVAL_SPECS[name])
    params = init_params(spec, InitDistribution(seed=3))
    rng = np.random.default_rng(4)
    n = 101
    samples = rng.random((n,) + spec.input_shape)
    labels = rng.integers(0, spec.class_count, size=n)

    def chunked(rows):
        monkeypatch.setattr(models, "_eval_rows", lambda spec, itemsize: rows)
        return _evaluation(params, spec, samples, labels)

    reference, sizes = CHUNKINGS[name]
    expected = chunked(reference)
    # remainders of 1 (joined to the chunk before), 2, 3, 1, 37, 1 and 5; a chunk
    # of one row alone is left out, as it rounds differently (see _chunk_bounds)
    for rows in sizes:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(chunked(rows), expected)), rows


@pytest.mark.parametrize("name", list(EVAL_SPECS))
def test_replayed_evaluation_equals_the_interpreter(name):
    spec = ArchSpec(**EVAL_SPECS[name])
    rows = _eval_rows(spec, 4)
    n = 2 * rows + 3                        # two full chunks and three rows more
    rng = np.random.default_rng(6)
    samples = rng.random((n,) + spec.input_shape)
    labels = rng.integers(0, spec.class_count, size=n)
    bounds = _chunk_bounds(n, rows)
    for seed in (1, 2):
        params = init_params(spec, InitDistribution(seed=seed))
        with no_grad():
            reference = np.concatenate([
                forward(params, spec, Tensor(samples[a:b], dtype=np.float32)).data
                for a, b in bounds])
        logits, preds, losses = _evaluation(params, spec, samples, labels)
        assert logits.tobytes() == reference.tobytes()
        assert np.array_equal(preds, reference.argmax(axis=1))
        tapes = dict(spec.tapes)
        assert {key[0] for key in tapes} == {"forward"}
        assert sorted(key[2][0][0][0] for key in tapes) == sorted([3, rows])   # rows per tape
        again = _evaluation(params, spec, samples, labels)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(again, (logits, preds, losses)))
        assert spec.tapes == tapes
    # 2 parameter sets x 2 x 3 evaluations x 3 chunks, one recording per chunk shape
    assert sum(tape.replays for tape in spec.tapes.values()) == 2 * 6 * len(bounds) - 2


# ---- membership inference -------------------------------------------------------


@st.composite
def _loss_pools(draw):
    """Fit halves of member and non-member losses: continuous values, or a few
    values with many ties, with an occasional inf or NaN."""
    tied = draw(st.booleans())
    values = st.sampled_from([0.0, 0.125, 0.5, 0.5 + 2 ** -40, 1.0, 3.0]) if tied else \
        st.floats(0.0, 20.0, allow_nan=False)
    values = st.one_of(values, st.sampled_from([np.inf, np.nan])) if draw(st.booleans()) \
        else values
    return tuple(np.array(draw(st.lists(values, min_size=2, max_size=40)), dtype=np.float64)
                 for _ in range(2))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_loss_pools())
def test_mia_sorted_sweep_equals_the_scan_bit_for_bit(pools):
    mem_fit, non_fit = pools
    with np.errstate(invalid="ignore"):                # inf - inf among the candidates
        swept, reference = _fit_threshold(mem_fit, non_fit), mia_threshold_reference(mem_fit,
                                                                                      non_fit)
    assert np.array(swept).tobytes() == np.array(reference).tobytes()


# ---- membership inference -------------------------------------------------------


def test_mia_indistinguishable_pools_near_chance():
    # untrained model, all pools drawn from one distribution: rate ~ 50%
    blob = synth_blobs(2, 450, (1, 2, 2), separation=6.0, seed=9)
    order = np.random.Generator(np.random.PCG64(0)).permutation(len(blob))
    member = blob.subset(order[0:300])
    nonmember = blob.subset(order[300:600])
    forget = blob.subset(order[600:900])
    params = init_params(SPEC_2C, InitDistribution(seed=5))
    rates = []
    for split_seed in range(20):
        res = mia_attack(params, SPEC_2C, member, nonmember, forget,
                         MIAConfig(split_seed=split_seed))
        rates.append(res.forget_member_rate)
    assert abs(float(np.mean(rates)) - 0.5) < 0.10


SPEC_2C = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=2, hidden=(8,))


def test_mia_threshold_split_stability():
    train, test, clients = _blob_world(seed=3)
    params = fit_model(SPEC, train, steps=60, lr=0.2, batch_size=32, seed=11)
    res = mia_attack(params, SPEC, train.subset(np.arange(0, 100)),
                     test.subset(np.arange(0, 80)), train.subset(np.arange(100, 160)),
                     MIAConfig(split_seed=0))
    assert 0.0 <= res.forget_member_rate <= 1.0
    assert abs(res.fit_balanced_accuracy - res.eval_balanced_accuracy) <= 0.15


def test_mia_rejects_degenerate_pools():
    params = init_params(SPEC, InitDistribution(seed=6))
    tiny = synth_blobs(3, 1, (1, 2, 2), separation=1.0, seed=1)
    with pytest.raises(ShapeError):
        mia_attack(params, SPEC, tiny, tiny, tiny, MIAConfig())


# ---- baselines ----------------------------------------------------------------


def test_retrain_with_empty_forget_equals_plain_training():
    train, test, clients = _blob_world(seed=5)
    cfg = DistillConfig(outer_steps=2, inner_steps=2, real_batch_per_class=16)
    model, _, cost = retrain_baseline(clients, set(), set(), SPEC, cfg, master_seed=7)

    plain_clients = build_clients([c.data for c in clients], master_seed=7, scale_s=10,
                                  distill_enabled=False)
    expected, _, _ = train_federated(plain_clients, SPEC, cfg, master_seed=7,
                                     distill_enabled=False)
    np.testing.assert_array_equal(model.params.to_vector(), expected.params.to_vector())


def test_retrain_excludes_forget_class_samples_exactly():
    train, test, clients = _blob_world(seed=6)
    # one inner step per round with a huge batch touches every remaining sample once
    cfg = DistillConfig(outer_steps=1, inner_steps=1, real_batch_per_class=10_000)
    model, records, cost = retrain_baseline(clients, {1}, set(), SPEC, cfg, master_seed=8)
    remaining = sum(len(c.data.without_classes({1})) for c in clients)
    assert cost.samples == remaining
    assert cost.rounds == 1


def test_retrain_errors_when_nothing_left():
    train, test, clients = _blob_world(seed=7)
    with pytest.raises(ShapeError):
        retrain_baseline(clients, {0, 1, 2}, set(), SPEC, DistillConfig(), master_seed=9)


def test_sga_or_baseline_counters_scale_with_original_data():
    train, test, clients = _blob_world(seed=8)
    cfg = DistillConfig(outer_steps=3, inner_steps=2, real_batch_per_class=16, model_lr=0.1)
    model, _, _ = train_federated(clients, SPEC, cfg, master_seed=10)
    out, costs = sga_or_baseline(model, clients, {1}, set(), master_seed=10,
                                 unlearn_rounds=2, recovery_rounds=2)
    forget_n = sum((c.data.labels == 1).sum() for c in clients)
    keep_n = sum((c.data.labels != 1).sum() for c in clients)
    assert costs[0].samples == 2 * forget_n
    assert costs[1].samples == 2 * keep_n
    assert (out.params.to_vector() != model.params.to_vector()).any()


def test_fit_model_deterministic():
    train, test, clients = _blob_world(seed=9)
    a = fit_model(SPEC, train, steps=12, lr=0.1, batch_size=16, seed=13)
    b = fit_model(SPEC, train, steps=12, lr=0.1, batch_size=16, seed=13)
    np.testing.assert_array_equal(a.to_vector(), b.to_vector())


# ---- report serialization --------------------------------------------------------


def test_report_json_deterministic_and_csv_written(tmp_path):
    rec = StageRecord(stage="train", rounds=3, samples=120, wall_ms=17.5,
                      per_class_correct=[8, 9], per_class_total=[10, 10],
                      forget_classes=[1])
    report = ExperimentReport(method="distilled", seed=5, stages=[rec])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    report.write_json(p1)
    rec.wall_ms = 99.0  # timing must not affect the JSON bytes
    report.write_json(p2)
    assert p1.read_bytes() == p2.read_bytes()
    csv_path = tmp_path / "report.csv"
    report.write_csv(csv_path)
    text = csv_path.read_text()
    assert "distilled" in text and "99.000" in text


# ---- checkpoints ---------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_checkpoint_roundtrip_bitwise(tmp_path, dtype):
    params = init_params(SPEC, InitDistribution(seed=20), dtype=dtype)
    path = tmp_path / "model.qdmd"
    save_model(path, params, SPEC)
    loaded = load_model(path, SPEC)
    assert loaded.names == params.names and loaded.roles == params.roles
    for a, b in zip(params.tensors(), loaded.tensors()):
        assert a.data.dtype == b.data.dtype
        np.testing.assert_array_equal(a.data, b.data)


def test_model_checkpoint_wrong_magic(tmp_path):
    path = tmp_path / "bad.qdmd"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(DataFormatError, match="QDMD"):
        load_model(path, SPEC)


def test_model_checkpoint_arch_mismatch(tmp_path):
    params = init_params(SPEC, InitDistribution(seed=21))
    path = tmp_path / "model.qdmd"
    save_model(path, params, SPEC)
    other = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=3, hidden=(9,))
    with pytest.raises(DataFormatError, match="different architecture"):
        load_model(path, other)


def test_synthetic_checkpoint_roundtrip(tmp_path):
    data = synth_blobs(3, 40, (1, 2, 2), separation=5.0, seed=22)
    syn = init_synthetic(data, s=30, seed=23)
    path = tmp_path / "syn.qdsy"
    save_synthetic(path, syn)
    loaded = load_synthetic(path)
    assert loaded.classes() == syn.classes()
    for c in syn.buckets:
        assert loaded.buckets[c].shape == syn.buckets[c].shape
        np.testing.assert_array_equal(loaded.buckets[c].data, syn.buckets[c].data)


def test_synthetic_checkpoint_preserves_singleton_buckets(tmp_path):
    data = synth_blobs(3, 5, (1, 2, 2), separation=5.0, seed=24)
    syn = init_synthetic(data, s=100, seed=25)  # every bucket rounds up to 1
    assert all(t.shape[0] == 1 for t in syn.buckets.values())
    path = tmp_path / "syn.qdsy"
    save_synthetic(path, syn)
    loaded = load_synthetic(path)
    assert [loaded.buckets[c].shape[0] for c in loaded.classes()] == [1, 1, 1]


def test_synthetic_checkpoint_wrong_magic(tmp_path):
    path = tmp_path / "bad.qdsy"
    path.write_bytes(b"QDMD" + bytes(32))
    with pytest.raises(DataFormatError, match="QDSY"):
        load_synthetic(path)



def _failing_writes():
    """(artifact name, good write, write that fails after writing some bytes)."""
    from feddistill import checkpoint
    from feddistill.federation import RoundRecord, write_round_csv

    params = init_params(SPEC, InitDistribution(seed=1))

    def save_model_failing(path, monkeypatch):
        calls = []

        def le_dtype(dtype):
            calls.append(dtype)
            if len(calls) == 2:
                raise DataFormatError("injected")
            return 4, np.dtype("<f4")

        monkeypatch.setattr(checkpoint, "_le_dtype", le_dtype)
        save_model(path, params, SPEC)

    def syn_set():
        rng = np.random.default_rng(0)
        return init_synthetic(LabeledDataset(rng.random((4, 1, 2, 2), dtype=np.float32),
                                             np.array([0, 0, 1, 1]), 3), s=2, seed=1)

    def save_synthetic_failing(path, monkeypatch):
        syn = syn_set()
        syn.buckets[-1] = syn.buckets.pop(1)          # struct.pack rejects a negative class
        save_synthetic(path, syn)

    def report(rate):
        rep = ExperimentReport(method="m", seed=1)
        rep.stages.append(StageRecord(stage="train", per_class_correct=[1, 2, 3],
                                      per_class_total=[3, 3, 3], mia_forget_rate=rate))
        return rep

    def rounds(weights):
        return [RoundRecord(round=0, client_ids=[0], local_steps=[1], weights=[1.0],
                            wall_ms=1.0, samples=4),
                RoundRecord(round=1, client_ids=[0], local_steps=[1], weights=weights,
                            wall_ms=1.0, samples=4)]

    return [
        ("model.qdmd", lambda path: save_model(path, params, SPEC), save_model_failing),
        ("syn.qdsy", lambda path: save_synthetic(path, syn_set()), save_synthetic_failing),
        ("report.json", lambda path: report(0.5).write_json(path),
         lambda path, mp: report(object()).write_json(path)),
        ("report.csv", lambda path: report(0.5).write_csv(path),
         lambda path, mp: report("x").write_csv(path)),
        ("rounds.csv", lambda path: write_round_csv(path, rounds([1.0])),
         lambda path, mp: write_round_csv(path, rounds(["x"]))),
    ]


@pytest.mark.parametrize("case", range(5))
def test_a_failed_write_keeps_the_previous_artifact(tmp_path, monkeypatch, case):
    name, write, write_failing = _failing_writes()[case]
    path = tmp_path / name
    write(path)
    before = path.read_bytes()
    with pytest.raises(Exception):
        write_failing(path, monkeypatch)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
