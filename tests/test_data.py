from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from feddistill.data import (
    ClassBatchSampler,
    LabeledDataset,
    class_index,
    dirichlet_partition,
    load_idx,
    synth_blobs,
)
from feddistill.errors import DataFormatError
from feddistill.seeds import make_rng
from helpers import sample_shape


def _write_idx(tmp_path, images: np.ndarray, labels: np.ndarray,
               image_magic=0x00000803, label_magic=0x00000801, truncate=0):
    n, h, w = images.shape
    img_path = tmp_path / "img.idx"
    lbl_path = tmp_path / "lbl.idx"
    blob = struct.pack(">IIII", image_magic, n, h, w) + images.astype(np.uint8).tobytes()
    if truncate:
        blob = blob[:-truncate]
    img_path.write_bytes(blob)
    lbl_path.write_bytes(struct.pack(">II", label_magic, n) + labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


def test_load_idx_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    images = rng.integers(0, 256, size=(12, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=12, dtype=np.uint8)
    img, lbl = _write_idx(tmp_path, images, labels)
    ds = load_idx(img, lbl)
    assert len(ds) == 12 and sample_shape(ds) == (1, 5, 5)
    assert ds.samples.max() <= 1.0 and ds.samples.min() >= 0.0
    np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))
    np.testing.assert_allclose(ds.samples[0, 0], images[0] / 255.0, rtol=1e-6)


def test_load_idx_bad_magic(tmp_path):
    images = np.zeros((2, 3, 3), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    img, lbl = _write_idx(tmp_path, images, labels, image_magic=0x12345678)
    with pytest.raises(DataFormatError, match="magic"):
        load_idx(img, lbl)


def test_load_idx_truncated_reports_missing_bytes(tmp_path):
    images = np.zeros((4, 3, 3), dtype=np.uint8)
    labels = np.zeros(4, dtype=np.uint8)
    img, lbl = _write_idx(tmp_path, images, labels, truncate=5)
    with pytest.raises(DataFormatError, match="missing 5 bytes"):
        load_idx(img, lbl)


def test_load_idx_label_out_of_range(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.array([0, 5, 10], dtype=np.uint8)
    img, lbl = _write_idx(tmp_path, images, labels)
    with pytest.raises(DataFormatError, match="label value 10"):
        load_idx(img, lbl)


def _lstsq_probe_accuracy(ds: LabeledDataset) -> float:
    # independent oracle: closed-form least-squares one-hot regression
    x = ds.samples.reshape(len(ds), -1).astype(np.float64)
    x = np.hstack([x, np.ones((len(ds), 1))])
    y = np.eye(ds.class_count)[ds.labels]
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    pred = (x @ coef).argmax(axis=1)
    return float((pred == ds.labels).mean())


def test_blobs_wide_separation_probe():
    ds = synth_blobs(2, 200, (1, 4, 4), separation=10.0, seed=7)
    assert _lstsq_probe_accuracy(ds) > 0.99


def test_blobs_zero_separation_probe_chance():
    ds = synth_blobs(4, 300, (1, 4, 4), separation=0.0, seed=8)
    acc = _lstsq_probe_accuracy(ds)
    assert abs(acc - 0.25) < 0.05


def test_blobs_deterministic():
    a = synth_blobs(3, 50, (1, 3, 3), separation=5.0, seed=11)
    b = synth_blobs(3, 50, (1, 3, 3), separation=5.0, seed=11)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.labels, b.labels)


def _multiset(ds: LabeledDataset):
    return sorted((ds.samples[i].tobytes(), int(ds.labels[i])) for i in range(len(ds)))


def test_partition_uniform_split_balanced():
    ds = synth_blobs(3, 91, (1, 2, 2), separation=4.0, seed=1)
    parts, plan = dirichlet_partition(ds, 4, math.inf, seed=3)
    assert plan.counts.sum() == len(ds)
    for c in range(3):
        col = plan.counts[:, c]
        assert col.max() - col.min() <= 1
    combined = []
    for p in parts:
        combined.extend(_multiset(p))
    assert sorted(combined) == _multiset(ds)


def test_partition_single_client_gets_everything():
    ds = synth_blobs(2, 30, (1, 2, 2), separation=4.0, seed=2)
    parts, plan = dirichlet_partition(ds, 1, 0.5, seed=4)
    assert len(parts) == 1 and len(parts[0]) == len(ds)


def test_partition_low_alpha_concentrates():
    ds = synth_blobs(5, 200, (1, 2, 2), separation=4.0, seed=5)
    parts, plan = dirichlet_partition(ds, 10, 0.1, seed=6)

    def concentration(counts: np.ndarray) -> float:
        shares = []
        for row in counts:
            if row.sum():
                shares.append(row.max() / row.sum())
        return float(np.mean(shares))

    assert concentration(plan.counts) > 0.5

    # independent re-implementation of the draw: gamma-based dirichlet and
    # cumulative-sum multinomial, fresh generator
    rng = np.random.Generator(np.random.PCG64(987))
    alt = np.zeros((10, 5), dtype=np.int64)
    for c in range(5):
        gams = rng.gamma(0.1, size=10)
        p = gams / gams.sum()
        draws = np.searchsorted(np.cumsum(p), rng.random(200))
        for client in draws:
            alt[min(client, 9), c] += 1
    assert concentration(alt) > 0.5


def test_partition_deterministic():
    ds = synth_blobs(4, 60, (1, 2, 2), separation=4.0, seed=9)
    parts1, plan1 = dirichlet_partition(ds, 5, 0.3, seed=10)
    parts2, plan2 = dirichlet_partition(ds, 5, 0.3, seed=10)
    np.testing.assert_array_equal(plan1.counts, plan2.counts)
    for a, b in zip(parts1, parts2):
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.labels, b.labels)


def test_partition_conserves_multiset_noniid():
    ds = synth_blobs(3, 47, (1, 2, 2), separation=4.0, seed=12)
    parts, plan = dirichlet_partition(ds, 3, 0.2, seed=13)
    combined = []
    for p in parts:
        combined.extend(_multiset(p))
    assert sorted(combined) == _multiset(ds)
    assert plan.counts.sum(axis=0).tolist() == [47, 47, 47]


def test_class_index_partitions_everything():
    ds = synth_blobs(4, 25, (1, 2, 2), separation=3.0, seed=14)
    index = class_index(ds)
    flat = np.sort(np.concatenate(index))
    np.testing.assert_array_equal(flat, np.arange(len(ds)))


def test_class_index_single_label():
    ds = LabeledDataset(np.zeros((6, 1, 2, 2), dtype=np.float32),
                        np.full(6, 2, dtype=np.int64), class_count=4)
    index = class_index(ds)
    assert [len(ix) for ix in index] == [0, 0, 6, 0]


@pytest.mark.parametrize("labels, bad", [([-1, 0, 1], -1), ([-2, 3, 1], -2), ([0, 1, 3], 3)])
def test_labeled_dataset_names_the_label_out_of_range(labels, bad):
    with pytest.raises(DataFormatError, match=rf"^label {bad} out of range for 3 classes$"):
        LabeledDataset(np.zeros((3, 1, 2, 2), dtype=np.float32), np.array(labels), class_count=3)


def test_batch_sampler_epoch_pass_without_replacement():
    ds = synth_blobs(2, 10, (1, 2, 2), separation=3.0, seed=15)
    sampler = ClassBatchSampler(ds, make_rng(0, "test"))
    seen = np.concatenate([sampler.next_batch(0, 4) for _ in range(2)])
    assert len(np.unique(seen)) == 8  # same epoch, no repeats
    assert set(np.unique(ds.labels[seen])) == {0}


def test_batch_sampler_deterministic():
    ds = synth_blobs(2, 12, (1, 2, 2), separation=3.0, seed=16)
    s1 = ClassBatchSampler(ds, make_rng(5, "x"))
    s2 = ClassBatchSampler(ds, make_rng(5, "x"))
    for _ in range(5):
        np.testing.assert_array_equal(s1.next_batch(1, 5), s2.next_batch(1, 5))
