"""Dataset loading, synthetic blob generation, and non-IID partitioning."""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .seeds import make_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    samples: np.ndarray          # [N, C, H, W] float32 in [0, 1]
    labels: np.ndarray           # [N] int64
    class_count: int
    source: str = ""

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 4:
            raise DataFormatError(f"samples must be [N,C,H,W], got shape {self.samples.shape}")
        if self.labels.shape != (self.samples.shape[0],):
            raise DataFormatError(
                f"{self.labels.shape[0] if self.labels.ndim else 0} labels for "
                f"{self.samples.shape[0]} samples")
        if self.labels.size:
            low, high = int(self.labels.min()), int(self.labels.max())
            if low < 0 or high >= self.class_count:
                raise DataFormatError(f"label {low if low < 0 else high} out of range "
                                      f"for {self.class_count} classes")

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    def subset(self, indices, source: str | None = None) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.samples[idx], self.labels[idx], self.class_count,
                              source if source is not None else self.source)

    def without_classes(self, classes) -> "LabeledDataset":
        return self.subset(np.flatnonzero(~np.isin(self.labels, list(classes))))

    def only_classes(self, classes) -> "LabeledDataset":
        return self.subset(np.flatnonzero(np.isin(self.labels, list(classes))))


def class_index(data: LabeledDataset) -> list[np.ndarray]:
    """Per-class ascending sample index lists; together they partition [0, N)."""
    return [np.nonzero(data.labels == c)[0] for c in range(data.class_count)]


# ---- IDX format ----------------------------------------------------------------


def _read_exact(f, count: int, path, what: str) -> bytes:
    """`count` bytes of `what`, checked against the bytes left before reading,
    so no declared size can make a loader allocate more than the file holds."""
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    if count > left:
        raise DataFormatError(f"{path}: truncated while reading {what} at byte {offset}; "
                              f"missing {count - left} bytes")
    return f.read(count)


def check_end(f, path, what: str) -> None:
    """Reject any byte after `what`, naming how many there are and where they start."""
    offset = f.tell()
    extra = len(f.read())
    if extra:
        raise DataFormatError(f"{path}: {extra} trailing bytes after {what}, at byte {offset}")


def _idx_header(f, path: str, magic: int, sizes: int) -> tuple[int, ...]:
    """The `sizes` dimension sizes after a checked IDX magic number."""
    found, *dims = struct.unpack(f">{1 + sizes}I", _read_exact(f, 4 + 4 * sizes, path, "header"))
    if found != magic:
        raise DataFormatError(
            f"{path}: bad magic 0x{found:08x} at offset 0 (expected 0x{magic:08x})")
    return tuple(dims)


def idx_image_size(path) -> tuple[int, int]:
    """(rows, cols) from the 16-byte header of an IDX image file."""
    with open(path, "rb") as f:
        return _idx_header(f, str(path), IDX_IMAGES_MAGIC, 3)[1:]


def idx_labels(path) -> np.ndarray:
    """The labels of an IDX label file, as int64."""
    with open(path, "rb") as f:
        (n,) = _idx_header(f, str(path), IDX_LABELS_MAGIC, 1)
        raw = _read_exact(f, n, str(path), f"{n} labels")
        check_end(f, path, f"{n} labels")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path, expected_classes: int = 10,
             source: str = "idx") -> LabeledDataset:
    """Load big-endian IDX image/label pairs; pixels scaled to [0, 1]."""
    images_path, labels_path = str(images_path), str(labels_path)
    with open(images_path, "rb") as f:
        n, rows, cols = _idx_header(f, images_path, IDX_IMAGES_MAGIC, 3)
        raw = _read_exact(f, n * rows * cols, images_path, f"{n} images of {rows}x{cols}")
        check_end(f, images_path, f"{n} images")
    labels = idx_labels(labels_path)
    if n != labels.size:
        raise DataFormatError(f"{n} images but {labels.size} labels")
    if labels.size and labels.max() >= expected_classes:
        raise DataFormatError(
            f"{labels_path}: label value {int(labels.max())} >= class count {expected_classes}")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, rows, cols)
    samples = (pixels.astype(np.float32) / 255.0)
    return LabeledDataset(samples, labels, expected_classes, source=source)


# ---- synthetic blobs -------------------------------------------------------------


def synth_blobs(classes: int, per_class: int, dim: tuple[int, int, int], separation: float,
                seed: int, noise_sigma: float = 0.05, source: str = "blobs") -> LabeledDataset:
    """Gaussian clusters, one mean per class, clipped to [0, 1].

    `separation` is measured in noise standard deviations between cluster
    centers; 0 collapses all classes onto one mean.
    """
    if separation < 0:
        raise ValueError("separation must be >= 0")
    if classes < 1 or per_class < 1:
        raise ValueError("classes and per_class must be positive")
    c, h, w = (int(v) for v in dim)
    d = c * h * w
    mean_rng = make_rng(seed, "blobs", "means")
    noise_rng = make_rng(seed, "blobs", "noise")

    if classes <= d:
        raw = mean_rng.normal(size=(d, classes))
        q, _ = np.linalg.qr(raw)
        dirs = q[:, :classes].T                       # orthonormal rows
    else:
        raw = mean_rng.normal(size=(classes, d))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    radius = 0.5 * separation * noise_sigma
    means = 0.5 + radius * dirs

    xs = np.empty((classes * per_class, d), dtype=np.float64)
    ys = np.empty(classes * per_class, dtype=np.int64)
    for cls in range(classes):
        block = slice(cls * per_class, (cls + 1) * per_class)
        xs[block] = means[cls] + noise_sigma * noise_rng.normal(size=(per_class, d))
        ys[block] = cls
    np.clip(xs, 0.0, 1.0, out=xs)
    return LabeledDataset(xs.reshape(-1, c, h, w).astype(np.float32), ys, classes, source=source)


# ---- Dirichlet partitioning ---------------------------------------------------------


@dataclass
class PartitionPlan:
    alpha: float                 # math.inf encodes the exact uniform split
    clients: int
    seed: int
    counts: np.ndarray           # [clients, classes]
    attempts: int = 1


def _draw_counts(per_class_n: list[int], n_clients: int, alpha: float,
                 rng: np.random.Generator, per_class_over_clients: bool) -> np.ndarray:
    n_classes = len(per_class_n)
    counts = np.zeros((n_clients, n_classes), dtype=np.int64)
    if per_class_over_clients:
        for c, n_c in enumerate(per_class_n):
            if n_c == 0:
                continue
            p = rng.dirichlet(np.full(n_clients, alpha))
            counts[:, c] = rng.multinomial(n_c, p)
    else:
        # each client draws class proportions; per-class columns renormalized
        props = np.stack([rng.dirichlet(np.full(n_classes, alpha)) for _ in range(n_clients)])
        for c, n_c in enumerate(per_class_n):
            if n_c == 0:
                continue
            col = props[:, c]
            total = col.sum()
            p = np.full(n_clients, 1.0 / n_clients) if total <= 0 else col / total
            counts[:, c] = rng.multinomial(n_c, p)
    return counts


def dirichlet_partition(data: LabeledDataset, n_clients: int, alpha: float, seed: int,
                        max_retries: int = 100,
                        per_class_over_clients: bool = True):
    """Split `data` across clients with per-class Dirichlet(alpha) proportions.

    alpha == math.inf gives the exact uniform IID split (per-class counts within
    one of each other).  Draws leaving any client empty are retried with a fresh
    derived seed, up to `max_retries`.

    Returns (list of client datasets, PartitionPlan).
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if alpha != math.inf and alpha <= 0:
        raise ValueError("alpha must be positive or inf")
    index = class_index(data)
    per_class_n = [len(ix) for ix in index]

    for attempt in range(1, max_retries + 1):
        rng = make_rng(seed, "partition", attempt)
        if alpha == math.inf:
            counts = np.zeros((n_clients, data.class_count), dtype=np.int64)
            for c, n_c in enumerate(per_class_n):
                base, rem = divmod(n_c, n_clients)
                counts[:, c] = base
                counts[:rem, c] += 1
        else:
            counts = _draw_counts(per_class_n, n_clients, alpha, rng, per_class_over_clients)
        if n_clients == 1 or (counts.sum(axis=1) > 0).all():
            break
    else:
        raise DataFormatError(
            f"partition left a client empty after {max_retries} attempts "
            f"(alpha={alpha}, clients={n_clients}); lower the client count")

    client_indices: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for c in range(data.class_count):
        ids = index[c].copy()
        rng.shuffle(ids)
        offset = 0
        for i in range(n_clients):
            take = int(counts[i, c])
            client_indices[i].append(ids[offset:offset + take])
            offset += take
    datasets = []
    for i in range(n_clients):
        idx = np.concatenate(client_indices[i]) if client_indices[i] else np.empty(0, np.int64)
        idx.sort()
        datasets.append(data.subset(idx, source=f"{data.source}/client{i}"))
    plan = PartitionPlan(alpha=alpha, clients=n_clients, seed=seed, counts=counts,
                         attempts=attempt)
    return datasets, plan


# ---- per-class minibatch sampling -----------------------------------------------


class ClassBatchSampler:
    """Epoch-style per-class sampling: shuffle a class, hand out consecutive
    chunks, reshuffle when exhausted.  Consumes only the generator it is given,
    so two samplers built from equal seeds walk identical index sequences."""

    def __init__(self, data: LabeledDataset, rng: np.random.Generator):
        self._rng = rng
        self._index = {c: ix for c, ix in enumerate(class_index(data)) if len(ix)}
        self._order: dict[int, np.ndarray] = {}
        self._cursor: dict[int, int] = {}

    def classes(self) -> list[int]:
        return sorted(self._index)

    def next_batch(self, c: int, size: int) -> np.ndarray:
        pool = self._index[c]
        size = min(size, len(pool))
        if c not in self._order:
            self._order[c] = self._rng.permutation(pool)
            self._cursor[c] = 0
        if self._cursor[c] + size > len(pool):
            self._order[c] = self._rng.permutation(pool)
            self._cursor[c] = 0
        start = self._cursor[c]
        self._cursor[c] = start + size
        return self._order[c][start:start + size]
