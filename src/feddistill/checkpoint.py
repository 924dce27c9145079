"""Binary checkpoints: "QDMD" for model parameters, "QDSY" for synthetic sets.

Tensors are stored little-endian at their in-memory precision; a save/load
round trip is bit-exact.  Loaders fail fast on magic/version mismatches,
unknown codes and bytes after the last tensor, naming the byte offset.
Every artifact is written through `atomic_write`.
"""
from __future__ import annotations

import contextlib
import os
import struct
from pathlib import Path

import numpy as np

from .data import check_end
from .errors import DataFormatError
from .models import ArchSpec
from .tensor import ParamSet, Tensor

from .distill import SyntheticDataset

MODEL_MAGIC = b"QDMD"
SYN_MAGIC = b"QDSY"
VERSION = 1

_ROLE_CODES = {"conv": 0, "norm": 1, "linear": 2}
_ROLE_NAMES = {v: k for k, v in _ROLE_CODES.items()}
_DTYPE_BY_WIDTH = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Write `path` through a temporary file in the same directory that
    replaces it in one step (`os.replace`) once the block succeeds.  The
    data and then the directory entry are synced to disk, so a crash leaves
    either the old or the new bytes.  On an error the temporary file is
    removed and `path` keeps its old bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _le_dtype(dtype: np.dtype) -> tuple[int, np.dtype]:
    width = dtype.itemsize
    if width not in _DTYPE_BY_WIDTH:
        raise DataFormatError(f"unsupported precision {dtype}")
    return width, _DTYPE_BY_WIDTH[width]


def _native(width: int) -> np.dtype:
    return np.dtype(np.float32 if width == 4 else np.float64)


def _read(f, count: int, what: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise DataFormatError(f"checkpoint truncated while reading {what}; "
                              f"missing {count - len(buf)} bytes")
    return buf


def _check_header(f, magic: bytes, path) -> None:
    got = _read(f, 4, "magic")
    if got != magic:
        raise DataFormatError(f"{path}: magic {got!r} is not {magic.decode()} (format v{VERSION})")
    (version,) = struct.unpack("<I", _read(f, 4, "version"))
    if version != VERSION:
        raise DataFormatError(f"{path}: unsupported {magic.decode()} version {version}, "
                              f"this build reads v{VERSION}")


def save_model(path, params: ParamSet, spec: ArchSpec) -> None:
    with atomic_write(path) as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(spec.digest())
        f.write(struct.pack("<I", len(params)))
        for name, tensor, role in params:
            width, le = _le_dtype(tensor.data.dtype)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<BBB", _ROLE_CODES[role], width, tensor.data.ndim))
            f.write(struct.pack(f"<{tensor.data.ndim}I", *tensor.data.shape))
            f.write(np.ascontiguousarray(tensor.data).astype(le).tobytes())


def load_model(path, spec: ArchSpec) -> ParamSet:
    with open(path, "rb") as f:
        _check_header(f, MODEL_MAGIC, path)
        digest = _read(f, 32, "architecture digest")
        if digest != spec.digest():
            raise DataFormatError(f"{path}: checkpoint was written for a different architecture")
        (count,) = struct.unpack("<I", _read(f, 4, "entry count"))
        entries = []
        for index in range(count):
            (name_len,) = struct.unpack("<H", _read(f, 2, "name length"))
            offset = f.tell()
            try:
                name = _read(f, name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise DataFormatError(f"{path}: entry {index}: name at byte {offset} "
                                      f"is not UTF-8") from None
            offset = f.tell()
            role_code, width, ndim = struct.unpack("<BBB", _read(f, 3, "entry header"))
            if role_code not in _ROLE_NAMES:
                raise DataFormatError(f"{path}: entry {index} ({name}): unknown role code "
                                      f"{role_code} at byte {offset}")
            if width not in _DTYPE_BY_WIDTH:
                raise DataFormatError(f"{path}: entry {index} ({name}): unsupported precision "
                                      f"byte {width} at byte {offset + 1}")
            shape = struct.unpack(f"<{ndim}I", _read(f, 4 * ndim, "shape"))
            raw = _read(f, width * int(np.prod(shape)) if shape else width, f"tensor {name}")
            arr = np.frombuffer(raw, dtype=_DTYPE_BY_WIDTH[width]).reshape(shape)
            entries.append((name, Tensor(arr.astype(_native(width)), requires_grad=True),
                            _ROLE_NAMES[role_code]))
        check_end(f, path, "the last tensor")
    return ParamSet(entries)


def save_synthetic(path, syn: SyntheticDataset) -> None:
    classes = syn.classes()
    shapes = [syn.buckets[c].shape for c in classes]
    if shapes:
        chw = shapes[0][1:]
        if any(s[1:] != chw for s in shapes):
            raise DataFormatError("synthetic buckets disagree on sample shape")
    else:
        raise DataFormatError("cannot save an empty synthetic set")
    width, le = _le_dtype(syn.buckets[classes[0]].data.dtype)
    with atomic_write(path) as f:
        f.write(SYN_MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<B", width))
        f.write(struct.pack("<III", *chw))
        f.write(struct.pack("<I", len(classes)))
        for c in classes:
            f.write(struct.pack("<II", c, syn.buckets[c].shape[0]))
        for c in classes:
            f.write(np.ascontiguousarray(syn.buckets[c].data).astype(le).tobytes())


def load_synthetic(path) -> SyntheticDataset:
    with open(path, "rb") as f:
        _check_header(f, SYN_MAGIC, path)
        (width,) = struct.unpack("<B", _read(f, 1, "precision"))
        if width not in _DTYPE_BY_WIDTH:
            raise DataFormatError(f"{path}: unsupported precision byte {width}")
        chw = struct.unpack("<III", _read(f, 12, "sample shape"))
        (n_classes,) = struct.unpack("<I", _read(f, 4, "class count"))
        sizes = []
        for _ in range(n_classes):
            c, m_c = struct.unpack("<II", _read(f, 8, "class size"))
            if m_c < 1:
                raise DataFormatError(f"{path}: class {c} has zero synthetic samples")
            sizes.append((c, m_c))
        buckets = {}
        per_sample = int(np.prod(chw))
        for c, m_c in sizes:
            raw = _read(f, width * m_c * per_sample, f"class {c} tensor")
            arr = np.frombuffer(raw, dtype=_DTYPE_BY_WIDTH[width]).reshape(m_c, *chw)
            buckets[c] = Tensor(arr.astype(_native(width)), requires_grad=True)
        check_end(f, path, "the last tensor")
    return SyntheticDataset(buckets)
