"""Binary checkpoints: "QDMD" for model parameters, "QDSY" for synthetic sets.

Tensors are stored little-endian at their in-memory precision; a save/load
round trip is bit-exact.  Loaders fail fast on magic/version mismatches,
unknown codes and bytes after the last tensor, naming the byte offset.
Every artifact is written through `atomic_write`.
"""
from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .data import _read_exact, check_end
from .errors import DataFormatError
from .models import ArchSpec, InitDistribution, init_params
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


def _check_header(f, magic: bytes, path) -> None:
    got = _read_exact(f, 4, path, "magic")
    if got != magic:
        raise DataFormatError(f"{path}: magic {got!r} is not {magic.decode()} (format v{VERSION})")
    (version,) = struct.unpack("<I", _read_exact(f, 4, path, "version"))
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
    """The parameters saved for `spec`: the entries' names, roles and shapes
    must be those of `init_params(spec)`, in order."""
    expected = list(init_params(spec, InitDistribution(seed=0)))
    with open(path, "rb") as f:
        _check_header(f, MODEL_MAGIC, path)
        digest = _read_exact(f, 32, path, "architecture digest")
        if digest != spec.digest():
            raise DataFormatError(f"{path}: checkpoint was written for a different architecture")
        (count,) = struct.unpack("<I", _read_exact(f, 4, path, "entry count"))
        if count != len(expected):
            raise DataFormatError(f"{path}: entry count {count} at byte 40, expected {len(expected)}")
        entries = []
        for index, (want_name, want, want_role) in enumerate(expected):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, path, "name length"))
            offset = f.tell()
            try:
                name = _read_exact(f, name_len, path, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise DataFormatError(f"{path}: entry {index}: name at byte {offset} "
                                      f"is not UTF-8") from None
            header = f.tell()
            role_code, width, ndim = struct.unpack("<BBB", _read_exact(f, 3, path, "entry header"))
            if role_code not in _ROLE_NAMES:
                raise DataFormatError(f"{path}: entry {index} ({name}): unknown role code "
                                      f"{role_code} at byte {header}")
            if width not in _DTYPE_BY_WIDTH:
                raise DataFormatError(f"{path}: entry {index} ({name}): unsupported precision "
                                      f"byte {width} at byte {header + 1}")
            shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, path, "shape"))
            role = _ROLE_NAMES[role_code]
            if (name, role, shape) != (want_name, want_role, want.shape):
                raise DataFormatError(f"{path}: entry {index} at byte {offset}: {name!r} ({role}, "
                                      f"shape {list(shape)}) is not {want_name!r} ({want_role}, "
                                      f"shape {list(want.shape)})")
            raw = _read_exact(f, width * math.prod(shape), path, f"tensor {name}")
            arr = np.frombuffer(raw, dtype=_DTYPE_BY_WIDTH[width]).reshape(shape)
            entries.append((name, Tensor(arr.astype(_native(width)), requires_grad=True), role))
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
        (width,) = struct.unpack("<B", _read_exact(f, 1, path, "precision"))
        if width not in _DTYPE_BY_WIDTH:
            raise DataFormatError(f"{path}: unsupported precision byte {width}")
        chw = struct.unpack("<III", _read_exact(f, 12, path, "sample shape"))
        (n_classes,) = struct.unpack("<I", _read_exact(f, 4, path, "class count"))
        sizes: dict[int, int] = {}
        for _ in range(n_classes):
            offset = f.tell()
            c, m_c = struct.unpack("<II", _read_exact(f, 8, path, "class size"))
            if m_c < 1:
                raise DataFormatError(f"{path}: class {c} has zero synthetic samples")
            if c in sizes:
                raise DataFormatError(f"{path}: class {c} listed twice, again at byte {offset}")
            sizes[c] = m_c
        buckets = {}
        for c, m_c in sizes.items():
            raw = _read_exact(f, width * m_c * math.prod(chw), path, f"class {c} tensor")
            arr = np.frombuffer(raw, dtype=_DTYPE_BY_WIDTH[width]).reshape(m_c, *chw)
            buckets[c] = Tensor(arr.astype(_native(width)), requires_grad=True)
        check_end(f, path, "the last tensor")
    return SyntheticDataset(buckets)
