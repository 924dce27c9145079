"""Malformed binary inputs: IDX images and labels, QDMD and QDSY checkpoints.

Loading a truncated or bit-flipped file either succeeds or raises
DataFormatError, and a loader checks every declared size against the bytes
left in the file before it reads, so no header can make it allocate more
than the file holds."""
from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from feddistill.checkpoint import load_model, load_synthetic, save_model, save_synthetic
from feddistill.data import load_idx, synth_blobs
from feddistill.distill import init_synthetic
from feddistill.errors import DataFormatError
from feddistill.models import ArchSpec, InitDistribution, init_params

SPEC = ArchSpec(kind="mlp", input_shape=(1, 2, 2), class_count=3, hidden=(4,))
CONV = ArchSpec(kind="convnet", input_shape=(1, 4, 4), class_count=3, blocks=1, filters=2)
HUGE = 0xFFFFFFFF


def _idx_images(n=6) -> bytes:
    pixels = (np.arange(n * 9) % 256).astype(np.uint8)
    return struct.pack(">IIII", 0x803, n, 3, 3) + pixels.tobytes()


def _idx_labels(n=6) -> bytes:
    return struct.pack(">II", 0x801, n) + bytes(i % 3 for i in range(n))


def _qdmd(tmp_path, spec=SPEC) -> bytes:
    path = tmp_path / "valid.qdmd"
    save_model(path, init_params(spec, InitDistribution(seed=1)), spec)
    return path.read_bytes()


def _qdsy(tmp_path) -> bytes:
    path = tmp_path / "valid.qdsy"
    data = synth_blobs(3, 40, (1, 2, 2), separation=5.0, seed=2)
    save_synthetic(path, init_synthetic(data, s=15, seed=3))     # buckets of 2 samples
    return path.read_bytes()


def _loader(kind, tmp_path):
    path = tmp_path / f"fuzzed.{kind}"
    other = tmp_path / "other.idx"
    if kind == "images":
        other.write_bytes(_idx_labels())
        return path, lambda: load_idx(path, other, expected_classes=3)
    if kind == "labels":
        other.write_bytes(_idx_images())
        return path, lambda: load_idx(other, path, expected_classes=3)
    if kind in ("qdmd", "qdmd_conv"):
        spec = CONV if kind == "qdmd_conv" else SPEC
        return path, lambda: load_model(path, spec)
    return path, lambda: load_synthetic(path)


def _valid(kind, tmp_path) -> bytes:
    if kind == "images":
        return _idx_images()
    if kind == "labels":
        return _idx_labels()
    if kind == "qdmd":
        return _qdmd(tmp_path)
    if kind == "qdmd_conv":
        return _qdmd(tmp_path, CONV)
    return _qdsy(tmp_path)


@st.composite
def _mutations(draw, size: int):
    """A truncation to fewer bytes, or one to three bit flips."""
    if draw(st.booleans()):
        return ("truncate", draw(st.integers(0, size - 1)))
    flips = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, 7)),
                          min_size=1, max_size=3))
    return ("flip", flips)


def _mutate(raw: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return raw[:arg]
    out = bytearray(raw)
    for offset, bit in arg:
        out[offset] ^= 1 << bit
    return bytes(out)


@pytest.mark.parametrize("kind", ["images", "labels", "qdmd", "qdmd_conv", "qdsy"])
@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncated_or_bit_flipped_files_raise_only_data_format_errors(tmp_path, kind, data):
    raw = _valid(kind, tmp_path)
    path, load = _loader(kind, tmp_path)
    path.write_bytes(_mutate(raw, data.draw(_mutations(len(raw)))))
    try:
        loaded = load()
    except DataFormatError:
        return
    if kind.startswith("qdmd"):          # a model loads only in its architecture's layout
        spec = CONV if kind == "qdmd_conv" else SPEC
        expected = init_params(spec, InitDistribution(seed=0))
        assert [(n, t.shape, r) for n, t, r in loaded] == \
            [(n, t.shape, r) for n, t, r in expected]


@pytest.mark.parametrize("kind", ["images", "labels", "qdmd", "qdmd_conv", "qdsy"])
def test_the_fuzzed_files_load_unchanged(tmp_path, kind):
    path, load = _loader(kind, tmp_path)
    path.write_bytes(_valid(kind, tmp_path))
    load()


def _patched(raw: bytes, offset: int, value: bytes) -> bytes:
    return raw[:offset] + value + raw[offset + len(value):]


@pytest.mark.parametrize("kind, patch, message", [
    ("images", lambda raw: _patched(raw, 4, struct.pack(">III", HUGE, HUGE, HUGE)),
     "truncated while reading 4294967295 images of 4294967295x4294967295 at byte 16"),
    ("images", lambda raw: _patched(raw, 4, struct.pack(">I", 1 << 30)),
     "at byte 16; missing 9663676362 bytes"),
    ("labels", lambda raw: _patched(raw, 4, struct.pack(">I", HUGE)),
     "truncated while reading 4294967295 labels at byte 8"),
    ("qdsy", lambda raw: _patched(raw, 9, struct.pack("<III", HUGE, HUGE, HUGE)),
     "truncated while reading class 0 tensor at byte 49"),
    ("qdsy", lambda raw: _patched(raw, 29, struct.pack("<I", HUGE)),
     "truncated while reading class 0 tensor at byte 49"),
    ("qdsy", lambda raw: _patched(raw, 33, struct.pack("<I", 0)),
     "class 0 listed twice, again at byte 33"),
    ("qdmd", lambda raw: _patched(raw, 46, b"layer0.xeight"),
     "entry 0 at byte 46: 'layer0.xeight' (linear, shape [4, 4]) is not 'layer0.weight'"),
    ("qdmd", lambda raw: _patched(raw, 62, struct.pack("<II", HUGE, HUGE)),
     "'layer0.weight' (linear, shape [4294967295, 4294967295]) is not"),
    ("qdmd", lambda raw: _patched(raw, 40, struct.pack("<I", HUGE)),
     "entry count 4294967295 at byte 40, expected 4"),
], ids=["images-huge", "images-1g", "labels-huge", "qdsy-shape", "qdsy-size",
        "qdsy-duplicate-class", "qdmd-name", "qdmd-shape", "qdmd-count"])
def test_malformed_headers_name_the_field_and_byte(tmp_path, kind, patch, message):
    raw = _valid(kind, tmp_path)
    path, load = _loader(kind, tmp_path)
    path.write_bytes(patch(raw))
    with pytest.raises(DataFormatError) as err:
        load()
    assert message in str(err.value)
