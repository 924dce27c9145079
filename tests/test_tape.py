"""Record once, replay many: a replayed tape equals the interpreter bit for
bit, also after its inputs change enough to flip every data-dependent
constant (ReLU masks, the row-max argmax, a zero gradient row)."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from feddistill import runner
from feddistill.config import load_config
from feddistill.distill import (
    _as_rows,
    _match_gradient,
    class_gradient,
    grad_distance,
    loss_gradient,
)
from feddistill.errors import NumericError
from feddistill.models import ArchSpec, InitDistribution, cross_entropy, forward, init_params
from feddistill.tensor import (
    ParamSet,
    Recorder,
    Tensor,
    _broadcast,
    asum,
    grad,
    hypergrad,
    mul,
    mul_scalar,
)
from feddistill.unlearn import UnlearnEngine

ROOT = Path(__file__).resolve().parents[1]

SPECS = {
    "mlp": dict(kind="mlp", input_shape=(1, 4, 4), class_count=3, hidden=(8,)),
    "convnet": dict(kind="convnet", input_shape=(1, 8, 8), class_count=3, blocks=2, filters=4),
    # the last pooling window covers the whole 2x2 map: window_sum's W == 1 fallback
    "convnet_8x8_3": dict(kind="convnet", input_shape=(1, 8, 8), class_count=3, blocks=3,
                          filters=4),
}
CASES = [(name, dtype) for name in SPECS for dtype in (np.float32, np.float64)]


def _world(name, dtype, seed):
    """A fresh spec (cold tape cache) and two input sets that differ in every
    data-dependent constant: in the first, hidden unit / filter 0 is dead, so
    its gradient row is zero, and every row's maximum logit is class 0; in
    the second the unit is alive and class 0 is never the maximum."""
    spec = ArchSpec(**SPECS[name])
    rng = np.random.default_rng(seed)
    first = init_params(spec, InitDistribution(seed=seed), dtype=dtype)
    second = first.clone()
    first.get("head.bias").data[0] = 50.0
    second.get("head.bias").data[0] = -50.0
    if spec.kind == "mlp":
        first.get("layer0.bias").data[0] = -1e3
    else:
        first.get("block0.norm.gamma").data[0] = 0.0
        first.get("block0.norm.beta").data[0] = -1.0
    shape = (6,) + spec.input_shape
    batches = [Tensor(rng.normal(size=shape), dtype=dtype),
               Tensor(rng.normal(size=shape) * 3.0, dtype=dtype)]
    return spec, [first, second], batches


def _interpreted_gradient(params, spec, batch, labels):
    return grad(cross_entropy(forward(params, spec, batch), labels), params)


def _row_argmax(params, spec, batch):
    return forward(params, spec, batch).data.argmax(axis=1)


def _first_relu_mask(params, batch):
    flat = batch.data.reshape(batch.shape[0], -1)
    return flat @ params.get("layer0.weight").data + params.get("layer0.bias").data > 0


def _zero_rows(grads: ParamSet) -> bool:
    """Whether grad_distance would mask a row out."""
    return any((~_as_rows(g, role).data.any(axis=1)).any() for _, g, role in grads)


def _equal(a, b) -> bool:
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


@pytest.mark.parametrize("name, dtype", CASES)
def test_loss_gradient_replay_equals_the_interpreter(name, dtype):
    spec, params, batches = _world(name, dtype, seed=5)
    labels = [np.array([0, 1, 2, 0, 1, 2]), np.array([2, 2, 1, 0, 0, 1])]
    first, second = (_row_argmax(p, spec, b) for p, b in zip(params, batches))
    assert not np.array_equal(first, second)
    if spec.kind == "mlp":
        first, second = (_first_relu_mask(p, b) for p, b in zip(params, batches))
        assert not np.array_equal(first, second)
    for p, b, y in zip(params, batches, labels):
        taped = loss_gradient(p, spec, b, y, "test")
        reference = _interpreted_gradient(p, spec, b, y)
        assert _equal(taped.arrays(), reference.arrays())
        assert all(g._detached_src and not g.requires_grad for g in taped.tensors())
    # unit / filter 0 is dead in the first call only: a zero gradient row and,
    # on the convnet, a ReLU mask of all zeros on its channel
    zero_first = _interpreted_gradient(params[0], spec, batches[0], labels[0])
    zero_second = _interpreted_gradient(params[1], spec, batches[1], labels[1])
    assert _zero_rows(zero_first) and not _zero_rows(zero_second)
    (tape,) = spec.tapes.values()
    assert tape.replays == 1


@pytest.mark.parametrize("name, dtype", CASES)
def test_match_replay_equals_the_interpreter(name, dtype):
    spec, params, batches = _world(name, dtype, seed=7)
    label = 1
    rng = np.random.default_rng(11)
    for p, real in zip(params, batches):
        g_real = class_gradient(p, spec, real, label)
        bucket = Tensor(rng.normal(size=(2,) + spec.input_shape), requires_grad=True,
                        dtype=dtype)
        (taped,) = _match_gradient(p, spec, {label: g_real}, {label: bucket}, [label])
        g_syn = class_gradient(p, spec, bucket, label, create_graph=True)
        (reference,) = hypergrad(grad_distance(g_real, g_syn), [bucket])
        assert taped.data.dtype == reference.data.dtype
        assert taped.data.tobytes() == reference.data.tobytes()
    tapes = [t for key, t in spec.tapes.items() if key[0] == "match"]
    assert len(tapes) == 1 and tapes[0].replays == 1


@pytest.mark.parametrize("name, dtype", CASES)
def test_local_pass_with_a_short_last_minibatch(name, dtype):
    spec, params, _ = _world(name, dtype, seed=3)
    rng = np.random.default_rng(4)
    engine = UnlearnEngine([], spec, master_seed=0, dtype=dtype, pass_batch_size=4)
    for p in params:
        xs = rng.normal(size=(10,) + spec.input_shape).astype(dtype)
        ys = rng.integers(0, spec.class_count, size=10)
        (taped,) = engine._passes(p, [(xs, ys)], 0.1, -1.0, "test")
        reference = p.clone()
        for start in range(0, 10, 4):
            g = _interpreted_gradient(reference, spec, Tensor(xs[start:start + 4]),
                                      ys[start:start + 4])
            for t, d in zip(reference.tensors(), g.tensors()):
                t.data = t.data - t.data.dtype.type(0.1) * d.data
        assert taped.to_vector().tobytes() == reference.to_vector().tobytes()
    assert sorted(key[1][-2][0][0] for key in spec.tapes) == [2, 4]     # batch rows per tape


@pytest.mark.parametrize("name", list(SPECS))
def test_a_nan_input_raises_the_interpreters_error(name):
    spec, params, batches = _world(name, np.float32, seed=2)
    loss_gradient(params[1], spec, batches[1], np.zeros(6, dtype=np.int64), "x")
    bad = batches[0].data.copy()
    bad[3, 0, 0, 0] = np.nan
    fresh = ArchSpec(**SPECS[name])
    messages = []
    for s in (spec, fresh):                  # replayed, then interpreted while recording
        with pytest.raises(NumericError) as err:
            class_gradient(params[1], s, Tensor(bad), 2)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "non-finite values in class 2 gradient"
    assert len(fresh.tapes) == 0             # a call that raises while recording caches nothing

    g_real = class_gradient(params[1], spec, batches[1], 1)
    bucket = Tensor(batches[1].data[:2].copy(), requires_grad=True)
    _match_gradient(params[1], spec, {1: g_real}, {1: bucket}, [1])
    bad_bucket = Tensor(bad[2:4].copy(), requires_grad=True)
    with pytest.raises(NumericError, match="^non-finite values in class 1 gradient$"):
        _match_gradient(params[1], spec, {1: g_real}, {1: bad_bucket}, [1])


def test_replayed_outputs_never_alias_a_constant():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    unused = Tensor(np.array([5.0]), requires_grad=True)
    with Recorder([x.data, unused.data]) as rec:
        gx, gu = grad(asum(mul(x, x)), [x, unused])
    tape = rec.finish([gx, gu])
    first = tape.run([np.array([3.0, 4.0]), np.array([1.0])])
    assert first[0].tolist() == [6.0, 8.0] and first[1].tolist() == [0.0]
    first[1][0] = 7.0
    second = tape.run([np.array([3.0, 4.0]), np.array([1.0])])
    assert second[1].tolist() == [0.0]


def test_a_tape_replays_forward_and_reverse_in_one_run():
    """The seed of `grad` is a constant of the tape, so one run replays a
    value and its gradient together."""
    x = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
    with Recorder([x.data]) as rec:
        y = mul_scalar(asum(mul(x, mul(x, x))), 3.0)
        (gx,) = grad(y, [x])
    tape = rec.finish([y, gx])
    new = np.array([1.25, 3.0, -0.75])
    value, scaled = tape.run([new])
    leaf = Tensor(new.copy(), requires_grad=True)
    out = mul_scalar(asum(mul(leaf, mul(leaf, leaf))), 3.0)
    (reference,) = grad(out, [leaf])
    assert value.tobytes() == out.data.tobytes()
    assert scaled.tobytes() == reference.data.tobytes()


def test_blobs_small_records_each_key_once(tmp_path, monkeypatch):
    cfg = load_config(ROOT / "configs" / "blobs_small.json")
    cfg.output_dir = str(tmp_path / "out")
    monkeypatch.setattr(runner, "_checked_config", lambda path: cfg)
    finished = []
    original = Recorder.finish

    def counting_finish(self, *args, **kwargs):
        tape = original(self, *args, **kwargs)
        finished.append(tape)
        return tape

    monkeypatch.setattr(Recorder, "finish", counting_finish)
    runner.run_experiment("unused")
    tapes = list(cfg.arch.tapes.values())
    assert len(finished) == len(tapes) and {id(t) for t in finished} == {id(t) for t in tapes}
    replays = sum(t.replays for t in tapes)
    assert replays / (replays + len(tapes)) >= 0.95
    kinds = {key[0] if isinstance(key[0], str) else key[0][0] for key in cfg.arch.tapes}
    assert kinds == {"loss_gradient", "match", "forward"}
    # every expand of the MLP feeds a binary ufunc, so none is left on a tape
    assert not any(getattr(kernel, "func", None) is _broadcast
                   for tape in tapes for kernel, *_ in tape._steps)


def test_each_spec_instance_has_its_own_tapes():
    import dataclasses

    spec, params, batches = _world("mlp", np.float32, seed=1)
    class_gradient(params[1], spec, batches[1], 0)
    equal = ArchSpec(**SPECS["mlp"])
    assert equal == spec and hash(equal) == hash(spec)
    assert len(spec.tapes) == 1 and not equal.tapes
    assert not dataclasses.replace(spec).tapes


def test_one_match_tape_serves_every_class():
    spec, params, batches = _world("mlp", np.float64, seed=5)
    rng = np.random.default_rng(13)
    for label in range(spec.class_count):
        g_real = class_gradient(params[0], spec, batches[0], label)
        bucket = Tensor(rng.normal(size=(2,) + spec.input_shape), requires_grad=True,
                        dtype=np.float64)
        (taped,) = _match_gradient(params[0], spec, {label: g_real}, {label: bucket}, [label])
        g_syn = class_gradient(params[0], spec, bucket, label, create_graph=True)
        (reference,) = hypergrad(grad_distance(g_real, g_syn), [bucket])
        assert taped.data.tobytes() == reference.data.tobytes()
    tapes = [t for key, t in spec.tapes.items() if key[0] == "match"]
    assert len(tapes) == 1 and tapes[0].replays == spec.class_count - 1


def test_tape_digests_of_two_runs_are_equal():
    """`artifact_digest.py --tapes` prints the same tape lines on every run of
    the same tree: nothing in a line depends on the process."""
    script = Path(__file__).resolve().parent / "artifact_digest.py"
    runs = [subprocess.run([sys.executable, str(script), "--tapes", "--case", "blobs_small"],
                           check=True, capture_output=True, text=True).stdout.splitlines()
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0] and all(line.startswith("blobs_small/") for line in runs[0])
    assert {line.split()[1] for line in runs[0]} == {"loss_gradient", "match", "forward"}
