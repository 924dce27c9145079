"""What a graph keeps alive: graph edges link data-free nodes, so a forward
array outlives its op only while a VJP closure, the caller or a tape slot
holds it, and a recording's backward pass frees each closure once its rule
has run.  Measured with tracemalloc, weakrefs and a tape's live bytes, never
with timings."""
from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from feddistill import tensor
from feddistill.distill import _match_gradient, class_gradient, grad_distance, loss_gradient
from feddistill.errors import GraphError
from feddistill.models import ArchSpec, InitDistribution, cross_entropy, forward, init_params
from feddistill.tensor import Recorder, Tensor, grad, hypergrad

from helpers import tape_live_bytes

# the convnet world of the benchmark's fl_conv workload, at its real batch
FL_CONV = dict(kind="convnet", input_shape=(1, 16, 16), class_count=10, blocks=2, filters=16)
BATCH = 32


def _world(seed=0):
    spec = ArchSpec(**FL_CONV)
    params = init_params(spec, InitDistribution(seed=1))
    rng = np.random.default_rng(seed)
    x = rng.random((BATCH,) + spec.input_shape).astype(np.float32)
    return spec, params, x, np.arange(BATCH) % spec.class_count


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recording_a_loss_gradient_tape_peaks_near_its_replay():
    spec, params, x, y = _world()
    call = lambda: loss_gradient(params, spec, Tensor(x), y, "probe")
    recording = _traced_peak(call)
    assert len(spec.tapes) == 1
    replay = _traced_peak(call)
    assert next(iter(spec.tapes.values())).replays == 1
    assert recording <= 1.15 * replay, (recording, replay)


def test_the_loss_gradient_tape_peaks_under_its_floor():
    # matmul's rule makes the weight gradient first, so a tape frees the patch
    # matrix and its transpose before the patch-matrix gradient exists
    spec, params, x, y = _world()
    loss_gradient(params, spec, Tensor(x), y, "probe")
    (tape,) = spec.tapes.values()
    live = tape_live_bytes(tape, params.arrays() + [x, y])
    assert len(live) == len(tape._steps)
    assert max(live) <= 4.8 * 2**20, max(live)


def _traced_products(monkeypatch) -> list[tuple[weakref.ref, weakref.ref]]:
    """(left operand, product) of every `_matmul` kernel call from now on."""
    products = []
    kernel = tensor._matmul

    def traced(a, b):
        out = kernel(a, b)
        products.append((weakref.ref(a), weakref.ref(out)))
        return out

    monkeypatch.setattr(tensor, "_matmul", traced)
    return products


def test_a_forward_array_lives_only_while_a_backward_rule_saves_it(monkeypatch):
    spec, params, x, y = _world()
    products = _traced_products(monkeypatch)
    loss = cross_entropy(forward(params, spec, Tensor(x)), y)
    convs = products[:spec.blocks]          # im2col patches @ weights, block by block
    # the pre-bias product feeds an add, whose rule saves nothing
    assert all(out() is None for _, out in convs)
    # the patch matrix is saved for the weight gradient
    assert all(patches() is not None for patches, _ in convs)
    grads = grad(loss, params)
    assert np.isfinite(grads.arrays()[0]).all()
    del loss
    assert all(patches() is None for patches, _ in convs)


def test_graph_edges_hold_nodes_without_data():
    spec, params, x, y = _world()
    loss = cross_entropy(forward(params, spec, Tensor(x)), y)
    stack, seen = list(loss._parents), set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            assert not hasattr(node, "data")
            stack.extend(node._parents)
    assert len(seen) > 50


def test_two_backward_passes_over_one_graph_agree():
    spec, params, x, y = _world()
    loss = cross_entropy(forward(params, spec, Tensor(x)), y)
    first = [a.tobytes() for a in grad(loss, params).arrays()]
    second = [a.tobytes() for a in grad(loss, params).arrays()]
    assert first == second


def test_a_recordings_backward_pass_frees_what_its_rules_saved(monkeypatch):
    spec, params, x, y = _world()
    products = _traced_products(monkeypatch)
    with Recorder(params.arrays() + [x]):
        loss = cross_entropy(forward(params, spec, Tensor(x)), y)
        patches = [p for p, _ in products[:spec.blocks]]
        assert all(p() is not None for p in patches)
        grad(loss, params)
        # the loss, and so its graph, is still alive
        assert all(p() is None for p in patches)


def test_a_second_pass_over_a_graph_a_recording_differentiated_raises():
    spec, params, x, y = _world()
    loss = cross_entropy(forward(params, spec, Tensor(x)), y)
    expected = [a.tobytes() for a in grad(loss, params).arrays()]
    with Recorder(params.arrays() + [x]):
        loss = cross_entropy(forward(params, spec, Tensor(x)), y)
        assert [a.tobytes() for a in grad(loss, params).arrays()] == expected
        with pytest.raises(GraphError, match="already differentiated inside a recording, "
                                             "which frees each backward rule"):
            grad(loss, params)
    with pytest.raises(GraphError, match="already differentiated inside a recording"):
        grad(loss, params)


@pytest.mark.parametrize("k", [1, 3])
def test_a_match_update_records_and_replays_bitwise(k):
    # the recording's hypergrad spends the graph its create_graph gradient built
    spec, params, x, y = _world()
    classes = list(range(k))
    g_reals = {c: class_gradient(params, spec, Tensor(x[y == c]), c) for c in classes}
    rng = np.random.default_rng(2)
    for _ in range(2):                      # the first call records, the second replays
        buckets = {c: Tensor(rng.random((2,) + spec.input_shape, dtype=np.float32),
                             requires_grad=True) for c in classes}
        taped = _match_gradient(params, spec, g_reals, buckets, classes)
        for c, got in zip(classes, taped):
            g_syn = class_gradient(params, spec, buckets[c], c, create_graph=True)
            (expected,) = hypergrad(grad_distance(g_reals[c], g_syn), [buckets[c]])
            assert got.data.tobytes() == expected.data.tobytes()
    (tape,) = [t for key, t in spec.tapes.items() if key[0] == "match"]
    assert tape.replays == (1 if k == 1 else 2)
