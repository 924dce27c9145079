"""What a graph keeps alive: graph edges link data-free nodes, so a forward
array outlives its op only while a VJP closure, the caller or a tape slot
holds it.  Measured with tracemalloc and weakrefs, never with timings."""
from __future__ import annotations

import tracemalloc
import weakref

import numpy as np

from feddistill import tensor
from feddistill.distill import loss_gradient
from feddistill.models import ArchSpec, InitDistribution, cross_entropy, forward, init_params
from feddistill.tensor import Tensor, grad

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
    assert recording <= 1.5 * replay, (recording, replay)


def test_a_forward_array_lives_only_while_a_backward_rule_saves_it(monkeypatch):
    spec, params, x, y = _world()
    products: list[tuple[weakref.ref, weakref.ref]] = []      # (left operand, product)
    kernel = tensor._matmul

    def traced(a, b):
        out = kernel(a, b)
        products.append((weakref.ref(a), weakref.ref(out)))
        return out

    monkeypatch.setattr(tensor, "_matmul", traced)
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
