from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddistill.errors import GraphError, NumericError, ShapeError
from feddistill.tensor import (
    ParamSet,
    Tensor,
    add,
    asum,
    col2im,
    div,
    exp,
    expand,
    grad,
    hypergrad,
    im2col,
    log,
    matmul,
    mean,
    mul,
    no_grad,
    relu,
    reshape,
    sqrt,
    transpose,
    window_sum,
)
from helpers import (
    col2im_reference,
    finite_diff_check,
    im2col_reference,
    layout,
    pad_slice,
    sin,
    take_slice,
)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


# ---- basic grad behaviour ------------------------------------------------


def test_quadratic_gradient():
    w = _leaf([1.0, 2.0])
    loss = asum(mul(w, w))
    g = grad(loss, [w])[0]
    np.testing.assert_allclose(g.data, [2.0, 4.0])


def test_disconnected_parameter_gets_zero_gradient():
    w = _leaf([3.0, 4.0])
    loss = Tensor(np.array(7.0), requires_grad=True) * 1.0
    g = grad(loss, [w])[0]
    np.testing.assert_array_equal(g.data, np.zeros(2))


def test_constant_loss_gradient_is_zero():
    w = _leaf([1.0, 2.0])
    loss = Tensor(np.array(5.0))
    # loss has no graph at all; gradient w.r.t. w is zero, not an error
    g = grad(loss, [w])[0]
    np.testing.assert_array_equal(g.data, np.zeros(2))


def test_non_scalar_loss_rejected():
    w = _leaf([1.0, 2.0])
    with pytest.raises(GraphError):
        grad(mul(w, w), [w])


def test_gradient_accumulates_over_reused_node():
    x = _leaf([2.0])
    y = add(x, x)  # dy/dx = 2
    g = grad(asum(y), [x])[0]
    np.testing.assert_allclose(g.data, [2.0])


def test_strict_shapes_and_dtypes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        add(a, b)
    c = Tensor(np.zeros((2, 3), dtype=np.float64))
    d = Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        mul(c, d)


def test_default_dtype_is_float32_and_arrays_keep_precision():
    assert Tensor([1.0, 2.0]).dtype == np.float32
    assert Tensor(np.array([1.0])).dtype == np.float64
    assert Tensor(np.array([1], dtype=np.int64)).dtype == np.float32


# ---- finite-difference oracle ---------------------------------------------


def test_fd_check_square():
    # f = x^2 at x=3: derivative 6 recovered to 1e-6
    err = finite_diff_check(lambda t: mul(t, t).sum(), Tensor(np.array([3.0])), eps=1e-4)
    assert err < 1e-6


def test_fd_check_sin_matches_analytic_cos():
    x = _rng(7).normal(size=11)
    t = Tensor(x, requires_grad=True)
    loss = asum(sin(t))
    g = grad(loss, [t])[0]
    np.testing.assert_allclose(g.data, np.cos(x), atol=1e-12)
    assert finite_diff_check(lambda u: asum(sin(u)), Tensor(x), eps=1e-5) < 1e-6


def test_fd_check_branch_away_from_kink():
    x = np.array([0.5, -1.5, 2.0])
    err = finite_diff_check(lambda t: asum(relu(t)), Tensor(x), eps=1e-5)
    assert np.isfinite(err)


def test_fd_check_rejects_nonfinite():
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        finite_diff_check(lambda t: log(t).sum(), Tensor(np.array([-1.0])), eps=1e-5)


def _mlp_loss(params_flat, x, y_onehot, widths):
    """Tiny MLP cross-entropy written directly against the ops (test-local)."""
    offset = 0
    h = x
    for i in range(len(widths) - 1):
        w_size = widths[i] * widths[i + 1]
        w = reshape(take_slice(params_flat, 0, offset, offset + w_size), (widths[i], widths[i + 1]))
        offset += w_size
        b = take_slice(params_flat, 0, offset, offset + widths[i + 1])
        offset += widths[i + 1]
        h = matmul(h, w) + expand(reshape(b, (1, widths[i + 1])), (h.shape[0], widths[i + 1]))
        if i < len(widths) - 2:
            h = relu(h)
    z = h - expand(Tensor(h.data.max(axis=1, keepdims=True)), h.shape)
    lse = log(asum(exp(z), axes=(1,), keepdims=True))
    logp = z - expand(lse, z.shape)
    return mul_scalar_neg_mean(mul(logp, y_onehot))


def mul_scalar_neg_mean(t):
    return asum(t) * (-1.0 / t.shape[0])


def test_mlp_gradient_matches_finite_differences():
    rng = _rng(123)
    widths = [4, 6, 3]
    n_params = sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(len(widths) - 1))
    theta = rng.normal(scale=0.5, size=n_params)
    x = Tensor(rng.normal(size=(5, 4)))
    labels = rng.integers(0, 3, size=5)
    onehot = Tensor(np.eye(3)[labels])

    err = finite_diff_check(lambda p: _mlp_loss(p, x, onehot, widths), Tensor(theta), eps=1e-3)
    assert err < 1e-4


# ---- hypergrad -------------------------------------------------------------


def test_hypergrad_matches_closed_form_1d():
    # model f(theta, s) = theta*s, synthetic loss 0.5*(theta*s)^2,
    # match loss (dL/dtheta - g)^2 with constant g:
    # d(match)/ds = 4*theta*s*(theta*s^2 - g)
    theta_v, s_v, g_v = 1.5, 0.8, 0.3
    theta = Tensor(np.array(theta_v), requires_grad=True)
    s = Tensor(np.array(s_v), requires_grad=True)
    syn_loss = 0.5 * (theta * s) ** 2
    (g_theta,) = grad(syn_loss, [theta], create_graph=True)
    match = (g_theta - Tensor(np.array(g_v))) ** 2
    (hyp,) = hypergrad(match, [s])
    expected = 4.0 * theta_v * s_v * (theta_v * s_v**2 - g_v)
    np.testing.assert_allclose(hyp.data, expected, rtol=1e-12)


def test_hypergrad_independent_loss_is_zero():
    s = _leaf([1.0, 2.0])
    theta = _leaf([3.0])
    loss = asum(mul(theta, theta))
    (g_theta,) = grad(loss, [theta], create_graph=True)
    match = asum(mul(g_theta, g_theta))
    (hyp,) = hypergrad(match, [s])
    np.testing.assert_array_equal(hyp.data, np.zeros(2))


def test_hypergrad_without_retention_raises():
    theta = _leaf([2.0])
    s = _leaf([0.5])
    loss = asum(mul(mul(theta, s), mul(theta, s)))
    (g_theta,) = grad(loss, [theta])  # no create_graph
    match = asum(mul(g_theta, g_theta))
    with pytest.raises(GraphError, match="create_graph"):
        hypergrad(match, [s])


def test_hypergrad_requires_grad_inputs():
    s = Tensor(np.array([0.5]))
    with pytest.raises(GraphError):
        hypergrad(Tensor(np.array(1.0)), [s])


def test_hypergrad_matches_finite_differences():
    # pipeline: inner grad of a tiny model loss, cosine-style distance to a
    # fixed gradient, differentiated w.r.t. the synthetic batch
    rng = _rng(5)
    w0 = rng.normal(size=(3, 2))
    target = rng.normal(size=(3, 2))

    def match_loss(s_leaf):
        w = Tensor(w0, requires_grad=True)
        logits = matmul(s_leaf, w)
        loss = asum(mul(logits, logits))
        (gw,) = grad(loss, [w], create_graph=True)
        diff = gw - Tensor(target)
        return asum(mul(diff, diff))

    err = finite_diff_check(match_loss, Tensor(rng.normal(size=(4, 3))), eps=1e-4)
    assert err < 1e-6


def test_second_order_mixed_partials_symmetric():
    # f(x, y) = x^2*y + sin(x)*y^2: d2f/dxdy == d2f/dydx
    for seed in range(10):
        rng = _rng(seed)
        xv, yv = rng.normal(size=2)
        x = Tensor(np.array(xv), requires_grad=True)
        y = Tensor(np.array(yv), requires_grad=True)
        f = mul(mul(x, x), y) + mul(sin(x), mul(y, y))
        (gx,) = grad(f, [x], create_graph=True)
        (gxy,) = grad(gx, [y])
        f2 = mul(mul(x, x), y) + mul(sin(x), mul(y, y))
        (gy,) = grad(f2, [y], create_graph=True)
        (gyx,) = grad(gy, [x])
        assert abs(gxy.data.item() - gyx.data.item()) < 1e-5


def test_gradient_linearity():
    rng = _rng(11)
    for seed in range(20):
        w = Tensor(rng.normal(size=6), requires_grad=True)
        a, b = rng.normal(size=2)
        l1 = asum(mul(w, w))
        l2 = asum(sin(w))
        combined = l1 * float(a) + l2 * float(b)
        gc = grad(combined, [w])[0].data
        g1 = grad(l1, [w])[0].data
        g2 = grad(l2, [w])[0].data
        np.testing.assert_allclose(gc, a * g1 + b * g2, atol=1e-6)


def test_randomized_fd_property_many_seeds():
    # smaller cousin of the acceptance sweep: grad for random op chains
    for seed in range(30):
        rng = _rng(1000 + seed)
        x = rng.normal(size=7)

        def f(t):
            return asum(mul(sin(t), exp(t * 0.3))) + asum(sqrt(mul(t, t) + 1.0))

        assert finite_diff_check(f, Tensor(x), eps=1e-5) < 1e-6


# ---- structural ops ---------------------------------------------------------


def test_matmul_transpose_grads():
    rng = _rng(3)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    out = matmul(a, b)
    g = grad(asum(out), [a, b])
    np.testing.assert_allclose(g[0].data, np.ones((3, 2)) @ b.data.T, rtol=1e-12)
    np.testing.assert_allclose(g[1].data, a.data.T @ np.ones((3, 2)), rtol=1e-12)


def test_slice_concat_roundtrip_gradient():
    x = _leaf(np.arange(12.0).reshape(4, 3))
    # the slices are reassembled by padding each back to full size and adding
    y = pad_slice(take_slice(x, 0, 0, 2), x.shape, 0, 0) + pad_slice(take_slice(x, 0, 2, 4),
                                                                    x.shape, 0, 2)
    g = grad(asum(mul(y, y)), [x])[0]
    np.testing.assert_allclose(g.data, 2 * x.data)


def test_expand_sum_duality():
    x = _leaf(np.array([[1.0], [2.0]]))
    y = expand(x, (2, 3))
    g = grad(asum(mul(y, y)), [x])[0]
    np.testing.assert_allclose(g.data, 2 * x.data * 3)


def test_expand_output_is_read_only():
    y = expand(_leaf(np.array([[1.0], [2.0]])), (2, 3))
    assert not y.data.flags.writeable
    with pytest.raises(ValueError):
        y.data[0, 0] = 5.0


def test_reductions_and_products_ignore_views():
    # numpy orders the additions of a reduction over a broadcast view
    # differently from the contiguous copy; the ops must not
    for seed in range(10):
        rng = _rng(seed)
        view = expand(Tensor(rng.normal(size=(32, 16, 1, 1))), (32, 16, 8, 8))
        copy = Tensor(np.ascontiguousarray(view.data))
        assert asum(view).data.tobytes() == asum(copy).data.tobytes()
        row = expand(Tensor(rng.normal(size=(1, 16))), (64, 16))
        w = Tensor(rng.normal(size=(16, 10)))
        assert (matmul(row, w).data.tobytes()
                == matmul(Tensor(np.ascontiguousarray(row.data)), w).data.tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_sum_equals_numpy_bitwise(dtype):
    rng = _rng(17)
    for k in range(2, 9):
        for wk in (1, 2, 3, 8):
            for hk in (1, 2, 5):
                x = rng.normal(size=(2, 3, hk * k, wk * k)) * 10.0 ** rng.uniform(-3, 3)
                # relu outputs hold -0.0, whose windows numpy sums to +0.0
                x = np.where(rng.random(x.shape) < 0.3, -0.0, x).astype(dtype)
                x6 = x.reshape(2, 3, hk, k, wk, k)
                out = window_sum(Tensor(x6)).data
                assert out.tobytes() == x6.sum(axis=(3, 5)).tobytes(), (k, wk, hk)


def test_im2col_equals_slice_loop():
    rng = _rng(11)
    x = rng.normal(size=(2, 3, 5, 5))
    k = 3
    for stride in (1, 2):
        for padding in (0, 1):
            xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
            oh = (5 + 2 * padding - k) // stride + 1
            ref = np.empty((2, oh, oh, 3, k, k))
            for i in range(oh):
                for j in range(oh):
                    ref[:, i, j] = xp[:, :, i * stride:i * stride + k, j * stride:j * stride + k]
            cols = im2col(Tensor(x), k, stride, padding).data
            np.testing.assert_array_equal(cols, ref.reshape(2 * oh * oh, 3 * k * k))


def test_im2col_col2im_adjoint_pair():
    # <im2col(x), c> == <x, col2im(c)> for random x, c: the defining property
    rng = _rng(9)
    x = rng.normal(size=(2, 3, 4, 4))
    cols_shape = im2col(Tensor(x), 3, 1, 1).shape
    c = rng.normal(size=cols_shape)
    lhs = float((im2col(Tensor(x), 3, 1, 1).data * c).sum())
    rhs = float((x * col2im(Tensor(c), x.shape, 3, 1, 1).data).sum())
    assert abs(lhs - rhs) < 1e-9


@st.composite
def _patch_geometry(draw):
    """(B, C, H, W, k, stride, padding) with H and W that the patches tile exactly."""
    k, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    padding = draw(st.integers(0, k - 1))
    fewest = 1 + max(0, -(-(2 * padding + 1 - k) // stride))   # so that H, W >= 1
    oh, ow = (draw(st.integers(fewest, fewest + 3)) for _ in range(2))
    h, w = ((n - 1) * stride + k - 2 * padding for n in (oh, ow))
    return draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w, k, stride, padding


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(_patch_geometry(), st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
def test_patch_kernels_equal_the_nchw_references_bit_for_bit(geometry, dtype, seed):
    b, c, h, w, k, stride, padding = geometry
    rng = _rng(seed)
    specials = np.array([-0.0, np.inf, -np.inf, np.nan])

    def draw_array(shape):
        x = rng.normal(size=shape)
        seeded = rng.random(shape) < 0.2
        x[seeded] = rng.choice(specials, size=int(seeded.sum()))
        return x.astype(dtype)

    bits = np.uint32 if dtype == np.float32 else np.uint64
    x = draw_array((b, c, h, w))
    cols = im2col(Tensor(x), k, stride, padding).data
    assert cols.dtype == dtype and cols.flags.c_contiguous
    np.testing.assert_array_equal(cols.view(bits), im2col_reference(x, k, stride, padding).view(bits))
    g = draw_array(cols.shape)
    with np.errstate(invalid="ignore"):   # inf + -inf
        back = col2im(Tensor(g), x.shape, k, stride, padding).data
        ref = col2im_reference(g, x.shape, k, stride, padding)
    assert back.dtype == dtype and back.flags.c_contiguous
    # A NaN meeting a NaN of the other sign (inf + -inf makes a negative one) keeps
    # whichever operand numpy's loop for that memory layout returns; so NaNs are
    # compared by position, every other element by its bits.
    nan = np.isnan(ref)
    np.testing.assert_array_equal(np.isnan(back), nan)
    np.testing.assert_array_equal(back[~nan].view(bits), ref[~nan].view(bits))
    # adjoint identity <im2col(x), g> == <x, col2im(g)> on finite float64 operands
    x, g = rng.normal(size=x.shape), rng.normal(size=cols.shape)
    lhs = float((im2col(Tensor(x), k, stride, padding).data * g).sum())
    rhs = float((x * col2im(Tensor(g), x.shape, k, stride, padding).data).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(g).sum() * np.abs(x).max())


def test_im2col_gradient_matches_fd():
    rng = _rng(21)
    w = rng.normal(size=(9 * 2, 3))

    def f(t):
        cols = im2col(t, 3, 1, 1)
        return asum(mul(matmul(cols, Tensor(w)), matmul(cols, Tensor(w))))

    err = finite_diff_check(f, Tensor(rng.normal(size=(1, 2, 4, 4))), eps=1e-4)
    assert err < 1e-6


def test_no_grad_blocks_recording():
    x = _leaf([1.0, 2.0])
    with no_grad():
        y = mul(x, x)
    assert not y.requires_grad
    g = grad(asum(mul(x, x)), [x])[0]
    np.testing.assert_allclose(g.data, [2.0, 4.0])


def test_division_gradients():
    a = _leaf([3.0, 8.0])
    b = _leaf([2.0, 4.0])
    out = asum(div(a, b))
    ga, gb = (g.data for g in grad(out, [a, b]))
    np.testing.assert_allclose(ga, 1.0 / b.data)
    np.testing.assert_allclose(gb, -a.data / b.data**2)


def test_check_finite_raises():
    t = Tensor(np.array([1.0, np.inf]))
    with pytest.raises(NumericError):
        t.check_finite("unit test")


# ---- ParamSet ----------------------------------------------------------------


def test_paramset_rejects_duplicate_names():
    t = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ShapeError):
        ParamSet([("w", t, "linear"), ("w", t, "linear")])


def _two_entry_params():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([0.5]), requires_grad=True)
    return ParamSet([("w", w, "linear"), ("b", b, "norm")])


def test_paramset_grad_returns_paramset():
    params = _two_entry_params()
    w, b = params.tensors()
    gs = grad(asum(mul(w, w)) + asum(b), params)
    assert isinstance(gs, ParamSet)
    assert layout(gs) == layout(params)
    params.congruent_with(gs)
    np.testing.assert_allclose(gs.arrays()[0], [2.0, 4.0])
    np.testing.assert_allclose(gs.arrays()[1], [1.0])


def test_grad_of_a_paramset_keeps_a_graph_only_when_asked():
    params = _two_entry_params()
    w, b = params.tensors()
    loss = asum(mul(w, w)) + asum(mul(b, b))
    plain = grad(loss, params)
    assert all(not g.requires_grad and g._parents == () and g._detached_src
               for g in plain.tensors())
    kept = grad(loss, params, create_graph=True)
    assert all(g.requires_grad and g._parents for g in kept.tensors())
    assert [g.data.tobytes() for g in kept.tensors()] == [a.tobytes() for a in plain.arrays()]


def test_paramset_like_takes_tensors_as_they_are():
    params = _two_entry_params()
    const, tracked = Tensor(np.zeros(2)), Tensor(np.ones(1), requires_grad=True)
    out = params.like([const, tracked])
    assert layout(out) == layout(params)
    assert out.tensors()[0] is const and out.tensors()[1] is tracked
    assert [t.requires_grad for t in out.tensors()] == [False, True]
    with pytest.raises(ShapeError):
        params.like([const])


def test_paramset_congruent_with_names_the_entry_at_fault():
    params = _two_entry_params()
    renamed = ParamSet([("w", Tensor(np.zeros(2)), "linear"), ("c", Tensor(np.zeros(1)), "norm")])
    with pytest.raises(ShapeError, match="'c'"):
        params.congruent_with(renamed)
    reshaped = params.like([Tensor(np.zeros(3)), Tensor(np.zeros(1))])
    with pytest.raises(ShapeError, match=r"'w' of shape \(3,\)"):
        params.congruent_with(reshaped)
    with pytest.raises(ShapeError, match="1 entries where 2"):
        params.congruent_with(ParamSet([("w", Tensor(np.zeros(2)), "linear")]))


def test_paramset_clone_is_deep():
    w = Tensor(np.array([1.0]), requires_grad=True)
    params = ParamSet([("w", w, "linear")])
    cloned = params.clone()
    cloned.get("w").data[0] = 99.0
    assert params.get("w").data[0] == 1.0


def test_mean_and_transpose():
    x = _leaf(np.arange(6.0).reshape(2, 3))
    m = mean(x, axes=(1,))
    np.testing.assert_allclose(m.data, [1.0, 4.0])
    t = transpose(x)
    assert t.shape == (3, 2)
    g = grad(asum(mul(t, t)), [x])[0]
    np.testing.assert_allclose(g.data, 2 * x.data)
