import math
import os
import threading

import numpy as np
import pytest

from cdkd.tensor import (AutodiffError, ShapeError, Tensor, add_bias, backward,
                         conv2d, global_avg_pool, no_grad, softened_softmax)


def test_relu_definition():
    out = Tensor([-1.0, 0.0, 2.0]).relu()
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_gradient_at_zero_is_zero():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    backward(x.relu().sum())
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_mean_example():
    assert Tensor([1.0, 2.0, 3.0, 4.0]).mean().item() == pytest.approx(2.5)


def test_log_clamps_tiny_inputs():
    out = Tensor([0.0, 1e-20, 1.0]).log()
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(math.log(1e-12))
    assert out.data[2] == pytest.approx(0.0)


def test_identity_kernel_conv_is_identity():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 5, 5)).astype(np.float32))
    k = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    np.testing.assert_allclose(conv2d(x, k).data, x.data, atol=0)


def test_conv_zero_input_gives_zero_output():
    x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    k = Tensor(np.random.default_rng(1).normal(size=(2, 3, 3, 3)).astype(np.float32))
    assert np.all(conv2d(x, k, padding=1).data == 0)


def test_conv_channel_mismatch_names_dimension():
    x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    k = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="dim 1"):
        conv2d(x, k)


def test_conv_non_integral_output_rejected():
    x = Tensor(np.zeros((1, 1, 6, 6), dtype=np.float32))
    k = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="non-integral"):
        conv2d(x, k, stride=2, padding=1)


def test_global_avg_pool_example():
    out = global_avg_pool(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
    np.testing.assert_allclose(out.data, [[2.5]])


def test_global_avg_pool_constant_map():
    out = global_avg_pool(Tensor(np.full((2, 3, 4, 4), 7.0, dtype=np.float32)))
    np.testing.assert_allclose(out.data, np.full((2, 3), 7.0), rtol=1e-7)


def test_softened_softmax_symmetric():
    out = softened_softmax(Tensor([[0.0, 0.0]]), 3.0)
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-7)


def test_softened_softmax_exact_exponents():
    out = softened_softmax(Tensor([[math.log(4.0), 0.0]]), 1.0)
    np.testing.assert_allclose(out.data, [[0.8, 0.2]], atol=1e-6)


def test_softened_softmax_temperature_two():
    out = softened_softmax(Tensor([[2.0, 0.0]]), 2.0)
    e = math.e
    np.testing.assert_allclose(out.data, [[e / (e + 1), 1 / (e + 1)]], atol=1e-6)


def test_softened_softmax_rejects_nonpositive_temperature():
    with pytest.raises(ValueError, match="temperature"):
        softened_softmax(Tensor([[1.0, 2.0]]), 0.0)


def test_softened_softmax_stable_for_huge_logits():
    rng = np.random.default_rng(3)
    logits = Tensor((rng.uniform(-1e4, 1e4, size=(16, 10))).astype(np.float32))
    p = softened_softmax(logits, 1.0).data
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(axis=1), np.ones(16), atol=1e-6)


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 5)), requires_grad=True)
    backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((3, 5), dtype=np.float32))


def test_backward_quadratic_minimum_gives_zeros():
    vals = np.random.default_rng(1).normal(size=(4,)).astype(np.float32)
    x = Tensor(vals, requires_grad=True)
    y = Tensor(vals)
    backward((x - y).square().mean())
    np.testing.assert_array_equal(x.grad, np.zeros(4, dtype=np.float32))


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(AutodiffError, match="scalar"):
        backward(x + x)


def test_backward_twice_rejected():
    x = Tensor([1.0], requires_grad=True)
    loss = x.mean()
    backward(loss)
    with pytest.raises(AutodiffError, match="already ran"):
        backward(loss)


def test_backward_through_a_consumed_graph_rejected():
    """A second backward that reaches an op the first one consumed raises
    before it adds anything; without the check x.grad would read 10, not 8."""
    x = Tensor([1.0], requires_grad=True)
    h = x * 2
    backward(h.sum())
    with pytest.raises(AutodiffError, match=r"already ran .* shape \(1,\)"):
        backward((h * 3).sum())
    np.testing.assert_array_equal(x.grad, [2.0])
    backward(((x * 2) * 3).sum())          # the rebuilt graph adds its 6
    np.testing.assert_array_equal(x.grad, [8.0])


def test_backward_consumes_the_graph_and_leaves_keep_grads():
    """Every op output backward passes drops its vjp (and the buffers it
    saved), its parents and its .grad; every leaf keeps its gradient."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 2, 6, 6)).astype(np.float32), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(5, np.float32), requires_grad=True)
    feat = global_avg_pool(conv2d(x, k, padding=1).relu())
    p = softened_softmax(add_bias(feat @ w, b), 2.0)
    loss = (p.log() * Tensor(rng.random((3, 5)).astype(np.float32))).mean()
    ops, leaves, stack = {}, {}, [loss]
    while stack:
        node = stack.pop()
        if node.node_id in ops or node.node_id in leaves:
            continue
        (ops if node._vjp is not None else leaves)[node.node_id] = node
        stack.extend(node._parents)
    assert len(ops) == 9 and len(leaves) == 5
    backward(loss)
    for node in ops.values():
        assert node._vjp is None and node.grad is None and node._parents == ()
    for node in leaves.values():
        assert (node.grad is not None) == node.requires_grad


def test_gradients_accumulate_across_uses():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(((x + x) + x).sum())
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_gradients_accumulate_across_graphs():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(x.sum())
    backward((x * 2.0).sum())
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_non_grad_tensor_never_accumulates():
    x = Tensor([1.0, 2.0])
    y = Tensor([3.0, 4.0], requires_grad=True)
    backward((x * y).sum())
    assert x.grad is None
    np.testing.assert_array_equal(y.grad, [1.0, 2.0])


def test_backward_linearity():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(3, 3)).astype(np.float32)
    w = Tensor(rng.normal(size=(3, 3)).astype(np.float32))

    def loss1(t):
        return (t * w).sum()

    def loss2(t):
        return t.square().mean()

    a, b = 2.5, -0.75
    x = Tensor(vals, requires_grad=True)
    backward(loss1(x) * a + loss2(x) * b)
    combined = x.grad.copy()

    x1 = Tensor(vals, requires_grad=True)
    backward(loss1(x1))
    x2 = Tensor(vals, requires_grad=True)
    backward(loss2(x2))
    np.testing.assert_allclose(combined, a * x1.grad + b * x2.grad, atol=1e-5)


def test_broadcast_limited_to_scalar():
    x = Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="mismatch"):
        x + Tensor(np.zeros(3, dtype=np.float32))
    # a Python number is the one operand that broadcasts
    out = x + 5.0
    assert np.all(out.data == 5.0) and out.shape == (2, 3)
    assert (x * 2.0).shape == (2, 3)
    # a tensor keeps its data's rank, and a size-1 tensor is no scalar
    assert Tensor(5.0).shape == ()
    for one in (Tensor(5.0), Tensor(np.ones(1, dtype=np.float32))):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ShapeError, match="rank mismatch"):
                op(x, one)
            with pytest.raises(ShapeError, match="rank mismatch"):
                op(one, x)


def test_add_bias_semantics_and_grad():
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    b = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
    out = add_bias(x, b)
    np.testing.assert_array_equal(out.data, [[2, 3, 4], [2, 3, 4]])
    backward(out.sum())
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])
    with pytest.raises(ShapeError):
        add_bias(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))


def test_matmul_inner_dim_error():
    with pytest.raises(ShapeError, match="inner"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))


def test_detach_cuts_graph():
    x = Tensor([2.0], requires_grad=True)
    y = x.square().detach()
    assert not y.requires_grad
    z = Tensor([1.0], requires_grad=True)
    backward((y * z).sum())
    assert x.grad is None


def test_no_grad_context_suspends_recording():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        y = x.square().sum()
    assert not y.requires_grad
    assert y._parents == ()


def test_no_grad_holds_only_in_its_own_thread():
    """While one thread sits inside no_grad, an op in another thread still
    records its vjp, and the first thread's ops record none."""
    inside, leave = threading.Event(), threading.Event()
    seen = []

    def hold():
        with no_grad():
            seen.append(Tensor([1.0], requires_grad=True).square())
            inside.set()
            leave.wait(10)

    worker = threading.Thread(target=hold)
    worker.start()
    try:
        assert inside.wait(10)
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x.square().sum()
    finally:
        leave.set()
        worker.join(10)
    assert not worker.is_alive()
    assert y.requires_grad and y._vjp is not None
    backward(y)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    assert not seen[0].requires_grad and seen[0]._vjp is None


def test_tape_topological_order():
    """backward fires each recorded op once, after every op that consumes it."""
    x = Tensor([1.0], requires_grad=True)
    y = x.square()
    z = ((y * x) + y + x).sum()
    ops, stack = {}, [z]
    while stack:
        node = stack.pop()
        if node._vjp is not None and node.node_id not in ops:
            ops[node.node_id] = node
            stack.extend(node._parents)
    fired = []
    parents = {nid: node._parents for nid, node in ops.items()}   # backward drops them
    for node in ops.values():
        node._vjp = lambda g, n=node, f=node._vjp: (fired.append(n.node_id), f(g))
    backward(z)
    assert sorted(fired) == sorted(ops)
    pos = {nid: i for i, nid in enumerate(fired)}
    for node in ops.values():
        for parent in parents[node.node_id]:
            if parent.node_id in pos:
                assert pos[node.node_id] < pos[parent.node_id]
    np.testing.assert_allclose(x.grad, [6.0])     # d/dx (x^3 + x^2 + x) at 1


def test_bit_determinism_across_runs():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        out = global_avg_pool(conv2d(x, k, stride=1, padding=1).relu())
        loss = softened_softmax(out, 2.0).square().mean()
        backward(loss)
        return loss.data.tobytes(), x.grad.tobytes(), k.grad.tobytes()

    assert run() == run()


def test_conv_stride_and_padding_shapes():
    x = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
    k = Tensor(np.zeros((3, 2, 2, 2), dtype=np.float32))
    assert conv2d(x, k, stride=2, padding=0).shape == (1, 3, 4, 4)
    k3 = Tensor(np.zeros((3, 2, 3, 3), dtype=np.float32))
    assert conv2d(x, k3, stride=1, padding=1).shape == (1, 3, 8, 8)


def _im2col_conv_reference(x, k, stride, padding, g):
    """Plain 6-D sliding-window im2col conv, the bit-for-bit reference for
    ``conv2d``: (out, x_grad, k_grad) for the upstream gradient g."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * h_out * w_out, c_in * kh * kw)
    wmat = k.reshape(c_out, c_in * kh * kw)
    out = np.ascontiguousarray(
        (cols @ wmat.T).reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2))
    g_flat = g.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, c_out)
    k_grad = (g_flat.T @ cols).reshape(k.shape)
    gc = (g_flat @ wmat).reshape(n, h_out, w_out, c_in, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    gxp = np.zeros(xp.shape, dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + h_out * stride:stride, j:j + w_out * stride:stride] += gc[..., i, j]
    return out, gxp[:, :, padding:padding + h, padding:padding + w], k_grad


# (batch, c_in, c_out, size, kernel, stride, padding): every conv of the
# bench's three nets at 16x16 inputs and batch 32 (teacher 12-24-48, students
# 4-8-16 and 6-12-24, with both students' 1x1 adapters), batch 256 eval, the
# ledger probe's full and short batches (48 and 16 rows) and two shapes the
# model never uses. The input gradient takes one path for a kernel that tiles
# its input (stride = kernel, no padding) and per-tap GEMMs for the others.
_CONV_CASES = {
    "stem-3x3-s1-p1": (32, 3, 12, 16, 3, 1, 1),
    "stem-3x3-s1-p1-3to4@16": (32, 3, 4, 16, 3, 1, 1),
    "stem-3x3-s1-p1-3to6@16": (32, 3, 6, 16, 3, 1, 1),
    "3x3-s1-p1-12@16": (32, 12, 12, 16, 3, 1, 1),
    "3x3-s1-p1-24@8": (32, 24, 24, 8, 3, 1, 1),
    "3x3-s1-p1-48@4": (32, 48, 48, 4, 3, 1, 1),
    "3x3-s1-p1-4@16": (32, 4, 4, 16, 3, 1, 1),
    "3x3-s1-p1-8@8": (32, 8, 8, 8, 3, 1, 1),
    "3x3-s1-p1-16@4": (32, 16, 16, 4, 3, 1, 1),
    "3x3-s1-p1-6@16": (32, 6, 6, 16, 3, 1, 1),
    "3x3-s1-p1-12@8": (32, 12, 12, 8, 3, 1, 1),
    "3x3-s1-p1-24@4": (32, 24, 24, 4, 3, 1, 1),
    "2x2-s2-p0-12to24@16": (32, 12, 24, 16, 2, 2, 0),
    "2x2-s2-p0-24to48@8": (32, 24, 48, 8, 2, 2, 0),
    "2x2-s2-p0-4to8@16": (32, 4, 8, 16, 2, 2, 0),
    "2x2-s2-p0-8to16@8": (32, 8, 16, 8, 2, 2, 0),
    "2x2-s2-p0-6to12@16": (32, 6, 12, 16, 2, 2, 0),
    "2x2-s2-p0-12to24@8": (32, 12, 24, 8, 2, 2, 0),
    "proj-1x1-3to12@16": (32, 3, 12, 16, 1, 1, 0),
    "proj-1x1-3to4@16": (32, 3, 4, 16, 1, 1, 0),
    "proj-1x1-3to6@16": (32, 3, 6, 16, 1, 1, 0),
    "adapter-1x1-8to24@8": (32, 8, 24, 8, 1, 1, 0),
    "adapter-1x1-24to48@4": (32, 24, 48, 4, 1, 1, 0),
    "adapter-1x1-12to24@8": (32, 12, 24, 8, 1, 1, 0),
    "eval-3x3-s1-p1-12@16": (256, 12, 12, 16, 3, 1, 1),
    "eval-2x2-s2-p0-12to24@16": (256, 12, 24, 16, 2, 2, 0),
    "b48-3x3-s1-p1-6@16": (48, 6, 6, 16, 3, 1, 1),
    "b16-3x3-s1-p1-6@16": (16, 6, 6, 16, 3, 1, 1),
    "b48-2x2-s2-p0-6to12@16": (48, 6, 12, 16, 2, 2, 0),
    "b16-2x2-s2-p0-6to12@16": (16, 6, 12, 16, 2, 2, 0),
    "odd-3x3-s2-p1": (5, 3, 4, 9, 3, 2, 1),
    "odd-5x5-s1-p2": (3, 2, 3, 7, 5, 1, 2),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_CONV_CASES))
def test_conv_is_bit_identical_to_im2col_reference(case, dtype):
    n, c_in, c_out, size, kk, stride, padding = _CONV_CASES[case]
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(n, c_in, size, size)).astype(dtype), requires_grad=True)
    k = Tensor(rng.normal(size=(c_out, c_in, kk, kk)).astype(dtype), requires_grad=True)
    out = conv2d(x, k, stride=stride, padding=padding)
    # an upstream gradient with exact zeros of both signs, as relu masks make
    g = rng.normal(size=out.shape).astype(dtype)
    g[rng.random(out.shape) < 0.3] = 0.0
    g[rng.random(out.shape) < 0.1] = -0.0
    # and whole pixels whose every channel is +0 or -0, as a relu that shuts a
    # pixel makes: a tiling kernel copies their input gradient, not 0 + v
    zeros = np.where(rng.random(out.shape) < 0.5, -0.0, 0.0).astype(dtype)
    g = np.where(rng.random((n, 1) + out.shape[2:]) < 0.2, zeros, g)
    backward((out * Tensor(g)).sum())
    want = _im2col_conv_reference(x.data, k.data, stride, padding, g)
    for got, ref in zip((out.data, x.grad, k.grad), want):
        assert np.array_equal(got, ref)
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
        assert got.dtype == dtype
    # a parameter's gradient is C-contiguous; an activation and its gradient
    # keep channels-last memory behind their NCHW shape
    assert k.grad.flags.c_contiguous
    assert out.data.transpose(0, 2, 3, 1).flags.c_contiguous
    assert x.grad.transpose(0, 2, 3, 1).flags.c_contiguous


def _channels_last(a: np.ndarray) -> bool:
    return a.transpose(0, 2, 3, 1).flags.c_contiguous and not a.flags.c_contiguous


# the CD taps and the head input of the bench nets at batch 32 and 16x16
# inputs: teacher 12-24-48, students 4-8-16 and 6-12-24 (the adapters lift
# the student taps to the teacher's 24@8x8 and 48@4x4)
_TAP_SHAPES = [(32, 24, 8, 8), (32, 48, 4, 4), (32, 8, 8, 8), (32, 16, 4, 4),
               (32, 12, 8, 8), (32, 24, 4, 4)]


@pytest.mark.parametrize("shape", _TAP_SHAPES, ids=lambda s: f"{s[1]}@{s[2]}x{s[3]}")
def test_pool_of_a_channels_last_map_is_bit_equal_to_its_nchw_copy(shape):
    n, c, h, w = shape
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(n, 5, h, w)).astype(np.float32))
    k = Tensor(rng.normal(size=(c, 5, 3, 3)).astype(np.float32))
    tap = conv2d(x, k, padding=1).relu()
    assert _channels_last(tap.data)
    got = global_avg_pool(tap).data
    want = global_avg_pool(Tensor(np.ascontiguousarray(tap.data))).data
    assert got.tobytes() == want.tobytes()


def test_relu_conv_chain_gradients_keep_channels_last_memory():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(4, 3, 8, 8)).astype(np.float32), requires_grad=True)
    k1 = Tensor(rng.normal(size=(6, 3, 3, 3)).astype(np.float32), requires_grad=True)
    k2 = Tensor(rng.normal(size=(5, 6, 3, 3)).astype(np.float32), requires_grad=True)
    # a leaf holding a conv output: its gradient comes through relu from a conv
    h = conv2d(x, k1, padding=1).detach()
    h.requires_grad = True
    out = conv2d(h.relu(), k2, padding=1)
    g = rng.normal(size=out.shape).astype(np.float32)
    backward((out * Tensor(g)).sum())
    assert _channels_last(h.data) and _channels_last(h.grad)
    assert k2.grad.flags.c_contiguous
    # the same chain from an NCHW input: the input gradient is channels-last
    backward(global_avg_pool(conv2d(conv2d(x, k1, padding=1).relu(), k2, padding=1)).sum())
    assert _channels_last(x.grad)
    assert k1.grad.flags.c_contiguous and k2.grad.flags.c_contiguous
    # a pooled conv output, straight (a CD adapter) or through relu (the last
    # block): the gradient the pool hands back is channels-last too, so the
    # conv's vjp reads it as a view
    for through_relu in (False, True):
        h = conv2d(x, k1, padding=1).detach()
        h.requires_grad = True
        backward(global_avg_pool(h.relu() if through_relu else h).sum())
        assert _channels_last(h.grad)


def test_blas_runs_on_the_calling_thread_only():
    """conftest pins one BLAS thread: after a GEMM large enough to fan out,
    every OS thread of this process is a Python thread."""
    want = os.environ.get("OPENBLAS_NUM_THREADS")
    if want not in (None, "1"):
        pytest.skip(f"the caller asked for OPENBLAS_NUM_THREADS={want}")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    a = np.ones((768, 768), np.float32)
    a @ a
    assert len(os.listdir("/proc/self/task")) == threading.active_count()
