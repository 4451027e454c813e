import math

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
    # scalar-with-tensor is the one allowed broadcast
    out = x + Tensor(5.0)
    assert np.all(out.data == 5.0)
    assert (x * 2.0).shape == (2, 3)


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
    for node in ops.values():
        node._vjp = lambda g, n=node, f=node._vjp: (fired.append(n.node_id), f(g))
    backward(z)
    assert sorted(fired) == sorted(ops)
    pos = {nid: i for i, nid in enumerate(fired)}
    for node in ops.values():
        for parent in node._parents:
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
