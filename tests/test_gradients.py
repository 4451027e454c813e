"""Analytic gradients vs central finite differences, per op and end to end."""

import numpy as np

from cdkd.gradcheck import composite_grad_reports, grad_reports
from cdkd.oracle import finite_diff_grad
from cdkd.tensor import Tensor, backward, conv2d, global_avg_pool


def test_every_op_and_loss_matches_finite_differences():
    reports = grad_reports(seed=0, cases=20)
    ops = {r.case_id.split("/")[1] for r in reports}
    assert {"add", "sub", "mul", "scalar-mul", "square-mean", "relu", "log",
            "matmul", "add_bias", "conv2d-input", "conv2d-kernel",
            "global_avg_pool", "softened_softmax", "kd", "gkd", "ce",
            "cd"} <= ops
    failures = [r for r in reports if not r.passed]
    assert not failures, failures[:5]


def test_conv_relu_gap_composite_gradcheck():
    rng = np.random.default_rng(9)
    k = Tensor((rng.normal(size=(3, 2, 3, 3)) * 0.5).astype(np.float32))

    def f(t):
        return global_avg_pool(conv2d(t, k, stride=1, padding=1).relu()).square().sum()

    x0 = rng.normal(size=(1, 2, 6, 6))
    x = Tensor(x0.astype(np.float32), requires_grad=True)
    backward(f(x))
    fd = finite_diff_grad(lambda a: f(Tensor(a)).item(), x0, step=1e-3)
    scale = max(np.abs(fd).max(), np.abs(x.grad).max())
    assert np.abs(x.grad - fd).max() / scale <= 1e-3


def test_full_objective_gradients_through_student_and_adapter():
    reports = composite_grad_reports(seed=0)
    assert {r.case_id for r in reports} == {
        "grad/composite/s0b0.conv1", "grad/composite/fc.w",
        "grad/composite/adapter0.w"}
    failures = [r for r in reports if not r.passed]
    assert not failures, failures
