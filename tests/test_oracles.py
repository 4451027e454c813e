"""The loop oracles themselves, and engine-vs-oracle equivalence sweeps."""

import numpy as np

from cdkd import oracle
from cdkd.gradcheck import value_reports
from cdkd.tensor import Tensor, conv2d, global_avg_pool


def test_oracle_cd_zero_on_equal():
    w = np.random.default_rng(0).normal(size=(3, 5))
    assert oracle.oracle_cd(w, w) == 0.0


def test_oracle_gkd_all_wrong_is_zero():
    t = np.array([[5.0, 0.0], [5.0, 0.0]])
    s = np.array([[1.0, 2.0], [0.5, 0.5]])
    loss, count = oracle.oracle_gkd(s, t, labels=[1, 1], temperature=2.0)
    assert loss == 0.0 and count == 0


def test_finite_diff_on_sum():
    grad = oracle.finite_diff_grad(lambda a: float(a.sum()), np.zeros((2, 3)))
    np.testing.assert_allclose(grad, np.ones((2, 3)), atol=1e-9)


def test_finite_diff_on_half_norm():
    x0 = np.random.default_rng(1).normal(size=(4,))
    grad = oracle.finite_diff_grad(lambda a: float(0.5 * (a ** 2).sum()), x0)
    np.testing.assert_allclose(grad, x0, atol=1e-5)


def test_finite_diff_on_a_transposed_float64_input():
    x = np.ascontiguousarray(np.arange(6.0).reshape(2, 3).T).T     # float64, not C-ordered
    grad = oracle.finite_diff_grad(lambda a: float((a * a).sum()), x)
    np.testing.assert_allclose(grad, 2.0 * x, atol=1e-6)


def test_finite_diff_never_perturbs_the_callers_array():
    x = np.random.default_rng(3).normal(size=(3, 4))
    before = x.copy()

    def f(a):
        assert a is not x and x.tobytes() == before.tobytes()
        return float(a.sum())

    grad = oracle.finite_diff_grad(f, x)
    np.testing.assert_allclose(grad, np.ones((3, 4)), atol=1e-9)
    assert x.tobytes() == before.tobytes()


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
    k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    got = conv2d(Tensor(x), Tensor(k), stride=1, padding=1).data
    np.testing.assert_allclose(got, oracle.oracle_conv2d(x, k, 1, 1), atol=1e-5)


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4)).astype(np.float32)
    b = rng.normal(size=(4, 2)).astype(np.float32)
    got = (Tensor(a) @ Tensor(b)).data
    np.testing.assert_allclose(got, oracle.oracle_matmul(a, b), atol=1e-5)


def test_gap_matches_loop_oracle():
    x = np.random.default_rng(4).normal(size=(2, 3, 5, 5)).astype(np.float32)
    got = global_avg_pool(Tensor(x)).data
    np.testing.assert_allclose(got, oracle.oracle_channel_weights(x), atol=1e-6)


def test_engine_matches_oracles_on_50_random_cases_per_op():
    reports = value_reports(seed=0)
    ops = {r.case_id.split("/")[0] for r in reports}
    assert ops == {"matmul", "conv2d", "channel_weights", "cd", "kd", "gkd", "ce",
                   "softmax"}
    failures = [r for r in reports if not r.passed]
    assert not failures, failures[:5]
    assert max(r.max_rel_diff for r in reports) <= 1e-5
