import math

import numpy as np
import pytest

from cdkd import oracle
from cdkd.losses import (DistillConfig, cd_loss, ce_loss,
                         channel_weights, gkd_loss, kd_loss, total_loss)
from cdkd.tensor import Tensor, backward


def cw(values):
    return Tensor(np.asarray(values, dtype=np.float32))


# -- channel weights -----------------------------------------------------------


def test_channel_weights_is_spatial_mean():
    got = channel_weights(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
    np.testing.assert_allclose(got.data, [[2.5]])


def test_channel_weights_zero_map():
    got = channel_weights(Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32)))
    assert np.all(got.data == 0)


def test_channel_weights_random_vs_oracle():
    x = np.random.default_rng(0).normal(size=(4, 8, 7, 7)).astype(np.float32)
    got = channel_weights(Tensor(x)).data
    np.testing.assert_allclose(got, oracle.oracle_channel_weights(x), atol=1e-6)


def test_channel_weights_rejects_non_4d():
    with pytest.raises(ValueError, match="4-D"):
        channel_weights(Tensor(np.zeros((3, 4))))


# -- cd loss ---------------------------------------------------------------


def test_cd_zero_on_equal_and_zero_gradient():
    vals = np.random.default_rng(1).normal(size=(3, 5)).astype(np.float32)
    ws = Tensor(vals, requires_grad=True)
    loss = cd_loss(ws, cw(vals))
    assert loss.item() == 0.0
    backward(loss)
    np.testing.assert_array_equal(ws.grad, np.zeros((3, 5), dtype=np.float32))


def test_cd_direct_substitution():
    assert cd_loss(cw([[1.0, 0.0]]), cw([[0.0, 1.0]])).item() == pytest.approx(1.0)


def test_cd_random_vs_oracle():
    rng = np.random.default_rng(2)
    ws = rng.normal(size=(4, 16)).astype(np.float32)
    wt = rng.normal(size=(4, 16)).astype(np.float32)
    assert cd_loss(cw(ws), cw(wt)).item() == pytest.approx(
        oracle.oracle_cd(ws, wt), abs=1e-6)


def test_cd_detaches_teacher_side():
    rng = np.random.default_rng(3)
    s = Tensor(rng.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
    t = Tensor(rng.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
    backward(cd_loss(s, t))
    assert s.grad is not None
    assert t.grad is None


def test_cd_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cd_loss(cw([[1.0, 2.0]]), cw([[1.0, 2.0, 3.0]]))


# -- kd loss ---------------------------------------------------------------


def test_kd_zero_for_identical_logits():
    logits = np.random.default_rng(4).normal(size=(5, 7)).astype(np.float32)
    assert kd_loss(Tensor(logits), Tensor(logits), 4.0).item() == pytest.approx(0.0, abs=1e-7)


def test_kd_extreme_logits_reach_ln2():
    # teacher certain of class 0, student uniform: KL -> ln 2
    t = Tensor(np.array([[60.0, 0.0]], dtype=np.float32))
    s = Tensor(np.array([[0.0, 0.0]], dtype=np.float32))
    assert kd_loss(s, t, 1.0).item() == pytest.approx(math.log(2.0), abs=1e-5)


def test_kd_random_vs_oracle():
    rng = np.random.default_rng(5)
    s = (rng.normal(size=(8, 5)) * 3).astype(np.float32)
    t = (rng.normal(size=(8, 5)) * 3).astype(np.float32)
    assert kd_loss(Tensor(s), Tensor(t), 3.0).item() == pytest.approx(
        oracle.oracle_kd(s, t, 3.0), rel=1e-5, abs=1e-6)


def test_kd_nonnegative_randomized():
    rng = np.random.default_rng(6)
    for _ in range(25):
        s = Tensor((rng.normal(size=(4, 6)) * 4).astype(np.float32))
        t = Tensor((rng.normal(size=(4, 6)) * 4).astype(np.float32))
        assert kd_loss(s, t, float(rng.uniform(0.5, 8))).item() >= -1e-7


def test_kd_t_squared_switch():
    rng = np.random.default_rng(7)
    s = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    t = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    plain = kd_loss(s, t, 4.0).item()
    scaled = kd_loss(s, t, 4.0, t_squared=True).item()
    assert scaled == pytest.approx(16.0 * plain, rel=1e-6)


# -- gkd loss --------------------------------------------------------------


def test_gkd_all_wrong_teacher_returns_zero():
    t = Tensor(np.array([[5.0, 0.0], [5.0, 0.0]], dtype=np.float32))
    s = Tensor(np.array([[0.3, 0.6], [0.1, 0.2]], dtype=np.float32), requires_grad=True)
    loss, count = gkd_loss(s, t, np.array([1, 1]), 2.0)
    assert loss.item() == 0.0 and count == 0


def test_gkd_equals_kd_when_teacher_always_correct():
    rng = np.random.default_rng(8)
    t = (rng.normal(size=(6, 4)) * 2).astype(np.float32)
    labels = np.argmax(t, axis=1)
    s = (rng.normal(size=(6, 4)) * 2).astype(np.float32)
    g, count = gkd_loss(Tensor(s), Tensor(t), labels, 4.0)
    k = kd_loss(Tensor(s), Tensor(t), 4.0)
    assert count == 6
    assert g.item() == k.item()          # same masked kernel: exact equality


def test_gkd_single_correct_sample_vs_masked_oracle():
    t = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0]], dtype=np.float32)
    s = np.array([[1.0, 2.0, 0.5], [0.2, 0.1, 0.9]], dtype=np.float32)
    labels = np.array([0, 2])            # teacher correct only on sample 0
    got, count = gkd_loss(Tensor(s), Tensor(t), labels, 2.0)
    want, want_count = oracle.oracle_gkd(s, t, labels, 2.0)
    assert count == want_count == 1
    assert got.item() == pytest.approx(want, rel=1e-5)


def test_gkd_invariant_to_teacher_wrong_rows():
    rng = np.random.default_rng(9)
    t = np.array([[4.0, 0.0], [0.0, 4.0], [4.0, 0.0]], dtype=np.float32)
    labels = np.array([0, 0, 0])         # rows 1 is teacher-wrong
    s = rng.normal(size=(3, 2)).astype(np.float32)
    base, _ = gkd_loss(Tensor(s), Tensor(t), labels, 3.0)
    s2 = s.copy()
    s2[1] += rng.normal(size=2) * 10     # perturb only the wrong row
    moved, _ = gkd_loss(Tensor(s2), Tensor(t), labels, 3.0)
    assert moved.item() == base.item()   # exactly unchanged

    st = Tensor(s, requires_grad=True)
    loss, _ = gkd_loss(st, Tensor(t), labels, 3.0)
    backward(loss)
    np.testing.assert_array_equal(st.grad[1], np.zeros(2, dtype=np.float32))
    assert np.any(st.grad[0] != 0)


def test_gkd_teacher_shift_invariance():
    rng = np.random.default_rng(10)
    t = (rng.normal(size=(5, 6)) * 2).astype(np.float32)
    s = (rng.normal(size=(5, 6)) * 2).astype(np.float32)
    labels = np.argmax(t, axis=1)
    labels[2] = (labels[2] + 1) % 6      # make one row teacher-wrong
    base, nb = gkd_loss(Tensor(s), Tensor(t), labels, 4.0)
    shifted = t + 7.5                    # constant shift per row preserves softmax
    got, ng = gkd_loss(Tensor(s), Tensor(shifted), labels, 4.0)
    assert ng == nb
    assert got.item() == pytest.approx(base.item(), abs=1e-6)


def test_gkd_argmax_ties_break_to_lowest_index():
    t = Tensor(np.array([[1.0, 1.0, 0.0]], dtype=np.float32))
    s = Tensor(np.array([[0.2, 0.4, 0.1]], dtype=np.float32))
    _, count0 = gkd_loss(s, t, np.array([0]), 2.0)
    _, count1 = gkd_loss(s, t, np.array([1]), 2.0)
    assert count0 == 1 and count1 == 0


def test_gkd_label_out_of_range():
    with pytest.raises(ValueError, match="label"):
        gkd_loss(Tensor(np.zeros((1, 3), dtype=np.float32)),
                 Tensor(np.zeros((1, 3), dtype=np.float32)), np.array([3]), 2.0)


# -- ce loss ---------------------------------------------------------------


def test_ce_confident_correct_is_tiny():
    logits = np.full((3, 5), 0.0, dtype=np.float32)
    labels = np.array([1, 2, 4])
    logits[np.arange(3), labels] = 50.0
    assert ce_loss(Tensor(logits), labels).item() <= 1e-6


def test_ce_uniform_is_log_k():
    k = 7
    logits = Tensor(np.zeros((4, k), dtype=np.float32))
    assert ce_loss(logits, np.array([0, 1, 2, 3])).item() == pytest.approx(
        math.log(k), rel=1e-6)


def test_ce_random_vs_oracle():
    rng = np.random.default_rng(11)
    logits = (rng.normal(size=(8, 5)) * 3).astype(np.float32)
    labels = rng.integers(0, 5, size=8)
    assert ce_loss(Tensor(logits), labels).item() == pytest.approx(
        oracle.oracle_ce(logits, labels), rel=1e-5)


def test_ce_label_out_of_range():
    with pytest.raises(ValueError, match="label"):
        ce_loss(Tensor(np.zeros((2, 3), dtype=np.float32)), np.array([0, 5]))


# -- total loss --------------------------------------------------------------


def _scalar(v):
    return Tensor(np.float32(v))


def test_total_degenerate_cases():
    ce = _scalar(1.25)
    bd = total_loss([_scalar(0.0)], _scalar(0.0), ce, edt_weight=0.7)
    assert bd.total == pytest.approx(ce.item())
    bd = total_loss([_scalar(0.4)], _scalar(0.2), _scalar(1.0), edt_weight=0.0)
    assert bd.total == pytest.approx(1.2)


def test_total_direct_evaluation():
    bd = total_loss([_scalar(0.4), _scalar(0.6)], _scalar(0.2), _scalar(1.0),
                    edt_weight=0.5)
    assert bd.cd == pytest.approx(0.5)
    assert bd.total == pytest.approx(0.5 * 0.5 + 0.2 + 1.0, abs=1e-7)


def test_total_decomposition_identity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        cd_terms = [_scalar(v) for v in rng.uniform(0, 2, size=3)]
        bd = total_loss(cd_terms, _scalar(rng.uniform(0, 2)),
                        _scalar(rng.uniform(0, 3)), edt_weight=float(rng.uniform(0, 2)))
        assert abs(bd.total - (bd.edt_weight * bd.cd + bd.gkd + bd.ce)) <= 1e-6


def test_total_empty_cd_terms_rejected():
    with pytest.raises(ValueError, match="cd terms"):
        total_loss([], _scalar(0.1), _scalar(1.0), edt_weight=1.0)


def test_total_without_cd_or_gkd_reuses_ce_node():
    ce = _scalar(2.0)
    bd = total_loss([], None, ce, edt_weight=0.0, cd_enabled=False)
    assert bd.objective is ce
    assert bd.cd == 0.0 and bd.gkd == 0.0


def test_distill_config_validation():
    with pytest.raises(ValueError):
        DistillConfig(temperature=0.0)
    with pytest.raises(ValueError):
        DistillConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        DistillConfig(lam=0.0)
    with pytest.raises(ValueError):
        DistillConfig(gkd_enabled=True, plain_kd_fallback=True)
    assert DistillConfig().temperature == 4.0


def test_cd_loss_nonnegative_randomized():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = rng.normal(size=(3, 6)).astype(np.float32)
        b = rng.normal(size=(3, 6)).astype(np.float32)
        assert cd_loss(cw(a), cw(b)).item() >= 0.0
