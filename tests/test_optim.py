import numpy as np
import pytest

from cdkd.losses import DistillConfig
from cdkd.optim import (EdtParams, LrSchedule, SgdConfig, SgdOptimizer, edt_weight,
                        lr_at_epoch)
from cdkd.tensor import Tensor


def _param(values, grad=None):
    p = Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)
    if grad is not None:
        p.grad = np.asarray(grad, dtype=np.float32)
    return p


def test_plain_sgd_without_momentum():
    p = _param([1.0, 2.0], grad=[0.5, -0.5])
    opt = SgdOptimizer([("p", p)], SgdConfig(lr0=0.1, momentum=0.0, weight_decay=0.0))
    opt.step(lr=0.1)
    np.testing.assert_allclose(p.data, [0.95, 2.05], atol=1e-7)


def test_zero_gradient_zero_velocity_is_bitwise_noop():
    vals = np.array([0.123456, -7.5], dtype=np.float32)
    p = _param(vals)
    opt = SgdOptimizer([("p", p)], SgdConfig(lr0=0.1, momentum=0.9, weight_decay=0.0))
    opt.step(lr=0.1)
    assert p.data.tobytes() == vals.tobytes()


def test_two_steps_match_hand_rolled_recurrence():
    # quadratic 0.5*p^2: gradient is p itself
    p = _param([1.0])
    opt = SgdOptimizer([("p", p)], SgdConfig(lr0=0.1, momentum=0.9, weight_decay=0.0))
    expect_p, v = 1.0, 0.0
    for _ in range(2):
        p.grad = p.data.copy()
        g = expect_p
        v = 0.9 * v + g
        expect_p = expect_p - 0.1 * v
        opt.step(lr=0.1)
    assert p.data[0] == pytest.approx(expect_p, rel=1e-6)


def test_weight_decay_enters_update():
    p = _param([2.0], grad=[0.0])
    opt = SgdOptimizer([("p", p)], SgdConfig(lr0=1.0, momentum=0.0, weight_decay=0.1))
    opt.step(lr=1.0)
    assert p.data[0] == pytest.approx(2.0 - 1.0 * 0.1 * 2.0, rel=1e-6)


def test_optimizer_rejects_frozen_parameters():
    frozen = Tensor(np.zeros(3, dtype=np.float32), requires_grad=False)
    with pytest.raises(ValueError, match="frozen"):
        SgdOptimizer([("t", frozen)], SgdConfig(lr0=0.1))


def test_optimizer_rejects_grad_shape_mismatch():
    p = _param([1.0, 2.0])
    p.grad = np.zeros(3, dtype=np.float32)
    opt = SgdOptimizer([("p", p)], SgdConfig(lr0=0.1))
    with pytest.raises(ValueError, match="shape"):
        opt.step(lr=0.1)


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(lr0=-0.1)
    with pytest.raises(ValueError):
        SgdConfig(lr0=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        SgdConfig(lr0=0.1, weight_decay=-1e-4)


# -- learning-rate schedule -----------------------------------------------------


def test_lr_before_first_milestone():
    sched = LrSchedule(milestones=(30, 60, 90), factor=0.1)
    assert lr_at_epoch(sched, 0.1, 0) == pytest.approx(0.1)
    assert lr_at_epoch(sched, 0.1, 29) == pytest.approx(0.1)


def test_lr_paper_style_schedule():
    sched = LrSchedule(milestones=(30, 60, 90), factor=0.1)
    assert lr_at_epoch(sched, 0.1, 60) == pytest.approx(0.001)


def test_lr_derived_example():
    sched = LrSchedule(milestones=(60, 120, 160), factor=0.2)
    assert lr_at_epoch(sched, 0.1, 130) == pytest.approx(0.004)


def test_lr_is_step_function_with_expected_drops():
    sched = LrSchedule(milestones=(3, 7), factor=0.5)
    values = [lr_at_epoch(sched, 1.0, e) for e in range(10)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    drops = sum(1 for a, b in zip(values, values[1:]) if b < a)
    assert drops == len(sched.milestones)


def test_milestones_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        LrSchedule(milestones=(10, 10), factor=0.1)


def test_milestones_must_be_positive():
    """A milestone at or before epoch 0 would cut the rate before any training."""
    for ms in ((-5, 3), (0, 4)):
        with pytest.raises(ValueError, match="milestones must be >= 1"):
            LrSchedule(milestones=ms, factor=0.1)
    assert lr_at_epoch(LrSchedule(milestones=(1,)), 0.1, 0) == 0.1


# -- early decay teacher ----------------------------------------------------------


def test_edt_at_epoch_zero_is_alpha():
    p = EdtParams(alpha=0.8, lam=0.5, n_decay=30)
    assert edt_weight(p, 0) == pytest.approx(0.8)


def test_edt_one_decay_period():
    p = EdtParams(alpha=1.0, lam=0.5, n_decay=30)
    assert edt_weight(p, 30) == pytest.approx(0.5)


def test_edt_fractional_exponent():
    p = EdtParams(alpha=1.0, lam=0.5, n_decay=30)
    assert edt_weight(p, 15) == pytest.approx(0.5 ** 0.5, abs=1e-6)


def test_edt_monotone_non_increasing():
    p = EdtParams(alpha=2.0, lam=0.7, n_decay=5)
    values = [edt_weight(p, e) for e in range(40)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_edt_constant_when_lambda_one_or_alpha_zero():
    assert all(edt_weight(EdtParams(1.5, 1.0, 10), e) == 1.5 for e in range(20))
    assert all(edt_weight(EdtParams(0.0, 0.5, 10), e) == 0.0 for e in range(20))


def test_edt_param_validation():
    with pytest.raises(ValueError):
        EdtParams(alpha=-0.1, lam=0.5, n_decay=10)
    with pytest.raises(ValueError):
        EdtParams(alpha=1.0, lam=1.5, n_decay=10)
    with pytest.raises(ValueError):
        EdtParams(alpha=1.0, lam=0.5, n_decay=0)


def test_edt_of_a_config_with_no_n_decay_names_it():
    with pytest.raises(ValueError, match="n_decay must be set"):
        edt_weight(DistillConfig(), 0)
    assert edt_weight(DistillConfig(alpha=1.0, lam=0.5, n_decay=2), 2) == 0.5
