"""Cross-checks of the engine against the loop oracles and against central
finite differences; backs the ``gradcheck`` CLI subcommand and the test suite.

Finite differences evaluate the engine forward in float64 (the oracle side
of the dual route); analytic gradients come from the normal float32
backward pass.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Tuple

import numpy as np

from . import oracle
from .losses import DistillConfig, cd_loss, ce_loss, channel_weights, gkd_loss
from .models import NetworkSpec, build_network, freeze, make_adapter
from .optim import EdtParams, edt_weight
from .tensor import (Tensor, add_bias, backward, conv2d, global_avg_pool,
                     softened_softmax)
from .train import batch_objective, teacher_targets

GRAD_TOL = 1e-3
VALUE_TOL = 1e-5
REDUCTION_TOL = 1e-6


@dataclass
class OracleReport:
    case_id: str
    max_abs_diff: float
    max_rel_diff: float
    passed: bool


def _rel(diff: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return float(np.max(np.abs(diff)) / scale)


def _report(case_id: str, got, want, tol: float) -> OracleReport:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    diff = got - want
    rel = _rel(diff, got, want)
    return OracleReport(case_id=case_id, max_abs_diff=float(np.max(np.abs(diff))),
                        max_rel_diff=rel, passed=rel <= tol)


def _grad_report(case_id: str, f: Callable[[Tensor], Tensor], x0: np.ndarray) -> OracleReport:
    """Analytic gradient of f at x0 (float32 engine) vs float64 central FD."""
    x = Tensor(np.asarray(x0, dtype=np.float32), requires_grad=True)
    backward(f(x))
    fd = oracle.finite_diff_grad(lambda arr: f(Tensor(arr)).item(), x0)
    return _report(case_id, x.grad, fd, GRAD_TOL)


# -- value checks against the loop oracles ------------------------------------


def value_reports(seed: int = 0) -> List[OracleReport]:
    rng = np.random.default_rng(seed)
    reports: List[OracleReport] = []
    for i in range(50):
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(4, 2)).astype(np.float32)
        reports.append(_report(f"matmul/{i}", (Tensor(a) @ Tensor(b)).data,
                               oracle.oracle_matmul(a, b), VALUE_TOL))

        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        k = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        if (6 + 2 * pad - 3) % stride:
            stride = 1
        got = conv2d(Tensor(x), Tensor(k), stride=stride, padding=pad).data
        reports.append(_report(f"conv2d/{i}", got,
                               oracle.oracle_conv2d(x, k, stride, pad), VALUE_TOL))

        f = rng.normal(size=(4, 8, 7, 7)).astype(np.float32)
        reports.append(_report(f"channel_weights/{i}",
                               channel_weights(Tensor(f)).data,
                               oracle.oracle_channel_weights(f), REDUCTION_TOL))

        ws = rng.normal(size=(4, 16)).astype(np.float32)
        wt = rng.normal(size=(4, 16)).astype(np.float32)
        got = cd_loss(Tensor(ws), Tensor(wt)).item()
        reports.append(_report(f"cd/{i}", got, oracle.oracle_cd(ws, wt), REDUCTION_TOL))

        s = rng.normal(size=(8, 5)).astype(np.float32) * 3
        t = rng.normal(size=(8, 5)).astype(np.float32) * 3
        temp = float(rng.uniform(1.0, 6.0))
        got_kd = gkd_loss(Tensor(s), Tensor(t), t.argmax(1), temp)[0].item()
        reports.append(_report(f"kd/{i}", got_kd, oracle.oracle_kd(s, t, temp), VALUE_TOL))

        labels = rng.integers(0, 5, size=8)
        got_g, got_n = gkd_loss(Tensor(s), Tensor(t), labels, temp)
        want_g, want_n = oracle.oracle_gkd(s, t, labels, temp)
        rep = _report(f"gkd/{i}", got_g.item(), want_g, VALUE_TOL)
        rep.passed = rep.passed and got_n == want_n
        reports.append(rep)

        reports.append(_report(f"ce/{i}", ce_loss(Tensor(s), labels).item(),
                               oracle.oracle_ce(s, labels), VALUE_TOL))

        reports.append(_report(
            f"softmax/{i}", softened_softmax(Tensor(s), temp).data,
            oracle.oracle_softened_softmax(s, temp), VALUE_TOL))
    return reports


# -- per-op and per-loss gradient checks ---------------------------------------


def grad_reports(seed: int = 0) -> List[OracleReport]:
    rng = np.random.default_rng(seed)
    reports: List[OracleReport] = []
    for i in range(20):
        x0 = rng.normal(size=(3, 4))
        yt = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        reports.append(_grad_report(f"grad/add/{i}", lambda t: (t + yt).sum(), x0))
        reports.append(_grad_report(f"grad/sub/{i}",
                                    lambda t: (t - yt).square().sum(), x0))
        reports.append(_grad_report(f"grad/sub-right/{i}",
                                    lambda t: (yt - t).square().sum(), x0))
        reports.append(_grad_report(f"grad/mul/{i}", lambda t: (t * yt).sum(), x0))
        reports.append(_grad_report(f"grad/scalar-mul/{i}",
                                    lambda t: (t * 1.7).sum(), x0))
        reports.append(_grad_report(f"grad/square-mean/{i}",
                                    lambda t: t.square().mean(), x0))
        # keep relu inputs away from the kink, log inputs strictly positive
        xr = x0 + np.sign(x0) * 0.05
        reports.append(_grad_report(f"grad/relu/{i}",
                                    lambda t: t.relu().square().sum(), xr))
        xp = rng.uniform(0.1, 2.0, size=(3, 4))
        reports.append(_grad_report(f"grad/log/{i}", lambda t: t.log().sum(), xp))

        m0 = rng.normal(size=(3, 4))
        mt = Tensor(rng.normal(size=(4, 2)).astype(np.float32))
        reports.append(_grad_report(f"grad/matmul/{i}",
                                    lambda t: (t @ mt).square().sum(), m0))
        bt = Tensor(rng.normal(size=(4,)).astype(np.float32))
        reports.append(_grad_report(f"grad/add_bias/{i}",
                                    lambda t: add_bias(t, bt).square().sum(), m0))

        c0 = rng.normal(size=(1, 2, 4, 4))
        kt = Tensor((rng.normal(size=(3, 2, 3, 3)) * 0.5).astype(np.float32))
        reports.append(_grad_report(
            f"grad/conv2d-input/{i}",
            lambda t: conv2d(t, kt, stride=1, padding=1).square().mean(), c0))
        ct = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
        k0 = rng.normal(size=(3, 2, 3, 3)) * 0.5
        reports.append(_grad_report(
            f"grad/conv2d-kernel/{i}",
            lambda t: conv2d(ct, t, stride=1, padding=1).square().mean(), k0))

        g0 = rng.normal(size=(2, 3, 5, 5))
        reports.append(_grad_report(
            f"grad/global_avg_pool/{i}",
            lambda t: global_avg_pool(t).square().sum(), g0))

        s0 = rng.normal(size=(4, 5)) * 2
        temp = float(rng.uniform(1.0, 6.0))
        reports.append(_grad_report(
            f"grad/softened_softmax/{i}",
            lambda t: softened_softmax(t, temp).square().sum(), s0))

        t_logits = Tensor((rng.normal(size=(4, 5)) * 2).astype(np.float32))
        labels = rng.integers(0, 5, size=4)
        # keep the indicator set non-empty so gkd stays differentiable
        labels[0] = int(np.argmax(t_logits.data[0]))
        reports.append(_grad_report(
            f"grad/kd/{i}", lambda t: gkd_loss(t, t_logits, t_logits.data.argmax(1), temp)[0],
            s0))
        reports.append(_grad_report(
            f"grad/gkd/{i}", lambda t: gkd_loss(t, t_logits, labels, temp)[0], s0))
        reports.append(_grad_report(f"grad/ce/{i}",
                                    lambda t: ce_loss(t, labels), s0))

        f0 = rng.normal(size=(2, 3, 4, 4))
        wt_cw = Tensor(rng.normal(size=(2, 3)).astype(np.float32))
        reports.append(_grad_report(
            f"grad/cd/{i}", lambda t: cd_loss(channel_weights(t), wt_cw), f0))
    return reports


# -- full-objective gradient check ---------------------------------------------


def composite_grad_reports(seed: int = 0) -> List[OracleReport]:
    """The training objective, ``train.batch_objective`` with CD + GKD + CE,
    on a 2-sample toy batch, differentiated through student parameters and
    the channel adapter."""
    rng = np.random.default_rng(seed)
    t_spec = NetworkSpec.from_channels([4, 8], num_classes=3, input_channels=2)
    s_spec = NetworkSpec.from_channels([3, 4], num_classes=3, input_channels=2)
    teacher = freeze(build_network(t_spec, seed=11))
    student = build_network(s_spec, seed=12)
    adapter = make_adapter(4, 8, np.random.default_rng(13))
    x = Tensor(rng.uniform(0, 1, size=(2, 2, 8, 8)).astype(np.float32))
    labels = np.array([0, 2])
    w_edt = edt_weight(EdtParams(alpha=0.7, lam=0.5, n_decay=10), epoch=5)
    cfg = DistillConfig(temperature=4.0, alpha=0.7, gkd_enabled=True)
    t_logits, *t_gaps = teacher_targets(teacher, x)

    def objective(name: str, t: Tensor) -> Tensor:
        """The objective as a function of the one parameter ``name``: ``t`` takes
        its place among the student's parameters or in the adapter list."""
        net, adapters = student, [t]
        if name != "adapter0.w":
            net, adapters = copy.copy(student), [adapter]
            net.params = {**student.params, name: t}
        return batch_objective(net, adapters, x, labels, t_logits, t_gaps, cfg,
                               w_edt)[0].objective

    cases = [(n, student.params[n].data) for n in ("s0b0.conv1", "fc.w")]
    return [_grad_report("grad/composite/" + n, partial(objective, n), x0)
            for n, x0 in cases + [("adapter0.w", adapter.data)]]


def run_all(seed: int = 0) -> Tuple[List[OracleReport], bool]:
    reports = value_reports(seed)
    reports += grad_reports(seed)
    reports += composite_grad_reports(seed)
    return reports, all(r.passed for r in reports)
