"""Distillation loss terms and the combined training objective.

Channel distillation compares per-channel global-average-pool weights of
paired teacher/student feature maps with a mean-squared penalty. Guided
knowledge distillation is temperature-softened KL, restricted to the
samples the teacher classifies correctly; plain KD is GKD with every row
right, ``gkd_loss(s, t, t.data.argmax(1), T)``. The total objective is

    edt_weight * CD  +  GKD  +  CE

with the GKD coefficient fixed at 1: only the channel term decays.

Teacher-side quantities are detached before every loss; no gradient ever
reaches a frozen teacher. KL is taken teacher-as-target, KL(p_t || p_s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor, global_avg_pool, softened_softmax


@dataclass
class LossBreakdown:
    """Scalar views of one step's loss terms plus the differentiable objective.

    ``objective`` is the graph node to backprop; its value always equals
    ``total`` = edt_weight * cd + gkd + ce.
    """
    cd: float
    gkd: float
    ce: float
    edt_weight: float
    total: float
    objective: Tensor


@dataclass
class DistillConfig:
    temperature: float = 4.0
    alpha: float = 1.0
    lam: float = 0.5
    n_decay: Optional[int] = None   # None: resolved to the first LR milestone
    gkd_enabled: bool = True

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"lambda must be in (0, 1], got {self.lam}")
        if self.n_decay is not None and not self.n_decay >= 1:
            raise ValueError(f"n_decay must be positive, got {self.n_decay}")


# the CD weights of a [n,c,h,w] feature map: each channel's spatial mean, [n,c]
channel_weights = global_avg_pool


def cd_loss(ws: Tensor, wt: Tensor) -> Tensor:
    """Mean squared gap between [n,c] channel weights; the teacher side wt is
    detached here."""
    t = wt.detach()
    if ws.shape != t.shape:
        raise ValueError(f"cd_loss: shape mismatch {ws.shape} vs {t.shape}")
    return (ws - t).square().mean()


def gkd_loss(student_logits: Tensor, teacher_logits: Tensor, labels, temperature: float):
    """KD restricted to teacher-correct samples, by one fused kernel; KD itself
    is the case where ``labels`` are the teacher's argmax, so every row is right.

    Returns (loss, correct_count). With no correct samples the indicator
    denominator vanishes, so the loss is a constant 0-d zero and no gradient flows.
    """
    if student_logits.shape != teacher_logits.shape:
        raise ValueError(f"gkd_loss: shape mismatch {student_logits.shape} vs "
                         f"{teacher_logits.shape}")
    if not temperature > 0:
        raise ValueError(f"gkd_loss: temperature must be positive, got {temperature}")
    labels = np.asarray(labels)
    k = student_logits.shape[1]
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"gkd_loss: label out of range [0, {k})")
    # the teacher is right where its argmax (lowest index on ties) is the label
    mask = (np.argmax(teacher_logits.data, axis=1) == labels).astype(np.float64)
    count = int(mask.sum())
    if count == 0:
        return Tensor(0.0), 0
    p_t = softened_softmax(teacher_logits.detach(), temperature).data
    coef = (mask[:, None] * p_t / count).astype(np.float32)
    # teacher entropy side: constant, 0 log 0 := 0
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p_t > 0, p_t * np.log(p_t), 0.0)
    entropy_term = float((mask * plogp.sum(axis=1)).sum() / count)
    p_s = softened_softmax(student_logits, temperature)
    cross = (Tensor(coef) * p_s.log()).sum()
    return entropy_term - cross, count


def ce_loss(student_logits: Tensor, labels) -> Tensor:
    """Mean cross entropy against hard labels, temperature 1."""
    labels = np.asarray(labels)
    n, k = student_logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"ce_loss: label out of range [0, {k})")
    onehot = np.zeros((n, k), dtype=np.float32)
    onehot[np.arange(n), labels] = 1.0
    p = softened_softmax(student_logits, 1.0)
    return (Tensor(onehot) * p.log()).sum() * (-1.0 / n)


def total_loss(cd_terms: Sequence[Tensor], gkd: Optional[Tensor], ce: Tensor,
               edt_weight: float) -> LossBreakdown:
    """Combine the per-tap CD terms (averaged), GKD, and CE into Eq-style
    total = edt_weight * cd + gkd + ce.

    Pass gkd=None when GKD is off, and no cd_terms when channel distillation
    is off (its gradient then never exists, rather than being multiplied to
    zero).
    """
    if not edt_weight >= 0:
        raise ValueError(f"edt_weight must be non-negative, got {edt_weight}")
    # the per-term kernels run in float32; this final scalar combination is
    # float64 so total == edt_weight*cd + gkd + ce holds far inside 1e-6
    terms = []
    if cd_terms:
        cd = cd_terms[0].astype(np.float64)
        for t in cd_terms[1:]:
            cd = cd + t.astype(np.float64)
        cd = cd * (1.0 / len(cd_terms))
        cd_val = cd.item()
        terms.append(cd * float(edt_weight))
    else:
        cd_val = 0.0
    if gkd is not None:
        terms.append(gkd.astype(np.float64))
        gkd_val = gkd.item()
    else:
        gkd_val = 0.0
    terms.append(ce.astype(np.float64))
    objective = terms[0]
    for t in terms[1:]:
        objective = objective + t
    return LossBreakdown(cd=cd_val, gkd=gkd_val, ce=ce.item(),
                         edt_weight=float(edt_weight), total=objective.item(),
                         objective=objective)
