"""Distillation loss terms and the combined training objective.

Channel distillation compares per-channel global-average-pool weights of
paired teacher/student feature maps with a mean-squared penalty. Guided
knowledge distillation is temperature-softened KL, restricted to the
samples the teacher classifies correctly. The total objective is

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
    plain_kd_fallback: bool = False
    kd_t_squared: bool = False

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"lambda must be in (0, 1], got {self.lam}")
        if self.n_decay is not None and self.n_decay < 1:
            raise ValueError(f"n_decay must be positive, got {self.n_decay}")
        if self.gkd_enabled and self.plain_kd_fallback:
            raise ValueError("gkd_enabled and plain_kd_fallback are mutually exclusive")

    @property
    def cd_enabled(self) -> bool:
        return self.alpha > 0.0


def channel_weights(feature: Tensor) -> Tensor:
    """Spatial mean of each channel, [n,c,h,w] -> [n,c]; differentiable when
    the feature is."""
    if feature.data.ndim != 4:
        raise ValueError(f"channel_weights: expects 4-D feature, got {feature.shape}")
    return global_avg_pool(feature)


def cd_loss(ws: Tensor, wt: Tensor) -> Tensor:
    """Mean squared gap between [n,c] channel weights; the teacher side wt is
    detached here."""
    t = wt.detach()
    if ws.shape != t.shape:
        raise ValueError(f"cd_loss: shape mismatch {ws.shape} vs {t.shape}")
    return (ws - t).square().mean()


def _masked_kl(student_logits: Tensor, teacher_logits: Tensor, mask: np.ndarray,
               temperature: float, t_squared: bool) -> Tensor:
    """sum_i mask_i * KL(p_t^i || p_s^i) / sum(mask), via one fused kernel.

    kd_loss and gkd_loss both route through here (kd is the all-ones mask),
    so "teacher correct everywhere" collapses gkd to kd bit-for-bit.
    """
    denom = float(mask.sum())
    p_t = softened_softmax(teacher_logits.detach(), temperature).data
    coef = (mask[:, None] * p_t / denom).astype(np.float32)
    # teacher entropy side: constant, 0 log 0 := 0
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p_t > 0, p_t * np.log(p_t), 0.0)
    entropy_term = float((mask * plogp.sum(axis=1)).sum() / denom)
    p_s = softened_softmax(student_logits, temperature)
    cross = (Tensor(coef) * p_s.log()).sum()
    kl = entropy_term - cross
    if t_squared:
        kl = kl * (temperature * temperature)
    return kl


def kd_loss(student_logits: Tensor, teacher_logits: Tensor, temperature: float,
            t_squared: bool = False) -> Tensor:
    """Batch-mean KL between softened teacher and student distributions."""
    if student_logits.shape != teacher_logits.shape:
        raise ValueError(f"kd_loss: shape mismatch {student_logits.shape} vs "
                         f"{teacher_logits.shape}")
    if temperature <= 0:
        raise ValueError(f"kd_loss: temperature must be positive, got {temperature}")
    n = student_logits.shape[0]
    return _masked_kl(student_logits, teacher_logits,
                      np.ones(n, dtype=np.float64), temperature, t_squared)


def teacher_correct_mask(teacher_logits: Tensor, labels: np.ndarray) -> np.ndarray:
    """Indicator of samples where the teacher's argmax (lowest index on ties)
    equals the label."""
    pred = np.argmax(teacher_logits.data, axis=1)
    return (pred == labels).astype(np.float64)


def gkd_loss(student_logits: Tensor, teacher_logits: Tensor, labels,
             temperature: float, t_squared: bool = False):
    """KD restricted to teacher-correct samples.

    Returns (loss, correct_count). With no correct samples the indicator
    denominator vanishes, so the loss is defined as a constant 0 and no
    gradient flows.
    """
    if student_logits.shape != teacher_logits.shape:
        raise ValueError(f"gkd_loss: shape mismatch {student_logits.shape} vs "
                         f"{teacher_logits.shape}")
    if temperature <= 0:
        raise ValueError(f"gkd_loss: temperature must be positive, got {temperature}")
    labels = np.asarray(labels)
    k = student_logits.shape[1]
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"gkd_loss: label out of range [0, {k})")
    mask = teacher_correct_mask(teacher_logits, labels)
    count = int(mask.sum())
    if count == 0:
        return Tensor(0.0), 0
    return _masked_kl(student_logits, teacher_logits, mask, temperature, t_squared), count


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
               edt_weight: float, cd_enabled: bool = True) -> LossBreakdown:
    """Combine the per-tap CD terms (averaged), GKD/KD, and CE into Eq-style
    total = edt_weight * cd + gkd + ce.

    Pass gkd=None when no teacher-logit term is active; pass cd_enabled=False
    to drop the channel term entirely (its gradient then never exists, rather
    than being multiplied to zero).
    """
    if edt_weight < 0:
        raise ValueError(f"edt_weight must be non-negative, got {edt_weight}")
    if cd_enabled and not cd_terms:
        raise ValueError("total_loss: no cd terms but channel distillation is enabled")
    # the per-term kernels run in float32; this final scalar combination is
    # float64 so total == edt_weight*cd + gkd + ce holds far inside 1e-6
    terms = []
    if cd_enabled:
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
    terms.append(ce if len(terms) == 0 else ce.astype(np.float64))
    objective = terms[0]
    for t in terms[1:]:
        objective = objective + t
    return LossBreakdown(cd=cd_val, gkd=gkd_val, ce=ce.item(),
                         edt_weight=float(edt_weight), total=objective.item(),
                         objective=objective)
