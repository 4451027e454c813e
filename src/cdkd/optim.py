"""SGD with momentum and weight decay, step LR schedule, and the early-decay
teacher weight schedule for the channel-distillation term."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .tensor import Tensor


@dataclass
class SgdConfig:
    lr0: float
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self):
        if not self.lr0 >= 0:
            raise ValueError(f"lr0 must be non-negative, got {self.lr0}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")


@dataclass
class LrSchedule:
    milestones: Tuple[int, ...] = ()
    factor: float = 0.1

    def __post_init__(self):
        ms = tuple(self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError(f"milestones must be strictly increasing, got {ms}")
        if any(m < 1 for m in ms):
            raise ValueError(f"milestones must be >= 1, got {ms}")
        if not (0.0 < self.factor < 1.0):
            raise ValueError(f"factor must be in (0, 1), got {self.factor}")
        object.__setattr__(self, "milestones", ms)


def lr_at_epoch(schedule: LrSchedule, lr0: float, epoch: int) -> float:
    """lr0 * factor^(number of milestones at or before this epoch)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    drops = sum(1 for m in schedule.milestones if m <= epoch)
    return lr0 * schedule.factor ** drops


@dataclass
class EdtParams:
    """Early Decay Teacher: weight(epoch) = alpha * lambda^(epoch / n_decay),
    a real exponent, so the weight decays smoothly epoch by epoch."""
    alpha: float
    lam: float
    n_decay: int

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"lambda must be in (0, 1], got {self.lam}")
        if not self.n_decay >= 1:
            raise ValueError(f"n_decay must be positive, got {self.n_decay}")


def edt_weight(params, epoch: int) -> float:
    """The decay weight of ``params``, an EdtParams or a DistillConfig whose n_decay is set."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if params.n_decay is None:
        raise ValueError("n_decay must be set to give a decay weight, got None")
    return params.alpha * params.lam ** (epoch / params.n_decay)


class SgdOptimizer:
    """Classic momentum SGD over an explicit, audited parameter set.

    update: g' = g + weight_decay * p ; v <- momentum * v + g' ; p <- p - lr * v

    The constructor rejects frozen parameters outright, so a frozen teacher
    can never leak into the update step.
    """

    def __init__(self, named_params: Sequence[Tuple[str, Tensor]], cfg: SgdConfig):
        for name, p in named_params:
            if not p.requires_grad:
                raise ValueError(f"optimizer given frozen parameter '{name}'")
        seen = set()
        for name, _ in named_params:
            if name in seen:
                raise ValueError(f"duplicate parameter name '{name}'")
            seen.add(name)
        self.cfg = cfg
        self.named_params = list(named_params)
        self.velocity = {name: np.zeros_like(p.data) for name, p in named_params}

    def step(self, lr: float) -> None:
        wd = self.cfg.weight_decay
        mom = self.cfg.momentum
        for name, p in self.named_params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"param {name}: grad shape {g.shape} != {p.data.shape}")
            if wd != 0.0:
                g = g + np.float32(wd) * p.data
            v = self.velocity[name]
            v *= np.float32(mom)
            v += g
            p.data = p.data - np.float32(lr) * v

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None

    def state_tensors(self) -> dict:
        """Velocity slots keyed for checkpointing."""
        return {f"vel.{name}": v for name, v in self.velocity.items()}
