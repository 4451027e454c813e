"""cdkd: channel-distillation knowledge transfer for small CNNs.

A self-contained CPU training engine: float32 tensors with reverse-mode
autodiff, a configurable teacher/student CNN family with feature taps at
every downsampling boundary, channel-attention distillation, guided KD,
an early-decay teacher schedule, and a deterministic training harness.
"""

from .data import Dataset, load_cifar_binary, make_synthetic
from .losses import DistillConfig, LossBreakdown, cd_loss, ce_loss, channel_weights, \
    gkd_loss, total_loss
from .models import NetworkSpec, build_network, forward_with_taps, freeze
from .optim import EdtParams, LrSchedule, SgdConfig, SgdOptimizer, edt_weight, \
    lr_at_epoch
from .tensor import Tensor, backward, conv2d, global_avg_pool, softened_softmax
from .train import Metrics, TrainState, distill, evaluate, train_teacher

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "conv2d", "global_avg_pool", "softened_softmax",
    "NetworkSpec", "build_network",
    "forward_with_taps", "freeze",
    "DistillConfig", "LossBreakdown", "channel_weights", "cd_loss",
    "gkd_loss", "ce_loss", "total_loss",
    "SgdConfig", "SgdOptimizer", "LrSchedule", "EdtParams", "lr_at_epoch",
    "edt_weight",
    "Dataset", "load_cifar_binary", "make_synthetic",
    "TrainState", "Metrics", "train_teacher", "distill", "evaluate",
    "__version__",
]
