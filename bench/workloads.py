"""The benchmark's workloads: what each one trains, and why it exists.

Every workload uses the acceptance data (synthetic, 8 classes, 1600 train /
800 val images of 16x16, data seed 0), SGD with lr0 0.02, momentum 0.9 and
weight decay 5e-4, and batch 32. The workload seed (``--seed``) is the
training seed handed to ``train_teacher`` / ``distill``; it drives model
init, shuffling, augmentation and adapter init.

The two distill workloads distil from one frozen teacher checkpoint. It is
trained by the code under test with the ``teacher`` settings and training
seed 1 (the acceptance fixture's teacher seed), in a separate process
before any measured process starts, and cached per source tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

CLASSES, PER_CLASS_TRAIN, PER_CLASS_VAL, IMAGE_SIZE, DATA_SEED = 8, 200, 100, 16, 0
LR0, MOMENTUM, WEIGHT_DECAY, BATCH = 0.02, 0.9, 5e-4, 32
LR_FACTOR = 0.2
TEMPERATURE, ALPHA, N_DECAY = 4.0, 1.0, 6
HFLIP_PROB = 0.5
TEACHER_CHANNELS = (12, 24, 48)
TEACHER_PREP_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    channels: Tuple[int, ...]        # of the net being trained
    epochs: int
    milestone: int                   # one LR drop, x0.2
    distill_lambda: Optional[float]  # None: plain CE training of a teacher
    pad: int = 0                     # pad + random crop + hflip 0.5 when > 0

    @property
    def distills(self) -> bool:
        return self.distill_lambda is not None


WORKLOADS = {
    # Trains the 12-24-48 teacher with CE only: the widest maps, so conv
    # kernels, backward and SGD do the most work per step here. No teacher
    # forward, no CD/GKD, no adapters: changes to those paths must show no
    # change on this workload.
    "teacher": Workload("teacher", TEACHER_CHANNELS, epochs=15, milestone=12,
                        distill_lambda=None),
    # The acceptance ablation's dominant run kind (15 of its 21 runs): the
    # 4-8-16 student with CD+GKD+EDT (T 4, alpha 1, lambda 0.7, n_decay 6).
    # The student is small, so per-op Python/autodiff overhead is a large
    # share of a step, and the teacher forward is more than half of it. With no
    # augmentation the teacher's input depends only on the sample index
    # (teacher_repeat_frac 7/8): the case a teacher-output cache serves.
    "distill": Workload("distill", (4, 8, 16), epochs=8, milestone=6,
                        distill_lambda=0.7),
    # The cifar-recipe student 6-12-24 (two adapters), CD+GKD+EDT with
    # lambda 0.5, and pad-2 random crop + hflip 0.5. Teacher inputs change
    # every epoch, so a teacher-output cache must be bypassed here and show
    # no change; the teacher is right on far fewer rows than on `distill`,
    # which changes GKD's masked share. Pad 2, not the preset's pad 4: on
    # 16x16 images pad 4 drives this student to chance (87.5% val error,
    # with the CD term near 63), which would measure a run that learns
    # nothing.
    "distill-aug": Workload("distill-aug", (6, 12, 24), epochs=8, milestone=6,
                            distill_lambda=0.5, pad=2),
}

# Per-layer metrics that do not apply to every workload; the rest apply to
# all three. A metric that does not apply is printed as n/a and reported as 0.
# The comment names the end-to-end metric each should move, and where.
DISTILL_ONLY = (
    "models.teacher_fwd_ms",        # step_ms_p50 on distill, distill-aug
    "models.adapter_ms",            # step_ms_p50 on distill, distill-aug
    "models.teacher_repeat_frac",   # what a teacher cache can save: ~0.875 on distill, ~0 on distill-aug
    "tensor.conv_fwd_ms.teacher.",  # step_ms_p50 via teacher_fwd_ms
    "tensor.conv_fwd_ms.adapter.",  # step_ms_p50 via adapter_ms
    "tensor.conv_bwd_ms.adapter.",  # step_ms_p50 via backward_ms
    "losses.cd_ms",                 # step_ms_p50 on distill, distill-aug
    "losses.gkd_ms",                # step_ms_p50 on distill, distill-aug
    "losses.teacher_correct_frac",  # GKD rows that carry a gradient; lower on distill-aug
    "checkpoint.load_ms",           # setup_s on distill, distill-aug
)
# Applying everywhere, with the end-to-end metric each moves:
#   data.setup_ms -> setup_s;  data.batch_ms, data.augment_ms -> step_ms_p50
#   (augment is normalize-only except on distill-aug);  models.student_fwd_ms,
#   tensor.conv_fwd_ms.student.*, tensor.conv_bwd_ms.student.*,
#   tensor.backward_ms, tensor.conv_calls, tensor.conv_gflops, losses.ce_ms,
#   losses.total_ms, optim.step_ms -> step_ms_p50, most on teacher;
#   checkpoint.save_ms/.saves/.bytes, train.eval_ms, train.self_ms -> fit_s
#   (eval largest on teacher, self largest on distill's short epochs).


def applies(metric: str, workload: Workload) -> bool:
    return workload.distills or not metric.startswith(DISTILL_ONLY)


def expected_hooks(workload: Workload) -> set:
    """Hook labels that must fire on this workload (see spans.LAYER_HOOKS)."""
    hooks = {"data.make_synthetic", "train.iterate_batches", "train.augment_batch",
             "train.forward_with_taps:student", "models.conv2d", "train.ce_loss",
             "train.total_loss", "train.backward", "optim.SgdOptimizer.step",
             "optim.SgdOptimizer.zero_grad", "train.evaluate", "train.save_checkpoint"}
    # _fit computes the stats itself unless the caller passes an AugmentConfig
    hooks.add("data.channel_stats" if workload.pad else "train.channel_stats")
    if workload.distills:
        hooks |= {"train.load_checkpoint", "train.forward_with_taps:teacher",
                  "train.adapt_channels", "train.channel_weights", "train.cd_loss",
                  "train.gkd_loss"}
    return hooks


def chance_error(classes: int = CLASSES, val_rows: int = CLASSES * PER_CLASS_VAL) -> float:
    """Val top-1 error, in %, that a run must beat to count as having learned:
    chance level minus five binomial standard deviations of the val split."""
    p = 1.0 - 1.0 / classes
    return 100.0 * (p - 5.0 * (p * (1.0 - p) / val_rows) ** 0.5)
