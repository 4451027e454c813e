"""MiniConvNet: a small configurable CNN family for teacher and student roles.

One residual block per stage, named ``s<i>b0``, with a CIFAR-style stem
(3x3 stride-1 pad-1 first conv, no pooling) and a global-average-pool +
dense classifier head. Every stage after the first halves the spatial
resolution at its entry and emits its post-activation output as a tap, the
attachment point for channel distillation.

Downsampling convolutions and residual projections are 2x2 stride-2 so even
extents halve exactly under the conv contract (a 3x3 stride-2 pad-1 or 1x1
stride-2 conv has no integral output size on even extents). Blocks carry no
normalization layers; conv -> relu only.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .tensor import Tensor, add_bias, conv2d, global_avg_pool


@dataclass(frozen=True)
class NetworkSpec:
    """The architecture; a checkpoint's [arch.model] section and, less the
    two fields the data fixes, a config's [model.*] keys."""
    channels: Tuple[int, ...]
    num_classes: int
    input_channels: int = 3

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if len(self.channels) < 2:
            raise ValueError(f"need >= 2 stages, got {len(self.channels)}")
        for key, value, least in (("channels", min(self.channels), 1),
                                  ("num_classes", self.num_classes, 2),
                                  ("input_channels", self.input_channels, 1)):
            if value < least:
                raise ValueError(f"{key} must be >= {least}, got {value}")

    @property
    def tap_count(self) -> int:
        return len(self.channels) - 1

    @property
    def tap_channels(self) -> tuple:
        return self.channels[1:]

    @classmethod
    def from_channels(cls, channels, num_classes, input_channels=3) -> "NetworkSpec":
        """The same as ``NetworkSpec(channels, num_classes, input_channels)``;
        kept because ``bench/worker.py`` builds its nets with it."""
        return cls(channels, num_classes, input_channels=input_channels)


class Network:
    """A built MiniConvNet: its architecture and its parameters by name."""

    def __init__(self, spec: NetworkSpec, params: dict):
        self.spec = spec
        self.params = params          # name -> Tensor, insertion-ordered

    def parameters(self):
        return list(self.params.items())

    def trainable_parameters(self):
        return [(n, p) for n, p in self.params.items() if p.requires_grad]

    def checksum(self) -> int:
        """CRC-32 over all parameter bytes, in name order."""
        crc = 0
        for _, p in self.params.items():
            crc = zlib.crc32(np.ascontiguousarray(p.data, dtype="<f4").tobytes(), crc)
        return crc


def _init_conv(rng: np.random.Generator, c_out, c_in, kh, kw) -> np.ndarray:
    # relu-gain fan-in scaling: without normalization layers anything weaker
    # lets activations decay exponentially with depth
    bound = np.sqrt(6.0 / (c_in * kh * kw))
    return rng.uniform(-bound, bound, size=(c_out, c_in, kh, kw)).astype(np.float32)


def param_shapes(spec: NetworkSpec) -> Dict[str, Tuple[int, ...]]:
    """Each parameter's shape by name, in build order; allocates nothing.

    Each stage after the first gets a 2x2 conv1 and a 2x2 projection; stage 0
    gets a 3x3 conv1 and, where the width changes, a 1x1 projection. Every
    stage has a 3x3 conv2."""
    shapes = {}
    in_ch = spec.input_channels
    for si, out_ch in enumerate(spec.channels):
        k1, kp = (2, 2) if si else (3, 1)
        shapes[f"s{si}b0.conv1"] = (out_ch, in_ch, k1, k1)
        shapes[f"s{si}b0.conv2"] = (out_ch, out_ch, 3, 3)
        if si or in_ch != out_ch:
            shapes[f"s{si}b0.proj"] = (out_ch, in_ch, kp, kp)
        in_ch = out_ch
    shapes["fc.w"], shapes["fc.b"] = (in_ch, spec.num_classes), (spec.num_classes,)
    return shapes


def build_network(spec: NetworkSpec, seed: int) -> Network:
    """Deterministically initialized network of ``param_shapes(spec)``, drawn
    in that order: fan-in-scaled uniform convs and fc.w, a zero fc.b."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(spec).items():
        if name == "fc.w":
            bound = 1.0 / np.sqrt(shape[0])
            data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        elif name == "fc.b":
            data = np.zeros(shape, dtype=np.float32)
        else:
            data = _init_conv(rng, *shape)
        params[name] = Tensor(data, requires_grad=True)
    return Network(spec, params)


def forward_with_taps(net: Network, batch: Tensor):
    """Run the network, returning (logits, taps at each stage after the first).

    Taps are ordered shallow to deep and are the stage output Tensors
    themselves, so recording them never perturbs the logits.
    """
    spec, params = net.spec, net.params
    x = batch
    if x.data.ndim != 4:
        raise ValueError(f"batch must be 4-D [n,c,h,w], got {x.shape}")
    if x.shape[1] != spec.input_channels:
        raise ValueError(f"batch channels {x.shape[1]} != spec input_channels "
                         f"{spec.input_channels}")
    taps = []
    h, w = x.shape[2], x.shape[3]
    for si in range(len(spec.channels)):
        if si:
            if h < 2 or w < 2 or h % 2 or w % 2:
                raise ValueError(f"resolution underflow: stage {si} cannot halve {h}x{w}")
            h, w = h // 2, w // 2
        # a stage after the first downsamples: its conv1 and projection stride 2
        stride, pad = (2, 0) if si else (1, 1)
        y = conv2d(x, params[f"s{si}b0.conv1"], stride=stride, padding=pad).relu()
        y = conv2d(y, params[f"s{si}b0.conv2"], stride=1, padding=1)
        proj = params.get(f"s{si}b0.proj")
        shortcut = x if proj is None else conv2d(x, proj, stride=stride, padding=0)
        x = (y + shortcut).relu()
        if si:
            taps.append(x)
    pooled = global_avg_pool(x)
    logits = add_bias(pooled @ params["fc.w"], params["fc.b"])
    return logits, taps


def freeze(net: Network) -> Network:
    """Exclude every parameter from gradient flow; forward is unaffected."""
    for _, p in net.params.items():
        p.requires_grad = False
    return net


def make_adapter(c_student: int, c_teacher: int,
                 rng: np.random.Generator) -> Optional[Tensor]:
    """The trainable [c_teacher, c_student, 1, 1] kernel lifting a student tap
    to the teacher's width, or None (identity) when the widths agree."""
    if c_student == c_teacher:
        return None
    return Tensor(_init_conv(rng, c_teacher, c_student, 1, 1), requires_grad=True)


def adapt_channels(kernel: Optional[Tensor], student_tap: Tensor) -> Tensor:
    if kernel is None:
        return student_tap
    return conv2d(student_tap, kernel, stride=1, padding=0)
