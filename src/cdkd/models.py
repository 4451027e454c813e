"""MiniConvNet: a small configurable CNN family for teacher and student roles.

Stages of conv blocks, optionally residual, with a CIFAR-style stem
(3x3 stride-1 pad-1 first conv, no pooling) and a global-average-pool +
dense classifier head. Every stage flagged ``downsample`` halves the
spatial resolution at its entry and emits its post-activation output as a
tap, the attachment point for channel distillation.

Downsampling entry convolutions and residual projections are 2x2 stride-2
so even extents halve exactly under the conv contract (a 3x3 stride-2
pad-1 or 1x1 stride-2 conv has no integral output size on even extents).
Blocks carry no normalization layers; conv -> relu only.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from .tensor import Tensor, add_bias, conv2d, global_avg_pool


@dataclass(frozen=True)
class StageSpec:
    blocks: int
    channels: int
    downsample: bool

    def validate(self) -> None:
        if self.blocks < 1:
            raise ValueError(f"stage blocks must be >= 1, got {self.blocks}")
        if self.channels < 1:
            raise ValueError(f"stage channels must be >= 1, got {self.channels}")


@dataclass(frozen=True)
class NetworkSpec:
    stages: tuple
    num_classes: int
    input_channels: int = 3
    residual: bool = True

    def validate(self) -> None:
        if len(self.stages) < 2:
            raise ValueError(f"need >= 2 stages, got {len(self.stages)}")
        for st in self.stages:
            st.validate()
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_channels < 1:
            raise ValueError(f"input_channels must be >= 1, got {self.input_channels}")

    @property
    def tap_count(self) -> int:
        return sum(1 for st in self.stages if st.downsample)

    @property
    def tap_channels(self) -> tuple:
        return tuple(st.channels for st in self.stages if st.downsample)

    @classmethod
    def from_channels(cls, channels, num_classes, blocks=1, input_channels=3,
                      residual=True) -> "NetworkSpec":
        """Default family: first stage keeps resolution, every later stage halves it."""
        if isinstance(blocks, int):
            blocks = [blocks] * len(channels)
        stages = tuple(
            StageSpec(blocks=b, channels=c, downsample=(i > 0))
            for i, (b, c) in enumerate(zip(blocks, channels)))
        spec = cls(stages=stages, num_classes=num_classes,
                   input_channels=input_channels, residual=residual)
        spec.validate()
        return spec


def spec_fields(spec: NetworkSpec) -> Dict[str, str]:
    """Canonical text encoding, one field per key; a checkpoint header's
    [arch.model] section."""
    stages = ",".join(f"{st.blocks}x{st.channels}" + ("d" if st.downsample else "")
                      for st in spec.stages)
    return {"stages": stages, "num_classes": str(spec.num_classes),
            "input_channels": str(spec.input_channels),
            "residual": "true" if spec.residual else "false"}


def spec_from_fields(fields: Mapping[str, str]) -> NetworkSpec:
    """Inverse of ``spec_fields``; raises KeyError or ValueError on bad fields."""
    stages = []
    for part in fields["stages"].split(","):
        part = part.strip()
        down = part.endswith("d")
        if down:
            part = part[:-1]
        blocks, _, channels = part.partition("x")
        stages.append(StageSpec(int(blocks), int(channels), down))
    if fields["residual"] not in ("true", "false"):
        raise ValueError(f"residual must be true or false, got {fields['residual']!r}")
    spec = NetworkSpec(stages=tuple(stages),
                       num_classes=int(fields["num_classes"]),
                       input_channels=int(fields["input_channels"]),
                       residual=fields["residual"] == "true")
    spec.validate()
    return spec


@dataclass
class _BlockShape:
    in_ch: int
    out_ch: int
    stride: int
    name: str
    proj: Optional[str]     # projection param name, None for identity shortcut


class Network:
    """A built MiniConvNet: parameters by name plus the block layout."""

    def __init__(self, spec: NetworkSpec, params: dict, blocks: list):
        self.spec = spec
        self.params = params          # name -> Tensor, insertion-ordered
        self._blocks = blocks         # list of lists, one per stage

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

    def load_param_values(self, values: dict) -> None:
        for name, p in self.params.items():
            arr = np.ascontiguousarray(values[name], dtype=np.float32)
            if arr.shape != p.data.shape:
                raise ValueError(f"param {name}: shape {arr.shape} != expected {p.data.shape}")
            p.data = arr


def _init_conv(rng: np.random.Generator, c_out, c_in, kh, kw) -> np.ndarray:
    # relu-gain fan-in scaling: without normalization layers anything weaker
    # lets activations decay exponentially with depth
    bound = np.sqrt(6.0 / (c_in * kh * kw))
    return rng.uniform(-bound, bound, size=(c_out, c_in, kh, kw)).astype(np.float32)


def build_network(spec: NetworkSpec, seed: int) -> Network:
    """Deterministically initialized network: fan-in-scaled uniform convs, zero biases."""
    spec.validate()
    rng = np.random.default_rng(seed)
    params: dict = {}
    blocks: list = []
    in_ch = spec.input_channels
    for si, stage in enumerate(spec.stages):
        stage_blocks = []
        for bi in range(stage.blocks):
            name = f"s{si}b{bi}"
            stride = 2 if (bi == 0 and stage.downsample) else 1
            out_ch = stage.channels
            k1 = 2 if stride == 2 else 3
            params[f"{name}.conv1"] = Tensor(
                _init_conv(rng, out_ch, in_ch, k1, k1), requires_grad=True)
            proj = None
            if spec.residual:
                params[f"{name}.conv2"] = Tensor(
                    _init_conv(rng, out_ch, out_ch, 3, 3), requires_grad=True)
                if stride == 2:
                    proj = f"{name}.proj"
                    params[proj] = Tensor(
                        _init_conv(rng, out_ch, in_ch, 2, 2), requires_grad=True)
                elif in_ch != out_ch:
                    proj = f"{name}.proj"
                    params[proj] = Tensor(
                        _init_conv(rng, out_ch, in_ch, 1, 1), requires_grad=True)
            stage_blocks.append(_BlockShape(in_ch, out_ch, stride, name, proj))
            in_ch = out_ch
        blocks.append(stage_blocks)
    bound = 1.0 / np.sqrt(in_ch)
    params["fc.w"] = Tensor(
        rng.uniform(-bound, bound, size=(in_ch, spec.num_classes)).astype(np.float32),
        requires_grad=True)
    params["fc.b"] = Tensor(np.zeros(spec.num_classes, dtype=np.float32),
                            requires_grad=True)
    return Network(spec, params, blocks)


def parameter_count(spec: NetworkSpec) -> int:
    net = build_network(spec, seed=0)
    return sum(p.data.size for _, p in net.parameters())


def forward_with_taps(net: Network, batch: Tensor):
    """Run the network, returning (logits, taps at each downsampling stage).

    Taps are ordered shallow to deep and are the stage output Tensors
    themselves, so recording them never perturbs the logits.
    """
    spec = net.spec
    x = batch
    if x.data.ndim != 4:
        raise ValueError(f"batch must be 4-D [n,c,h,w], got {x.shape}")
    if x.shape[1] != spec.input_channels:
        raise ValueError(f"batch channels {x.shape[1]} != spec input_channels "
                         f"{spec.input_channels}")
    taps = []
    h, w = x.shape[2], x.shape[3]
    for si, stage in enumerate(spec.stages):
        if stage.downsample:
            if h < 2 or w < 2 or h % 2 or w % 2:
                raise ValueError(
                    f"resolution underflow: stage {si} cannot halve {h}x{w}")
            h, w = h // 2, w // 2
        for blk in net._blocks[si]:
            x = _forward_block(net, blk, x, spec.residual)
        if stage.downsample:
            taps.append(x)
    pooled = global_avg_pool(x)
    logits = add_bias(pooled @ net.params["fc.w"], net.params["fc.b"])
    return logits, taps


def forward(net: Network, batch: Tensor) -> Tensor:
    logits, _ = forward_with_taps(net, batch)
    return logits


def _forward_block(net: Network, blk: _BlockShape, x: Tensor, residual: bool) -> Tensor:
    pad1 = 0 if blk.stride == 2 else 1
    y = conv2d(x, net.params[f"{blk.name}.conv1"], stride=blk.stride, padding=pad1)
    y = y.relu()
    if not residual:
        return y
    y = conv2d(y, net.params[f"{blk.name}.conv2"], stride=1, padding=1)
    if blk.proj is not None:
        pstride = 2 if blk.stride == 2 else 1
        shortcut = conv2d(x, net.params[blk.proj], stride=pstride, padding=0)
    else:
        shortcut = x
    return (y + shortcut).relu()


def freeze(net: Network) -> Network:
    """Exclude every parameter from gradient flow; forward is unaffected."""
    for _, p in net.params.items():
        p.requires_grad = False
    return net


@dataclass
class ChannelAdapter:
    """1x1 conv lifting a student tap to the teacher's channel count.

    Identity when the widths already agree; otherwise its kernel trains
    jointly with the student.
    """
    in_channels: int
    out_channels: int
    identity_flag: bool
    kernel: Optional[Tensor] = None

    def parameters(self):
        return [] if self.identity_flag else [self.kernel]


def make_adapter(c_student: int, c_teacher: int, rng: np.random.Generator) -> ChannelAdapter:
    if c_student == c_teacher:
        return ChannelAdapter(c_student, c_teacher, identity_flag=True)
    kernel = Tensor(_init_conv(rng, c_teacher, c_student, 1, 1), requires_grad=True)
    return ChannelAdapter(c_student, c_teacher, identity_flag=False, kernel=kernel)


def adapt_channels(adapter: ChannelAdapter, student_tap: Tensor) -> Tensor:
    if student_tap.shape[1] != adapter.in_channels:
        raise ValueError(f"adapter expects {adapter.in_channels} channels, "
                         f"tap has {student_tap.shape[1]}")
    if adapter.identity_flag:
        return student_tap
    return conv2d(student_tap, adapter.kernel, stride=1, padding=0)
