import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdkd.losses import cd_loss, channel_weights
from cdkd.kvtext import format_record, parse_record
from cdkd.models import (NetworkSpec, adapt_channels, build_network, forward_with_taps,
                         freeze, make_adapter)
from cdkd.oracle import oracle_conv2d
from cdkd.tensor import (Tensor, add_bias, backward, conv2d, global_avg_pool,
                         softened_softmax)


def parameter_count(spec: NetworkSpec) -> int:
    return sum(p.data.size for _, p in build_network(spec, seed=0).parameters())


def forward(net, batch: Tensor) -> Tensor:
    logits, _ = forward_with_taps(net, batch)
    return logits


def test_build_is_deterministic_under_seed():
    spec = NetworkSpec.from_channels([6, 12], num_classes=5)
    a = build_network(spec, seed=3)
    b = build_network(spec, seed=3)
    for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert pa.data.tobytes() == pb.data.tobytes()
    c = build_network(spec, seed=4)
    assert any(pa.data.tobytes() != pc.data.tobytes()
               for (_, pa), (_, pc) in zip(a.parameters(), c.parameters()))


def test_parameter_count_matches_hand_count():
    # stages [(1,8),(1,16)] on 3-channel input, residual blocks:
    #  s0b0: conv1 8*3*3*3, conv2 8*8*3*3, proj(1x1) 8*3
    #  s1b0 (downsample): conv1(2x2) 16*8*4, conv2 16*16*3*3, proj(2x2) 16*8*4
    #  head: fc 16*10 + 10
    spec = NetworkSpec.from_channels([8, 16], num_classes=10)
    hand = (8 * 3 * 9 + 8 * 8 * 9 + 8 * 3) + \
           (16 * 8 * 4 + 16 * 16 * 9 + 16 * 8 * 4) + (16 * 10 + 10)
    assert parameter_count(spec) == hand


def test_classifier_width_equals_num_classes():
    net = build_network(NetworkSpec.from_channels([4, 8], num_classes=10), seed=0)
    assert net.params["fc.w"].shape == (8, 10)
    assert net.params["fc.b"].shape == (10,)


def test_spec_validation_errors():
    for kwargs, why in (({"channels": (8,)}, "2 stages"),
                        ({"channels": (0, 4)}, "channels must be >= 1, got 0"),
                        ({"channels": (4, 8), "num_classes": 1}, "num_classes"),
                        ({"channels": (4, 8), "input_channels": 0}, "input_channels")):
        with pytest.raises(ValueError, match=why):
            NetworkSpec(**{"num_classes": 4, **kwargs})


def test_taps_at_downsampling_stages_32x32():
    spec = NetworkSpec.from_channels([8, 16, 32], num_classes=4)
    net = build_network(spec, seed=0)
    x = Tensor(np.random.default_rng(0).uniform(size=(2, 3, 32, 32)).astype(np.float32))
    logits, taps = forward_with_taps(net, x)
    assert logits.shape == (2, 4)
    assert len(taps) == spec.tap_count == 2
    assert taps[0].shape == (2, 16, 16, 16)
    assert taps[1].shape == (2, 32, 8, 8)


def test_zero_input_gives_uniform_prediction():
    net = build_network(NetworkSpec.from_channels([4, 8], num_classes=6), seed=1)
    logits, _ = forward_with_taps(net, Tensor(np.zeros((3, 3, 8, 8), dtype=np.float32)))
    p = softened_softmax(logits, 1.0).data
    np.testing.assert_allclose(p, np.full((3, 6), 1 / 6), atol=1e-7)


def test_taps_are_pure_observations():
    """Each tap is its downsampling stage's output after the stage's last relu,
    at half the extent before it, and the deepest tap is the very map the head
    pools: the logits follow from it bit for bit."""
    spec = NetworkSpec.from_channels([4, 8, 16], num_classes=5)
    assert (spec.tap_count, spec.tap_channels) == (2, (8, 16))
    net = build_network(spec, seed=2)
    x = Tensor(np.random.default_rng(1).uniform(size=(2, 3, 8, 8)).astype(np.float32))
    logits, taps = forward_with_taps(net, x)
    head = add_bias(global_avg_pool(taps[-1]) @ net.params["fc.w"], net.params["fc.b"])
    assert head.data.tobytes() == logits.data.tobytes()
    assert [t.shape for t in taps] == [(2, 8, 4, 4), (2, 16, 2, 2)]
    assert all(t.data.min() >= 0 for t in taps)


def test_resolution_underflow_rejected():
    net = build_network(NetworkSpec.from_channels([4, 8, 16], num_classes=4), seed=0)
    # second downsample sees 3x3 (odd): cannot halve exactly
    with pytest.raises(ValueError, match="underflow"):
        forward_with_taps(net, Tensor(np.zeros((1, 3, 6, 6), dtype=np.float32)))


def test_adapter_identity_flag():
    a = make_adapter(8, 8, np.random.default_rng(0))
    assert a is None
    x = Tensor(np.random.default_rng(1).normal(size=(1, 8, 4, 4)).astype(np.float32))
    assert adapt_channels(a, x) is x


def test_adapter_zero_kernel_gives_zeros():
    a = Tensor(np.zeros((8, 4, 1, 1), dtype=np.float32))
    x = Tensor(np.random.default_rng(2).normal(size=(2, 4, 3, 3)).astype(np.float32))
    assert np.all(adapt_channels(a, x).data == 0)


def test_adapter_matches_1x1_conv_oracle():
    rng = np.random.default_rng(3)
    kernel = rng.normal(size=(8, 4, 1, 1)).astype(np.float32)
    a = Tensor(kernel)
    x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
    got = adapt_channels(a, Tensor(x)).data
    np.testing.assert_allclose(got, oracle_conv2d(x, kernel, 1, 0), atol=1e-5)


def test_adapter_channel_mismatch_rejected():
    a = make_adapter(4, 8, np.random.default_rng(0))
    with pytest.raises(ValueError, match="channels"):
        adapt_channels(a, Tensor(np.zeros((1, 6, 4, 4), dtype=np.float32)))


def test_adapter_receives_gradient_through_cd():
    rng = np.random.default_rng(4)
    adapter = make_adapter(4, 8, rng)
    tap = Tensor(rng.uniform(0.1, 1.0, size=(2, 4, 4, 4)).astype(np.float32))
    target = channel_weights(Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32)))
    loss = cd_loss(channel_weights(adapt_channels(adapter, tap)), target)
    assert loss.item() > 0
    backward(loss)
    assert adapter.grad is not None
    assert np.any(adapter.grad != 0)


def test_freeze_disables_gradients_but_not_forward():
    spec = NetworkSpec.from_channels([4, 8], num_classes=4)
    net = build_network(spec, seed=5)
    x = Tensor(np.random.default_rng(5).uniform(size=(2, 3, 8, 8)).astype(np.float32))
    before = forward(net, x).data.copy()
    crc_before = net.checksum()
    freeze(net)
    assert all(not p.requires_grad for _, p in net.parameters())
    assert net.trainable_parameters() == []
    after = forward(net, x)
    np.testing.assert_array_equal(before, after.data)
    assert not after.requires_grad
    assert net.checksum() == crc_before


def test_paired_specs_have_equal_taps():
    t = NetworkSpec.from_channels([12, 24, 48], num_classes=8)
    s = NetworkSpec.from_channels([4, 8, 16], num_classes=8)
    assert t.tap_count == s.tap_count == 2
    assert t.tap_channels == (24, 48)
    assert s.tap_channels == (8, 16)


def test_spec_text_round_trip():
    spec = NetworkSpec((8, 16, 32), num_classes=11, input_channels=1)
    text = format_record(spec)
    assert text == {"channels": "8,16,32", "num_classes": "11", "input_channels": "1"}
    assert parse_record(NetworkSpec, text) == spec
    default = NetworkSpec([4, 8, 16], num_classes=4)
    assert default.channels == (4, 8, 16) and default.input_channels == 3
    assert default == NetworkSpec.from_channels((4, 8, 16), num_classes=4)
    assert parse_record(NetworkSpec, format_record(default)) == default


# -- the documented block rules, written out ---------------------------------------


def documented_shapes(spec: NetworkSpec) -> dict:
    """Parameter name -> shape under the README's rules: one block per stage,
    named s<i>b0; conv1 is 2x2 on each stage after the first and 3x3 on stage
    0; every block adds a 3x3 conv2 and, after stage 0, a 2x2 projection, on
    stage 0 a 1x1 projection where the width changes; then the [c, classes]
    classifier and its bias."""
    shapes = {}
    in_ch = spec.input_channels
    for si, c in enumerate(spec.channels):
        name, k = f"s{si}b0", 2 if si > 0 else 3
        shapes[f"{name}.conv1"] = (c, in_ch, k, k)
        shapes[f"{name}.conv2"] = (c, c, 3, 3)
        if k == 2:
            shapes[f"{name}.proj"] = (c, in_ch, 2, 2)
        elif in_ch != c:
            shapes[f"{name}.proj"] = (c, in_ch, 1, 1)
        in_ch = c
    shapes["fc.w"], shapes["fc.b"] = (in_ch, spec.num_classes), (spec.num_classes,)
    return shapes


def documented_forward(spec: NetworkSpec, params: dict, x: Tensor):
    """(logits, taps) under the README's rules: a 3x3 conv1 has stride 1 and
    pad 1, a 2x2 one stride 2 and pad 0; conv1 -> relu, then conv2 (3x3,
    pad 1) plus the shortcut (the input, or its projection: 2x2 stride 2 after
    stage 0, 1x1 on a width change) -> relu. The output of each stage after
    the first is a tap; the head is GAP then the classifier."""
    taps = []
    in_ch = spec.input_channels
    for si, c in enumerate(spec.channels):
        name, entry = f"s{si}b0", si > 0
        stride = 2 if entry else 1
        y = conv2d(x, params[f"{name}.conv1"], stride=stride, padding=0 if entry else 1)
        y = y.relu()
        y = conv2d(y, params[f"{name}.conv2"], stride=1, padding=1)
        if entry or in_ch != c:
            x = conv2d(x, params[f"{name}.proj"], stride=stride, padding=0)
        x, in_ch = (y + x).relu(), c
        if entry:
            taps.append(x)
    return add_bias(global_avg_pool(x) @ params["fc.w"], params["fc.b"]), taps


@st.composite
def _specs(draw):
    channels = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
    return NetworkSpec(channels, num_classes=draw(st.integers(2, 4)),
                       input_channels=draw(st.sampled_from([1, 3])))


@settings(max_examples=60, deadline=None)
@given(spec=_specs(), seed=st.integers(0, 2**32 - 1), scale=st.integers(1, 2))
def test_forward_follows_the_documented_block_rules(spec, seed, scale):
    net = build_network(spec, seed=seed)
    assert {n: p.shape for n, p in net.parameters()} == documented_shapes(spec)
    assert list(net.params) == list(documented_shapes(spec))
    size = scale << spec.tap_count
    x = Tensor(np.random.default_rng(seed).uniform(
        size=(2, spec.input_channels, size, size)).astype(np.float32))
    logits, taps = forward_with_taps(net, x)
    ref_logits, ref_taps = documented_forward(spec, net.params, x)
    assert logits.data.tobytes() == ref_logits.data.tobytes()
    assert [t.data.tobytes() for t in taps] == [t.data.tobytes() for t in ref_taps]
