import numpy as np
import pytest

from cdkd.losses import cd_loss, channel_weights
from cdkd.models import (ChannelAdapter, NetworkSpec, StageSpec, adapt_channels,
                         build_network, forward, forward_with_taps, freeze,
                         make_adapter, parameter_count, spec_fields, spec_from_fields)
from cdkd.oracle import oracle_conv2d
from cdkd.tensor import Tensor, backward, softened_softmax


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


def test_parameter_count_plain_blocks():
    # without residual connections each block is a single conv
    spec = NetworkSpec.from_channels([8, 16], num_classes=10, residual=False)
    hand = 8 * 3 * 9 + 16 * 8 * 4 + (16 * 10 + 10)
    assert parameter_count(spec) == hand


def test_classifier_width_equals_num_classes():
    net = build_network(NetworkSpec.from_channels([4, 8], num_classes=10), seed=0)
    assert net.params["fc.w"].shape == (8, 10)
    assert net.params["fc.b"].shape == (10,)


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="2 stages"):
        NetworkSpec(stages=(StageSpec(1, 8, False),), num_classes=4).validate()
    with pytest.raises(ValueError, match="channels"):
        NetworkSpec(stages=(StageSpec(1, 0, False), StageSpec(1, 4, True)),
                    num_classes=4).validate()


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
    net = build_network(NetworkSpec.from_channels([4, 8], num_classes=5), seed=2)
    x = Tensor(np.random.default_rng(1).uniform(size=(2, 3, 8, 8)).astype(np.float32))
    with_taps, _ = forward_with_taps(net, x)
    plain = forward(net, x)
    np.testing.assert_allclose(with_taps.data, plain.data, atol=1e-6)


def test_resolution_underflow_rejected():
    net = build_network(NetworkSpec.from_channels([4, 8, 16], num_classes=4), seed=0)
    # second downsample sees 3x3 (odd): cannot halve exactly
    with pytest.raises(ValueError, match="underflow"):
        forward_with_taps(net, Tensor(np.zeros((1, 3, 6, 6), dtype=np.float32)))


def test_adapter_identity_flag():
    a = make_adapter(8, 8, np.random.default_rng(0))
    assert a.identity_flag and a.kernel is None
    x = Tensor(np.random.default_rng(1).normal(size=(1, 8, 4, 4)).astype(np.float32))
    assert adapt_channels(a, x) is x


def test_adapter_zero_kernel_gives_zeros():
    a = ChannelAdapter(4, 8, identity_flag=False,
                       kernel=Tensor(np.zeros((8, 4, 1, 1), dtype=np.float32)))
    x = Tensor(np.random.default_rng(2).normal(size=(2, 4, 3, 3)).astype(np.float32))
    assert np.all(adapt_channels(a, x).data == 0)


def test_adapter_matches_1x1_conv_oracle():
    rng = np.random.default_rng(3)
    kernel = rng.normal(size=(8, 4, 1, 1)).astype(np.float32)
    a = ChannelAdapter(4, 8, identity_flag=False, kernel=Tensor(kernel))
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
    assert adapter.kernel.grad is not None
    assert np.any(adapter.kernel.grad != 0)


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
    spec = NetworkSpec(stages=(StageSpec(2, 8, False), StageSpec(1, 16, True),
                               StageSpec(3, 32, True)),
                       num_classes=11, input_channels=1, residual=False)
    assert spec_from_fields(spec_fields(spec)) == spec
