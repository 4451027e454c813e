import numpy as np
import pytest

from cdkd.data import (AugmentConfig, BatchPlan, DataFormatError, augment_batch,
                       channel_stats, export_synthetic, iterate_batches,
                       load_cifar_binary, load_synthetic, make_synthetic, normalize,
                       synthetic_templates, write_cifar10, CIFAR100_RECORD)


def test_cifar10_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(2, 3, 32, 32), dtype=np.uint8)
    labels = np.array([3, 9], dtype=np.uint8)
    path = tmp_path / "batch.bin"
    write_cifar10(path, pixels, labels)
    assert path.stat().st_size == 2 * 3073
    ds = load_cifar_binary(path, "cifar10")
    assert ds.class_count == 10
    np.testing.assert_array_equal(ds.labels, [3, 9])
    np.testing.assert_array_equal(ds.images, pixels.astype(np.float32) / 255.0)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_cifar10_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * (3073 + 5))
    with pytest.raises(DataFormatError, match="multiple"):
        load_cifar_binary(path, "cifar10")


def test_cifar10_label_out_of_range(tmp_path):
    rec = bytes([12]) + b"\x00" * 3072
    path = tmp_path / "bad_label.bin"
    path.write_bytes(rec)
    with pytest.raises(DataFormatError, match="label"):
        load_cifar_binary(path, "cifar10")


def test_cifar100_uses_fine_label_byte(tmp_path):
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, size=(3, 3072), dtype=np.uint8)
    recs = []
    for i, (coarse, fine) in enumerate([(1, 42), (19, 0), (7, 99)]):
        recs.append(bytes([coarse, fine]) + pixels[i].tobytes())
    path = tmp_path / "c100.bin"
    path.write_bytes(b"".join(recs))
    assert path.stat().st_size == 3 * CIFAR100_RECORD
    ds = load_cifar_binary(path, "cifar100-fine")
    assert ds.class_count == 100
    np.testing.assert_array_equal(ds.labels, [42, 0, 99])
    np.testing.assert_array_equal(
        ds.images.reshape(3, -1), pixels.astype(np.float32) / 255.0)


def test_cifar100_fine_label_range(tmp_path):
    rec = bytes([0, 100]) + b"\x00" * 3072
    path = tmp_path / "bad.bin"
    path.write_bytes(rec)
    with pytest.raises(DataFormatError, match="label"):
        load_cifar_binary(path, "cifar100-fine")


# -- synthetic generator -------------------------------------------------------


def test_synthetic_deterministic_under_seed():
    a = make_synthetic(4, 10, 12, seed=5)
    b = make_synthetic(4, 10, 12, seed=5)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = make_synthetic(4, 10, 12, seed=6)
    assert a.images.tobytes() != c.images.tobytes()


def test_synthetic_size_and_range():
    ds = make_synthetic(8, 200, 16, seed=0)
    assert len(ds) == 1600
    assert ds.images.shape == (1600, 3, 16, 16)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert set(np.unique(ds.labels)) == set(range(8))


def test_synthetic_splits_share_templates_not_samples():
    tr = make_synthetic(4, 10, 12, seed=5, split="train")
    va = make_synthetic(4, 10, 12, seed=5, split="val")
    assert tr.images.tobytes() != va.images.tobytes()


def test_nearest_template_oracle_exceeds_80_percent():
    classes, size, seed = 8, 16, 0
    val = make_synthetic(classes, 50, size, seed=seed, split="val")
    templates = synthetic_templates(classes, size, seed).reshape(classes, -1)
    flat = val.images.reshape(len(val), -1)
    d = ((flat[:, None, :] - templates[None, :, :]) ** 2).sum(axis=2)
    acc = (d.argmin(axis=1) == val.labels).mean()
    assert acc > 0.80, f"nearest-template accuracy {acc:.3f}"


# -- augmentation ----------------------------------------------------------------


def _cfg(**kw):
    kw.setdefault("channel_means", np.array([0.5, 0.5, 0.5], dtype=np.float32))
    kw.setdefault("channel_stds", np.array([0.25, 0.25, 0.25], dtype=np.float32))
    return AugmentConfig(**kw)


def test_augment_normalization_only():
    batch = np.random.default_rng(0).uniform(size=(4, 3, 8, 8)).astype(np.float32)
    out = augment_batch(batch, _cfg(), np.random.default_rng(1))
    np.testing.assert_allclose(out, (batch - 0.5) / 0.25, atol=1e-6)


def test_augment_constant_at_means_gives_zeros():
    batch = np.full((2, 3, 8, 8), 0.5, dtype=np.float32)
    out = augment_batch(batch, _cfg(), np.random.default_rng(2))
    np.testing.assert_array_equal(out, np.zeros_like(batch))


def test_augment_replay_is_bit_identical():
    batch = np.random.default_rng(3).uniform(size=(8, 3, 12, 12)).astype(np.float32)
    cfg = _cfg(pad=2, random_crop=True, hflip_prob=0.5)
    a = augment_batch(batch, cfg, np.random.default_rng(77))
    b = augment_batch(batch, cfg, np.random.default_rng(77))
    assert a.tobytes() == b.tobytes()
    assert a.shape == batch.shape


def test_augment_flip_probability_one_reverses_width():
    batch = np.random.default_rng(4).uniform(size=(2, 3, 6, 6)).astype(np.float32)
    cfg = _cfg(hflip_prob=1.0)
    out = augment_batch(batch, cfg, np.random.default_rng(5))
    np.testing.assert_allclose(out, normalize(batch[:, :, :, ::-1],
                                              cfg.channel_means, cfg.channel_stds),
                               atol=1e-6)


def test_augment_config_validation():
    with pytest.raises(ValueError, match="positive"):
        _cfg(channel_stds=np.array([0.1, 0.0, 0.1]))
    with pytest.raises(ValueError, match="hflip"):
        _cfg(hflip_prob=1.5)


def test_channel_stats_shapes():
    ds = make_synthetic(4, 20, 12, seed=1)
    means, stds = channel_stats(ds)
    assert means.shape == (3,) and stds.shape == (3,)
    assert np.all(stds > 0)


# -- batching ----------------------------------------------------------------


def test_batches_are_pure_function_of_seed_and_epoch():
    ds = make_synthetic(4, 10, 8, seed=2)
    plan = BatchPlan(batch_size=8, shuffle_seed=9)
    a = [lab.tolist() for _, lab in iterate_batches(ds, plan, epoch=3)]
    b = [lab.tolist() for _, lab in iterate_batches(ds, plan, epoch=3)]
    assert a == b
    c = [lab.tolist() for _, lab in iterate_batches(ds, plan, epoch=4)]
    assert a != c


def test_every_sample_once_per_epoch_without_drop_last():
    ds = make_synthetic(2, 5, 8, seed=3)
    plan = BatchPlan(batch_size=4, shuffle_seed=0)
    seen = np.concatenate([img.sum(axis=(1, 2, 3)) for img, _ in
                           iterate_batches(ds, plan, epoch=1)])
    assert len(seen) == 10
    np.testing.assert_allclose(np.sort(seen), np.sort(ds.images.sum(axis=(1, 2, 3))),
                               atol=1e-5)


def test_validation_split_iterates_unshuffled():
    ds = make_synthetic(2, 6, 8, seed=4, split="val")
    plan = BatchPlan(batch_size=5, shuffle_seed=123)
    labels = np.concatenate([lab for _, lab in iterate_batches(ds, plan, epoch=0)])
    np.testing.assert_array_equal(labels, ds.labels)


# -- synthetic export ----------------------------------------------------------


def test_export_synthetic_round_trip(tmp_path):
    ds = make_synthetic(4, 6, 32, seed=8)
    path = tmp_path / "synth.bin"
    export_synthetic(ds, path, meta={"seed": 8})
    assert path.stat().st_size == len(ds) * 3073   # CIFAR-10 record layout
    back = load_synthetic(path)
    assert back.class_count == 4
    np.testing.assert_array_equal(back.labels, ds.labels)
    # uint8 quantization round-trips exactly (same decode arithmetic as the loader)
    expected = np.round(ds.images * 255).astype(np.uint8).astype(np.float32) / 255.0
    np.testing.assert_array_equal(back.images, expected)
