import re
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import cdkd.train
from cdkd.checkpoint import load_checkpoint, save_checkpoint
from cdkd.data import (AugmentConfig, Dataset, channel_stats, iterate_batches,
                       make_synthetic)
from cdkd.kvtext import format_value
from cdkd.losses import DistillConfig, cd_loss, channel_weights, gkd_loss
from cdkd.models import NetworkSpec, build_network, forward_with_taps, freeze, make_adapter
from cdkd.optim import EdtParams, LrSchedule, SgdConfig, SgdOptimizer
from cdkd.seeds import derive, derive_epoch
from cdkd.tensor import Tensor, backward, softened_softmax
from cdkd.train import (CSV_COLUMNS, NonFiniteLossError, Normalization, batch_objective,
                        distill, evaluate, load_model_checkpoint, teacher_targets, topk_error,
                        train_teacher)

SGD = SgdConfig(lr0=0.05, momentum=0.9, weight_decay=1e-4)
SCHED = LrSchedule(milestones=(50,), factor=0.1)


def strip_wall(csv_text: str):
    """Rows minus the wall_seconds column (the only timing-dependent field)."""
    return [",".join(line.split(",")[:-1]) for line in csv_text.strip().split("\n")]


def count_teacher_forwards(monkeypatch):
    """Record the batch size of each forward_with_taps call _fit makes on a
    frozen net, the teacher."""
    calls = []
    real = cdkd.train.forward_with_taps

    def counting(net, batch):
        if not any(p.requires_grad for _, p in net.parameters()):
            calls.append(batch.shape[0])
        return real(net, batch)

    monkeypatch.setattr(cdkd.train, "forward_with_taps", counting)
    return calls


# -- evaluate -------------------------------------------------------------------


def test_topk_perfect_predictions():
    n, k = 10, 6
    labels = np.random.default_rng(0).integers(0, k, size=n)
    logits = np.zeros((n, k), dtype=np.float32)
    logits[np.arange(n), labels] = 1.0
    assert topk_error(logits, labels, 1) == 0.0
    assert topk_error(logits, labels, 5) == 0.0


def test_topk_rank_semantics():
    # true label always ranked 3rd: top-1 misses, top-5 hits
    n, k = 10, 8
    logits = np.tile(np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.1],
                              dtype=np.float32), (n, 1))
    labels = np.full(n, 2)
    assert topk_error(logits, labels, 1) == 100.0
    assert topk_error(logits, labels, 5) == 0.0


def test_topk_random_logits_monte_carlo():
    rng = np.random.default_rng(1)
    n, k = 20000, 100
    logits = rng.normal(size=(n, k)).astype(np.float32)
    labels = rng.integers(0, k, size=n)
    assert topk_error(logits, labels, 1) == pytest.approx(99.0, abs=2.0)
    assert topk_error(logits, labels, 5) == pytest.approx(95.0, abs=2.0)


def test_evaluate_class_count_mismatch(tiny_data):
    train, val = tiny_data
    net = build_network(NetworkSpec.from_channels([4, 6], num_classes=9), seed=0)
    with pytest.raises(ValueError, match="classes"):
        evaluate(net, val, np.zeros(3, np.float32), np.ones(3, np.float32), 32)


def test_fit_refuses_a_split_with_another_class_count(tiny_data, tiny_specs, tmp_path):
    """A train or val split whose class count is not the model's is refused
    before the out-dir is made, not by evaluate after an epoch of training."""
    train, val = tiny_data
    five = {split: make_synthetic(5, 12, 8, seed=7, split=split) for split in ("train", "val")}
    for split, (tr, va) in (("train", (five["train"], val)), ("val", (train, five["val"]))):
        with pytest.raises(ValueError, match=f"^{split} split has 5 classes, model expects 4$"):
            train_teacher(tiny_specs[1], tr, va, SGD, SCHED, epochs=1, seed=0,
                          out_dir=tmp_path / split, batch_size=32)
        assert not (tmp_path / split).exists()


@pytest.mark.parametrize("batch_size", [0, -4])
def test_fit_refuses_a_batch_size_below_one_before_the_out_dir(tiny_data, tiny_specs,
                                                               tmp_path, batch_size):
    train, val = tiny_data
    with pytest.raises(ValueError, match=f"^batch_size must be >= 1, got {batch_size}$"):
        train_teacher(tiny_specs[1], train, val, SGD, SCHED, epochs=1, seed=0,
                      out_dir=tmp_path / "out", batch_size=batch_size)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("means, stds", [((0.5,), (0.25,)), ((0.5, 0.5), (0.25, 0.25)),
                                         ((0.5,) * 3, (0.25,) * 2)])
def test_fit_refuses_stats_that_are_not_one_per_input_channel(tiny_data, tiny_specs, tmp_path,
                                                              means, stds):
    """The rule _read_checkpoint keeps for [normalize]: a run does not write a
    header it would refuse, nor broadcast one mean over three channels."""
    train, val = tiny_data
    want = f"^{len(means)} means and {len(stds)} stds, want 3$"
    with pytest.raises(ValueError, match=want):
        train_teacher(tiny_specs[1], train, val, SGD, SCHED, epochs=1, seed=0,
                      out_dir=tmp_path / "out", batch_size=32, aug_cfg=AugmentConfig(means, stds))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("batch_size", [0, -2])
def test_evaluate_and_the_batch_walk_refuse_a_batch_size_below_one(tiny_data, tiny_specs,
                                                                    batch_size):
    """Called directly, evaluate and iterate_batches name the batch size they
    cannot walk in, as _fit's record does."""
    _, val = tiny_data
    net = build_network(tiny_specs[1], seed=0)
    why = f"^batch_size must be >= 1, got {batch_size}$"
    with pytest.raises(ValueError, match=why):
        evaluate(net, val, *channel_stats(val), batch_size)
    with pytest.raises(ValueError, match=why):
        next(iterate_batches(val, batch_size, order_seed=3))


def test_fit_evaluates_in_the_run_batch_size(tiny_data, tiny_specs, tmp_path, monkeypatch):
    train, val = tiny_data
    sizes = []
    real = cdkd.train.evaluate

    def spy(net, ds, means, stds, batch_size):
        sizes.append(batch_size)
        return real(net, ds, means, stds, batch_size)

    monkeypatch.setattr(cdkd.train, "evaluate", spy)
    train_teacher(tiny_specs[1], train, val, SGD, SCHED, epochs=2, seed=0, out_dir=tmp_path,
                  batch_size=8)
    assert sizes == [8, 8]


# -- training loop basics ---------------------------------------------------------


def test_one_epoch_csv_has_one_row(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    _, student = tiny_specs
    res = train_teacher(student, train, val, SGD, SCHED, epochs=1, seed=0,
                        out_dir=tmp_path, batch_size=32)
    lines = res.csv_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_zero_learning_rate_freezes_training(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    _, student = tiny_specs
    res = train_teacher(student, train, val,
                        SgdConfig(lr0=0.0, momentum=0.9, weight_decay=0.0),
                        SCHED, epochs=3, seed=0, out_dir=tmp_path, batch_size=32)
    net, _ = load_model_checkpoint(res.final_ckpt)
    fresh = build_network(student, seed=derive(res.state.seed, "model"))
    for (name, a), (_, b) in zip(net.parameters(), fresh.parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
    rows = res.csv_path.read_text().strip().split("\n")[1:]
    losses = [float(r.split(",")[3]) for r in rows]
    assert max(losses) - min(losses) <= 1e-6


def test_distill_with_all_terms_off_equals_plain_ce(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    teacher_spec, student = tiny_specs
    tres = train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=1, seed=3,
                         out_dir=tmp_path / "teacher", batch_size=32)
    cfg = DistillConfig(alpha=0.0, gkd_enabled=False, n_decay=5)
    dres = distill(tres.final_ckpt, student, train, val, cfg, SGD, SCHED,
                   EdtParams(alpha=1.0, lam=1.0, n_decay=5), epochs=2, seed=9,
                   out_dir=tmp_path / "ce_distill", batch_size=32)
    pres = train_teacher(student, train, val, SGD, SCHED, epochs=2, seed=9,
                         out_dir=tmp_path / "ce_plain", batch_size=32)
    net_a, _ = load_model_checkpoint(dres.final_ckpt)
    net_b, _ = load_model_checkpoint(pres.final_ckpt)
    for (name, a), (_, b) in zip(net_a.parameters(), net_b.parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
    assert strip_wall(dres.csv_path.read_text())[1:] == \
        strip_wall(pres.csv_path.read_text())[1:]


def test_identical_teacher_student_cd_is_zero_at_step_zero(tiny_data, tiny_specs):
    train, _ = tiny_data
    teacher_spec, _ = tiny_specs
    net = build_network(teacher_spec, seed=4)
    x = Tensor(train.images[:8])
    _, taps_a = forward_with_taps(net, x)
    _, taps_b = forward_with_taps(net, x)
    adapters = [make_adapter(c, c, np.random.default_rng(0))
                for c in teacher_spec.tap_channels]
    for a, ta, tb in zip(adapters, taps_a, taps_b):
        assert a is None
        assert cd_loss(channel_weights(ta), channel_weights(tb)).item() == 0.0


def test_a_batch_the_teacher_gets_wholly_wrong_keeps_every_scalar_0d(tiny_data, tiny_specs):
    """A tensor keeps its data's rank, so where the teacher is right on no row
    GKD is a 0-d zero with count 0, and the batch objective stays 0-d."""
    assert Tensor(0.0).shape == () and Tensor(np.float32(2.1)).shape == ()
    train, _ = tiny_data
    teacher_spec, student_spec = tiny_specs
    teacher = freeze(build_network(teacher_spec, seed=4))
    student = build_network(student_spec, seed=5)
    x = Tensor(train.images[:8])
    t_logits, *t_gaps = teacher_targets(teacher, x)
    wrong = (t_logits.data.argmax(1) + 1) % teacher_spec.num_classes
    gkd, count = gkd_loss(forward_with_taps(student, x)[0], t_logits, wrong, 4.0)
    assert gkd.shape == () and gkd.item() == 0.0 and count == 0
    adapters = [make_adapter(cs, ct, np.random.default_rng(0))
                for cs, ct in zip(student_spec.tap_channels, teacher_spec.tap_channels)]
    bd, count, _, _ = batch_objective(student, adapters, x, wrong, t_logits, t_gaps,
                                      DistillConfig(), 1.0)
    assert count == 0 and bd.gkd == 0.0 and bd.objective.shape == ()
    backward(bd.objective)
    assert all(p.grad.shape == p.shape for _, p in student.trainable_parameters())


def test_distill_keeps_teacher_frozen_and_moves_student(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    teacher_spec, student = tiny_specs
    tres = train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=1, seed=5,
                         out_dir=tmp_path / "teacher", batch_size=32)
    teacher_bytes = tres.final_ckpt.read_bytes()
    cfg = DistillConfig(alpha=1.0, lam=0.5, gkd_enabled=True, n_decay=5)
    dres = distill(tres.final_ckpt, student, train, val, cfg, SGD, SCHED,
                   EdtParams(alpha=1.0, lam=0.5, n_decay=5), epochs=1, seed=6,
                   out_dir=tmp_path / "student", batch_size=32)
    assert tres.final_ckpt.read_bytes() == teacher_bytes   # file untouched
    net, _ = load_model_checkpoint(dres.final_ckpt)
    fresh = build_network(student, seed=derive(dres.state.seed, "model"))
    moved = any(a.data.tobytes() != b.data.tobytes()
                for (_, a), (_, b) in zip(net.parameters(), fresh.parameters()))
    assert moved


def test_parameters_grads_and_velocities_stay_c_contiguous(tiny_data, tiny_specs, tmp_path,
                                                           monkeypatch):
    """Activations are channels-last, parameters are not: after each SGD step of
    a teacher epoch and a CD+GKD distill epoch (adapters included), every
    parameter's .grad, velocity and .data is C-contiguous, the layout
    checkpoint.save and the optimizer were written for."""
    train, val = tiny_data
    teacher_spec, student = tiny_specs
    seen, not_c = set(), []
    real_step = SgdOptimizer.step

    def checked_step(self, lr):
        real_step(self, lr)
        for name, p in self.named_params:
            seen.add(name)
            flags = [a.flags.c_contiguous for a in (p.grad, self.velocity[name], p.data)]
            if not all(flags):
                not_c.append((name, flags))

    monkeypatch.setattr(SgdOptimizer, "step", checked_step)
    tres = train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=1, seed=5,
                         out_dir=tmp_path / "teacher", batch_size=32)
    cfg = DistillConfig(alpha=1.0, lam=0.5, gkd_enabled=True, n_decay=5)
    distill(tres.final_ckpt, student, train, val, cfg, SGD, SCHED,
            EdtParams(alpha=1.0, lam=0.5, n_decay=5), epochs=1, seed=6,
            out_dir=tmp_path / "student", batch_size=32)
    assert {"adapter0.w", "s0b0.conv1", "s1b0.proj", "fc.w"} <= seen
    assert not_c == []


def test_distill_tap_count_mismatch_rejected(tiny_data, tmp_path, monkeypatch):
    """A teacher whose taps, classes or input channels do not match the
    student is refused before any step, with or without GKD; so is no teacher."""
    train, val = tiny_data
    six = [make_synthetic(6, 8, 8, seed=7, split=s) for s in ("train", "val")]
    gray = [Dataset(d.images[:, :1].copy(), d.labels, d.class_count)
            for d in tiny_data]
    cd_only = DistillConfig(alpha=1.0, gkd_enabled=False, n_decay=5)
    cd_gkd = DistillConfig(alpha=1.0, gkd_enabled=True, n_decay=5)
    four = NetworkSpec.from_channels([4, 6], num_classes=4)
    cases = [
        ("tap count mismatch", four, tiny_data,
         NetworkSpec.from_channels([4, 6, 8], num_classes=4),
         DistillConfig(alpha=1.0, n_decay=5)),
        ("class count mismatch", NetworkSpec.from_channels([4, 6], num_classes=6), six,
         four, cd_only),
        ("class count mismatch", NetworkSpec.from_channels([4, 6], num_classes=6), six,
         four, cd_gkd),
        ("input channel mismatch",
         NetworkSpec.from_channels([4, 6], num_classes=4, input_channels=1), gray,
         four, cd_gkd),
    ]
    calls = count_teacher_forwards(monkeypatch)
    for k, (what, t_spec, t_data, s_spec, cfg) in enumerate(cases):
        tres = train_teacher(t_spec, *t_data, SGD, SCHED, epochs=1, seed=0,
                             out_dir=tmp_path / f"t{k}", batch_size=32)
        with pytest.raises(ValueError, match=what):
            distill(tres.final_ckpt, s_spec, train, val, cfg, SGD, SCHED,
                    EdtParams(1.0, 0.5, 5), epochs=1, seed=0, out_dir=tmp_path / f"s{k}",
                    batch_size=32)
    with pytest.raises(ValueError, match="no teacher provided"):
        distill(None, four, train, val, cd_only, SGD, SCHED, EdtParams(1.0, 0.5, 5),
                epochs=1, seed=0, out_dir=tmp_path / "none", batch_size=32)
    assert calls == []


def test_resume_refuses_adapters_that_do_not_fit_the_run(tiny_data, tiny_specs, tmp_path,
                                                         monkeypatch):
    """A checkpoint whose adapters are not the ones the run's taps and CD
    switch need is refused, naming it, the section, the field and both
    values, before any teacher forward."""
    train, val = tiny_data
    teacher_spec, student = tiny_specs
    cd = DistillConfig(alpha=1.0, lam=0.5, gkd_enabled=True, n_decay=5)
    gkd = DistillConfig(alpha=0.0, gkd_enabled=True, n_decay=5)
    edt = EdtParams(1.0, 0.5, 5)
    teachers = [train_teacher(spec, train, val, SGD, SCHED, epochs=1, seed=0,
                              out_dir=tmp_path / f"t{k}", batch_size=32).final_ckpt
                for k, spec in enumerate((teacher_spec,
                                          NetworkSpec.from_channels([6, 8], num_classes=4)))]
    crc = [load_model_checkpoint(t)[0].checksum() for t in teachers]

    def run(teacher_ckpt, cfg, tag, resume_from=None):
        return distill(teacher_ckpt, student, train, val, cfg, SGD, SCHED, edt,
                       epochs=2, seed=1, out_dir=tmp_path / tag, batch_size=32,
                       resume_from=resume_from).final_ckpt

    scratch = train_teacher(student, train, val, SGD, SCHED, epochs=1, seed=1,
                            out_dir=tmp_path / "ce", batch_size=32).final_ckpt
    other_arch = train_teacher(NetworkSpec.from_channels([4, 8], num_classes=4), train, val,
                               SGD, SCHED, epochs=1, seed=1, out_dir=tmp_path / "arch",
                               batch_size=32).final_ckpt
    with_cd = run(teachers[0], cd, "cd")
    calls = count_teacher_forwards(monkeypatch)
    for tag, ckpt, teacher_ckpt, cfg, why in (
            ("ce-as-cd", scratch, teachers[0], cd, "[distill] alpha = 0, this run 1"),
            ("other-taps", with_cd, teachers[1], cd,
             f"[teacher] checksum = {crc[0]}, this run {crc[1]}"),
            ("cd-off", with_cd, teachers[0], gkd, "[distill] alpha = 1, this run 0"),
            ("other-arch", other_arch, teachers[0], gkd,
             "[arch.model] channels = 4,8, this run 4,6")):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{ckpt}: checkpoint has {why}')}$"):
            run(teacher_ckpt, cfg, tag, resume_from=ckpt)
    assert calls == []


def test_resume_refuses_another_teacher_or_other_hyperparameters(tiny_data, tiny_specs,
                                                                 tmp_path, monkeypatch):
    """A resume under another teacher with the same taps, or with other data,
    optim, schedule or EDT values or another seed, is refused before any
    teacher forward; a value spelled with other digits is the same value and
    is not refused."""
    train, val = tiny_data
    teacher_spec, student = tiny_specs
    cd = DistillConfig(alpha=1.0, lam=0.5, gkd_enabled=True, n_decay=5)
    teachers = [train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=1, seed=seed,
                              out_dir=tmp_path / f"t{seed}", batch_size=32).final_ckpt
                for seed in (0, 1)]
    crc = [load_model_checkpoint(t)[0].checksum() for t in teachers]
    assert crc[0] != crc[1]

    def run(tag, teacher_ckpt=teachers[0], sgd=SGD, sched=SCHED, cd=cd,
            edt=EdtParams(1.0, 0.5, 5), epochs=1, seed=1, resume_from=None, batch_size=32,
            aug_cfg=None):
        return distill(teacher_ckpt, student, train, val, cd, sgd, sched, edt,
                       epochs=epochs, seed=seed, out_dir=tmp_path / tag, batch_size=batch_size,
                       aug_cfg=aug_cfg, resume_from=resume_from).final_ckpt

    first = run("first")
    calls = count_teacher_forwards(monkeypatch)
    for tag, kwargs, why in (
            ("other-teacher", dict(teacher_ckpt=teachers[1]),
             f"[teacher] checksum = {crc[0]}, this run {crc[1]}"),
            ("lr0", dict(sgd=SgdConfig(lr0=0.1, momentum=0.9, weight_decay=1e-4)),
             "[optim] lr0 = 0.05, this run 0.1"),
            ("milestones", dict(sched=LrSchedule(milestones=(40,), factor=0.1)),
             "[schedule] milestones = 50, this run 40"),
            ("edt-lam", dict(cd=DistillConfig(alpha=1.0, lam=0.7, gkd_enabled=True, n_decay=5),
                             edt=EdtParams(1.0, 0.7, 5)), "[distill] lam = 0.5, this run 0.7"),
            ("seed", dict(seed=2), "[state] seed = 1, this run 2"),
            ("batch-size", dict(batch_size=8), "[data] batch_size = 32, this run 8"),
            ("hflip", dict(aug_cfg=AugmentConfig(*channel_stats(train), hflip_prob=0.5)),
             "[data] hflip_prob = 0, this run 0.5")):
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'{first}: checkpoint has {why}')}$"):
            run(tag, epochs=2, resume_from=first, **kwargs)
    assert calls == []
    # a teacher resumed under another batch size would not replay its run
    why = "[data] batch_size = 32, this run 8"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{teachers[0]}: checkpoint has {why}')}$"):
        train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=2, seed=0,
                      out_dir=tmp_path / "t0-batch-8", batch_size=8, resume_from=teachers[0])
    # nor resumed onto another split of the same length, under the first one's stats
    other = make_synthetic(4, 24, 8, seed=8, split="train")
    assert len(other) == len(train)
    why = f"[data] crc = {train.checksum()}, this run {other.checksum()}"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{teachers[0]}: checkpoint has {why}')}$"):
        train_teacher(teacher_spec, other, val, SGD, SCHED, epochs=2, seed=0,
                      out_dir=tmp_path / "t0-seed-8", batch_size=32,
                      aug_cfg=AugmentConfig(*channel_stats(train)), resume_from=teachers[0])

    header, tensors = load_checkpoint(first)
    means = header.split("means = ")[1].split("\n")[0]
    longer = ",".join(repr(float(np.float32(v))) for v in means.split(","))
    assert longer != means
    respelled = tmp_path / "respelled.ckpt"
    save_checkpoint(respelled, header.replace("lr0 = 0.05", "lr0 = 5.000e-2")
                    .replace(means, longer), tensors)
    resumed = run("respelled", epochs=2, resume_from=respelled)
    assert resumed.read_bytes() == run("whole", epochs=2).read_bytes()


def test_runs_that_would_train_no_epoch_are_refused(tiny_data, tiny_specs, tmp_path):
    """A fresh run with epochs < 1, or a resume from a checkpoint that already
    has the run's epochs, would write checkpoints but no metrics.csv row; it
    is refused before the out-dir is made."""
    train, val = tiny_data
    spec, _ = tiny_specs

    def run(tag, epochs, resume_from=None):
        return train_teacher(spec, train, val, SGD, SCHED, epochs=epochs, seed=0,
                             out_dir=tmp_path / tag, batch_size=32, resume_from=resume_from)

    for epochs in (0, -3):
        with pytest.raises(ValueError, match=f"^epochs = {epochs} leaves no epoch to train"):
            run("fresh", epochs)
    done = run("done", 1).final_ckpt
    with pytest.raises(ValueError, match=f"^{re.escape(str(done))}: checkpoint is at "
                                         f"epoch 1, so epochs = 1 leaves no epoch"):
        run("resumed", 1, resume_from=done)
    assert not (tmp_path / "fresh").exists() and not (tmp_path / "resumed").exists()


def test_distill_refuses_edt_params_that_contradict_its_config(tiny_data, tiny_specs,
                                                               tmp_path, monkeypatch):
    """With CD on, an EdtParams whose alpha, lam or n_decay differs from the
    DistillConfig's is refused before any teacher forward; a config n_decay of
    None accepts any, and with CD off the EdtParams are not compared."""
    train, val = tiny_data
    teacher_spec, student = tiny_specs
    tres = train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=1, seed=0,
                         out_dir=tmp_path / "t", batch_size=32)

    def run(tag, cfg, edt):
        return distill(tres.final_ckpt, student, train, val, cfg, SGD, SCHED, edt,
                       epochs=1, seed=1, out_dir=tmp_path / tag, batch_size=32)

    calls = count_teacher_forwards(monkeypatch)
    cfg = DistillConfig(alpha=1.0, lam=0.5, n_decay=2)
    for tag, edt, why in (("roadmap", EdtParams(0.25, 0.9, 7), "alpha = 1.0, EdtParams 0.25"),
                          ("lam", EdtParams(1.0, 0.9, 2), "lam = 0.5, EdtParams 0.9"),
                          ("n-decay", EdtParams(1.0, 0.5, 7), "n_decay = 2, EdtParams 7")):
        with pytest.raises(ValueError, match=f"^{re.escape(f'DistillConfig has {why}')}$"):
            run(tag, cfg, edt)
        assert not (tmp_path / tag).exists()
    assert calls == []
    run("any-n-decay", DistillConfig(alpha=1.0, lam=0.5), EdtParams(1.0, 0.5, 7))
    run("cd-off", DistillConfig(alpha=0.0, lam=0.5, n_decay=2), EdtParams(0.25, 0.9, 7))


def test_distill_refuses_teacher_with_other_normalization(tiny_data, tiny_specs, tmp_path,
                                                          monkeypatch):
    train, val = tiny_data
    teacher_spec, student = tiny_specs
    means, stds = channel_stats(train)
    shifted = means.copy()
    shifted[1] += 0.01
    wide = stds.copy()
    wide[2] *= 1.5
    cfg = DistillConfig(alpha=1.0, lam=0.5, gkd_enabled=True, n_decay=5)
    edt = EdtParams(1.0, 0.5, 5)

    def run(teacher_ckpt, tag, aug, epochs=1, resume_from=None):
        return distill(teacher_ckpt, student, train, val, cfg, SGD, SCHED, edt,
                       epochs=epochs, seed=1, out_dir=tmp_path / tag, batch_size=32,
                       aug_cfg=aug, resume_from=resume_from)

    tres = train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=1, seed=0,
                         out_dir=tmp_path / "t", batch_size=32)
    name = re.escape(str(tres.final_ckpt))

    def differ(key, theirs, ours):
        return re.escape(f" has [normalize] {key} = {format_value(theirs)}, "
                         f"this run {format_value(ours)}")

    run_stats = Normalization(means, stds)
    calls = count_teacher_forwards(monkeypatch)
    with pytest.raises(ValueError, match=f"{name}: teacher" + differ(
            "means", run_stats.means, Normalization(shifted, stds).means)):
        run(tres.final_ckpt, "a", AugmentConfig(shifted, stds))
    with pytest.raises(ValueError, match=f"{name}: teacher" + differ(
            "stds", run_stats.stds, Normalization(means, wide).stds)):
        run(tres.final_ckpt, "b", AugmentConfig(means, wide))
    assert calls == []

    # a resume refuses stats that differ from its checkpoint's, even when the
    # teacher's agree with them
    first = run(tres.final_ckpt, "c", None)
    other = train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=1, seed=0,
                          out_dir=tmp_path / "t2", batch_size=32,
                          aug_cfg=AugmentConfig(shifted, stds))
    calls.clear()
    first_name = re.escape(str(first.final_ckpt))
    shifted_stats = Normalization(shifted, stds)
    with pytest.raises(ValueError, match=f"{first_name}: checkpoint" + differ(
            "means", run_stats.means, shifted_stats.means)):
        run(other.final_ckpt, "d", AugmentConfig(shifted, stds), epochs=2,
            resume_from=first.final_ckpt)
    with pytest.raises(ValueError, match=differ("means", shifted_stats.means,
                                                run_stats.means)):
        run(other.final_ckpt, "e", None, epochs=2, resume_from=first.final_ckpt)
    assert calls == []


def test_distill_determinism_bitwise(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    teacher_spec, student = tiny_specs
    tres = train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=1, seed=7,
                         out_dir=tmp_path / "teacher", batch_size=32)
    cfg = DistillConfig(alpha=1.0, lam=0.5, gkd_enabled=True, n_decay=5)
    runs = []
    for tag in ("a", "b"):
        runs.append(distill(tres.final_ckpt, student, train, val, cfg, SGD, SCHED,
                            EdtParams(alpha=1.0, lam=0.5, n_decay=5), epochs=2,
                            seed=11, out_dir=tmp_path / tag, batch_size=32))
    assert strip_wall(runs[0].csv_path.read_text()) == \
        strip_wall(runs[1].csv_path.read_text())
    assert runs[0].final_ckpt.read_bytes() == runs[1].final_ckpt.read_bytes()


def test_resume_replays_uninterrupted_run(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    _, student = tiny_specs
    full = train_teacher(student, train, val, SGD, SCHED, epochs=4, seed=13,
                         out_dir=tmp_path / "full", batch_size=32)
    half = train_teacher(student, train, val, SGD, SCHED, epochs=2, seed=13,
                         out_dir=tmp_path / "half", batch_size=32)
    resumed = train_teacher(student, train, val, SGD, SCHED, epochs=4, seed=13,
                            out_dir=tmp_path / "resumed", batch_size=32,
                            resume_from=half.final_ckpt)
    full_rows = strip_wall(full.csv_path.read_text())
    res_rows = strip_wall(resumed.csv_path.read_text())
    assert res_rows[0] == full_rows[0]           # same header
    assert res_rows[1:] == full_rows[3:]         # epochs 2..3 replayed exactly
    assert resumed.final_ckpt.read_bytes() == full.final_ckpt.read_bytes()


def test_resume_into_own_out_dir_keeps_earlier_rows(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    _, student = tiny_specs
    full = train_teacher(student, train, val, SGD, SCHED, epochs=4, seed=13,
                         out_dir=tmp_path / "full", batch_size=32)
    run = tmp_path / "run"
    train_teacher(student, train, val, SGD, SCHED, epochs=2, seed=13, out_dir=run,
                  batch_size=32)
    resumed = train_teacher(student, train, val, SGD, SCHED, epochs=4, seed=13,
                            out_dir=run, batch_size=32, resume_from=run / "last.ckpt")
    assert strip_wall(resumed.csv_path.read_text()) == strip_wall(full.csv_path.read_text())
    assert resumed.final_ckpt.read_bytes() == full.final_ckpt.read_bytes()


def test_run_cut_short_leaves_whole_csv_rows_and_resumes(tiny_data, tiny_specs, tmp_path,
                                                         monkeypatch):
    """metrics.csv is written once, then appended a whole row per epoch: a
    run cut short in epoch 2 leaves the header and two whole rows, and its
    resume ends with the uninterrupted run's file."""
    train, val = tiny_data                 # 96 rows: three steps of 32 an epoch
    _, student = tiny_specs

    def run(out_dir, resume_from=None):
        return train_teacher(student, train, val, SGD, SCHED, epochs=4, seed=13,
                             out_dir=out_dir, batch_size=32, resume_from=resume_from)

    full = run(tmp_path / "full")
    real_backward, real_write = cdkd.train.backward, Path.write_text
    steps, csv_writes = [], []

    class Cut(Exception):
        pass

    def cut_in_epoch_2(loss):
        steps.append(1)
        if len(steps) == 2 * 3 + 2:
            raise Cut
        return real_backward(loss)

    def counted_write(self, *args, **kwargs):
        if self.name == "metrics.csv":
            csv_writes.append(self)
        return real_write(self, *args, **kwargs)

    monkeypatch.setattr(cdkd.train, "backward", cut_in_epoch_2)
    monkeypatch.setattr(Path, "write_text", counted_write)
    crashed = tmp_path / "run"
    with pytest.raises(Cut):
        run(crashed)
    monkeypatch.undo()
    assert len(csv_writes) == 1                # the header; the rows were appended
    text = (crashed / "metrics.csv").read_text()
    assert text.endswith("\n")
    assert strip_wall(text) == strip_wall(full.csv_path.read_text())[:3]
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in text.splitlines())
    resumed = run(crashed, resume_from=crashed / "last.ckpt")
    assert strip_wall(resumed.csv_path.read_text()) == strip_wall(full.csv_path.read_text())
    assert resumed.final_ckpt.read_bytes() == full.final_ckpt.read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts_with_diagnostic(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    _, student = tiny_specs
    with pytest.raises(NonFiniteLossError):
        train_teacher(student, train, val,
                      SgdConfig(lr0=1e9, momentum=0.9, weight_decay=0.0),
                      SCHED, epochs=2, seed=0, out_dir=tmp_path, batch_size=32)
    assert (tmp_path / "diagnostic.json").exists()


NAN = float("nan")


@pytest.mark.parametrize("make", [
    pytest.param(lambda: DistillConfig(temperature=NAN), id="temperature"),
    pytest.param(lambda: DistillConfig(alpha=NAN), id="distill-alpha"),
    pytest.param(lambda: EdtParams(NAN, 0.5, 2), id="edt-alpha"),
    pytest.param(lambda: EdtParams(1.0, 0.5, NAN), id="edt-n_decay"),
    pytest.param(lambda: DistillConfig(n_decay=NAN), id="distill-n_decay"),
    pytest.param(lambda: softened_softmax(Tensor(np.zeros((2, 3))), NAN),
                 id="softmax-temperature"),
    pytest.param(lambda: SgdConfig(lr0=NAN), id="lr0"),
    pytest.param(lambda: SgdConfig(lr0=0.1, weight_decay=NAN), id="weight_decay"),
    pytest.param(lambda: AugmentConfig(np.zeros(3), [1.0, NAN, 1.0]), id="augment-std"),
    pytest.param(lambda: Normalization((0.5, NAN, 0.5), (1.0,) * 3), id="nan-mean"),
    pytest.param(lambda: Normalization((0.5,) * 3, (1.0, float("inf"), 1.0)), id="inf-std"),
    pytest.param(lambda: Normalization((0.5,) * 3, (0.0,) * 3), id="zero-stds"),
])
def test_records_refuse_nan_and_broken_stats(make):
    """Every range check fails on NaN, and the header's [normalize] holds
    AugmentConfig's rule: finite stats, stds above zero."""
    with pytest.raises(ValueError, match="must be"):
        make()


def test_best_checkpoint_tracks_lowest_val_error(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    _, student = tiny_specs
    res = train_teacher(student, train, val, SGD, SCHED, epochs=3, seed=1,
                        out_dir=tmp_path, batch_size=32)
    assert res.best_ckpt.exists() and res.final_ckpt.exists()
    best_state = load_model_checkpoint(res.best_ckpt)[1]["state"]
    rows = res.csv_path.read_text().strip().split("\n")[1:]
    val_errs = [float(r.split(",")[9]) for r in rows]
    assert best_state.best_val_top1 == pytest.approx(min(val_errs), abs=1e-9)


# -- the teacher-target cache -------------------------------------------------------

CACHE_BATCH = 32
DISTILL_CFGS = {
    "cd+gkd": DistillConfig(alpha=1.0, lam=0.5, gkd_enabled=True, n_decay=2),
    "cd": DistillConfig(alpha=1.0, lam=0.5, gkd_enabled=False, n_decay=2),
    "gkd": DistillConfig(alpha=0.0, gkd_enabled=True, n_decay=2),
}


@pytest.fixture(scope="module")
def uneven_run(tmp_path_factory, tiny_specs):
    """100 training rows, three full batches and a short one of 4, and a
    teacher trained on them, so its normalization stats are the run's."""
    train = make_synthetic(4, 25, 8, seed=7, split="train")
    val = make_synthetic(4, 12, 8, seed=7, split="val")
    tres = train_teacher(tiny_specs[0], train, val, SGD, SCHED, epochs=1, seed=3,
                         out_dir=tmp_path_factory.mktemp("uneven"), batch_size=CACHE_BATCH)
    return train, val, tres.final_ckpt


def live_teacher_calls(train, shuffle_seed, epochs):
    """Batch sizes of the teacher forwards a run starting with an empty cache
    makes: every short batch, and every full batch holding a row that no
    earlier full batch of the run held."""
    held = np.zeros(len(train), dtype=bool)
    calls = []
    for epoch in epochs:
        for idx, _, _ in iterate_batches(train, CACHE_BATCH, derive_epoch(shuffle_seed, epoch)):
            full = len(idx) == CACHE_BATCH
            if not (full and held[idx].all()):
                calls.append(len(idx))
            if full:
                held[idx] = True
    return calls


def run_dir_bytes(res, name):
    return (res.csv_path.parent / name).read_bytes()


@pytest.mark.parametrize("terms", sorted(DISTILL_CFGS))
def test_teacher_cache_is_bit_identical_to_live_teacher(uneven_run, tiny_specs, tmp_path,
                                                        monkeypatch, terms):
    train, val, teacher_ckpt = uneven_run
    _, student = tiny_specs
    calls = count_teacher_forwards(monkeypatch)

    def run(tag):
        calls.clear()
        return distill(teacher_ckpt, student, train, val, DISTILL_CFGS[terms], SGD, SCHED,
                       EdtParams(1.0, 0.5, 2), epochs=3, seed=4, out_dir=tmp_path / tag,
                       batch_size=CACHE_BATCH)

    cached = run("cached")
    assert calls == live_teacher_calls(train, derive(cached.state.seed, "shuffle"), range(3))
    assert len(calls) < 3 * 4
    monkeypatch.setattr(AugmentConfig, "randomizes", property(lambda self: True))
    live = run("live")
    assert calls == [32, 32, 32, 4] * 3
    assert strip_wall(cached.csv_path.read_text()) == strip_wall(live.csv_path.read_text())
    for name in ("final.ckpt", "best.ckpt"):
        assert run_dir_bytes(cached, name) == run_dir_bytes(live, name), name


@pytest.mark.parametrize("aug, cached", [
    (dict(), True),
    (dict(pad=2, random_crop=False), True),
    (dict(hflip_prob=0.5), False),
    (dict(pad=2, random_crop=True), False),
    (dict(pad=2), False),                   # pad > 0 is the crop
])
def test_teacher_runs_live_only_where_the_cache_cannot_serve(uneven_run, tiny_specs,
                                                             tmp_path, monkeypatch, aug,
                                                             cached):
    train, val, teacher_ckpt = uneven_run
    _, student = tiny_specs
    calls = count_teacher_forwards(monkeypatch)
    res = distill(teacher_ckpt, student, train, val, DISTILL_CFGS["cd+gkd"], SGD, SCHED,
                  EdtParams(1.0, 0.5, 2), epochs=3, seed=4, out_dir=tmp_path,
                  batch_size=CACHE_BATCH, aug_cfg=AugmentConfig(*channel_stats(train), **aug))
    if cached:
        # epoch 0 in full, one short batch per epoch, and the later full
        # batches that hold a row epoch 0 saw only in its short batch
        expected = live_teacher_calls(train, derive(res.state.seed, "shuffle"), range(3))
        assert expected[:4] == [32, 32, 32, 4] and expected.count(4) == 3
    else:
        expected = [32, 32, 32, 4] * 3
    assert calls == expected


def test_a_pad_with_the_crop_off_is_pad_0(uneven_run, tiny_specs, tmp_path):
    """AugmentConfig(pad=2, random_crop=False) crops nothing, so it is pad 0:
    its header records [data] pad = 0, and a pad = 0 run resumes from it onto
    the uninterrupted pad = 0 run. (That the teacher-target cache serves it,
    test_teacher_runs_live_only_where_the_cache_cannot_serve checks.)"""
    train, val, teacher_ckpt = uneven_run
    _, student = tiny_specs
    stats = channel_stats(train)

    def run(out_dir, aug, epochs, resume_from=None):
        return distill(teacher_ckpt, student, train, val, DISTILL_CFGS["cd+gkd"], SGD,
                       SCHED, EdtParams(1.0, 0.5, 2), epochs=epochs, seed=4,
                       out_dir=out_dir, batch_size=CACHE_BATCH, aug_cfg=aug,
                       resume_from=resume_from)

    off = AugmentConfig(*stats, pad=2, random_crop=False)
    assert off.pad == 0 and not off.randomizes
    cut = run(tmp_path / "run", off, 2)
    header, _ = load_checkpoint(cut.final_ckpt)
    assert re.search(r"(?m)^\[data\]\nbatch_size = 32\npad = 0\nhflip_prob = 0\ncrc = ", header)
    full = run(tmp_path / "full", AugmentConfig(*stats), 3)
    resumed = run(tmp_path / "run", AugmentConfig(*stats), 3,
                  resume_from=tmp_path / "run" / "last.ckpt")
    assert strip_wall(resumed.csv_path.read_text()) == strip_wall(full.csv_path.read_text())
    assert run_dir_bytes(resumed, "final.ckpt") == run_dir_bytes(full, "final.ckpt")


def test_teacher_runs_once_per_row_on_an_even_split(tiny_data, tiny_specs, tmp_path,
                                                   monkeypatch):
    train, val = tiny_data                 # 96 rows: three full batches of 32
    teacher_spec, student = tiny_specs
    tres = train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=1, seed=2,
                         out_dir=tmp_path / "t", batch_size=CACHE_BATCH)
    calls = count_teacher_forwards(monkeypatch)
    distill(tres.final_ckpt, student, train, val, DISTILL_CFGS["cd+gkd"], SGD, SCHED,
            EdtParams(1.0, 0.5, 2), epochs=3, seed=4, out_dir=tmp_path / "s",
            batch_size=CACHE_BATCH)
    assert calls == [32, 32, 32]


def test_distill_resumed_from_last_ckpt_matches_uninterrupted(uneven_run, tiny_specs,
                                                              tmp_path, monkeypatch):
    train, val, teacher_ckpt = uneven_run
    _, student = tiny_specs

    def run(out_dir, epochs, resume_from=None):
        return distill(teacher_ckpt, student, train, val, DISTILL_CFGS["cd+gkd"], SGD,
                       SCHED, EdtParams(1.0, 0.5, 2), epochs=epochs, seed=5,
                       out_dir=out_dir, batch_size=CACHE_BATCH, resume_from=resume_from)

    full = run(tmp_path / "full", 4)
    run(tmp_path / "run", 2)
    calls = count_teacher_forwards(monkeypatch)
    resumed = run(tmp_path / "run", 4, resume_from=tmp_path / "run" / "last.ckpt")
    # the cache starts empty: the first resumed epoch runs every batch live
    assert calls[:4] == [32, 32, 32, 4]
    assert calls == live_teacher_calls(train, derive(resumed.state.seed, "shuffle"),
                                       range(2, 4))
    assert strip_wall(resumed.csv_path.read_text()) == strip_wall(full.csv_path.read_text())
    for name in ("final.ckpt", "best.ckpt"):
        assert run_dir_bytes(resumed, name) == run_dir_bytes(full, name), name


def test_crash_while_writing_last_ckpt_resumes_to_the_uninterrupted_run(uneven_run, tiny_specs,
                                                                        tmp_path, monkeypatch):
    """The write of epoch 2's last.ckpt fails partway: every .ckpt left is
    whole, last.ckpt still holds epoch 1's end, and a resume from it ends
    with the uninterrupted run's bytes."""
    train, val, teacher_ckpt = uneven_run
    _, student = tiny_specs

    def run(out_dir, resume_from=None):
        return distill(teacher_ckpt, student, train, val, DISTILL_CFGS["cd+gkd"], SGD,
                       SCHED, EdtParams(1.0, 0.5, 2), epochs=4, seed=5,
                       out_dir=out_dir, batch_size=CACHE_BATCH, resume_from=resume_from)

    full = run(tmp_path / "full")
    real_write = Path.write_bytes
    last_writes = []

    def write_cut_short(self, data):
        if self.name.startswith("last.ckpt"):
            last_writes.append(self.name)
            if len(last_writes) == 3:
                real_write(self, data[:len(data) // 2])
                raise OSError("no space left on device")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", write_cut_short)
    crashed = tmp_path / "run"
    with pytest.raises(OSError, match="no space left"):
        run(crashed)
    monkeypatch.undo()
    assert {p.name for p in crashed.iterdir()} == {"metrics.csv", "best.ckpt", "last.ckpt"}
    for ckpt in crashed.glob("*.ckpt"):
        load_checkpoint(ckpt)                  # CRC-valid: whole
    assert load_model_checkpoint(crashed / "last.ckpt")[1]["state"].epoch == 2
    resumed = run(crashed, resume_from=crashed / "last.ckpt")
    assert strip_wall(resumed.csv_path.read_text()) == strip_wall(full.csv_path.read_text())
    for name in ("final.ckpt", "best.ckpt", "last.ckpt"):
        assert run_dir_bytes(resumed, name) == run_dir_bytes(full, name), name


# -- the teacher a batch ahead ------------------------------------------------------


class InlineExecutor:
    """Runs each submitted call at once on the calling thread: the fit loop
    with its teacher forwards and student steps strictly in turn."""

    def __init__(self, max_workers):
        assert max_workers == 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future


def teacher_threads(monkeypatch):
    """The thread of each teacher forward _fit makes."""
    threads = []
    real = cdkd.train.forward_with_taps

    def recording(net, batch):
        if not any(p.requires_grad for _, p in net.parameters()):
            threads.append(threading.current_thread())
        return real(net, batch)

    monkeypatch.setattr(cdkd.train, "forward_with_taps", recording)
    return threads


@pytest.mark.parametrize("case", ["crop+flip", "cache", "short-1", "resume"])
def test_teacher_ahead_is_bit_identical_to_running_in_turn(uneven_run, tiny_specs, tmp_path,
                                                           monkeypatch, case):
    """The teacher a batch ahead on its worker thread and the teacher run
    inline before each step write the same metrics.csv (less wall_seconds)
    and the same checkpoint bytes: with crop and flip on, with the cache
    serving later epochs, with a 1-row last batch and across a resume."""
    train, val, teacher_ckpt = uneven_run
    _, student = tiny_specs
    aug = (AugmentConfig(*channel_stats(train), pad=2, random_crop=True, hflip_prob=0.5)
           if case == "crop+flip" else None)
    batch_size = 33 if case == "short-1" else CACHE_BATCH       # 100 rows: 3 x 33 + 1
    threads = teacher_threads(monkeypatch)

    def run(out_dir, epochs=3, resume_from=None):
        return distill(teacher_ckpt, student, train, val, DISTILL_CFGS["cd+gkd"], SGD, SCHED,
                       EdtParams(1.0, 0.5, 2), epochs=epochs, seed=4, out_dir=out_dir,
                       batch_size=batch_size, aug_cfg=aug, resume_from=resume_from)

    def runs(tag):
        threads.clear()
        if case != "resume":
            return run(tmp_path / tag)
        run(tmp_path / tag, epochs=2)
        return run(tmp_path / tag, resume_from=tmp_path / tag / "last.ckpt")

    ahead = runs("ahead")
    assert threads and threading.main_thread() not in threads
    monkeypatch.setattr(cdkd.train, "ThreadPoolExecutor", InlineExecutor)
    in_turn = runs("in-turn")
    assert set(threads) == {threading.main_thread()}
    assert strip_wall(ahead.csv_path.read_text()) == strip_wall(in_turn.csv_path.read_text())
    for name in ("final.ckpt", "best.ckpt", "last.ckpt"):
        assert run_dir_bytes(ahead, name) == run_dir_bytes(in_turn, name), name


def worker_threads(before):
    return [t for t in threading.enumerate() if t not in before]


def test_a_failing_teacher_forward_raises_from_distill_and_leaves_no_thread(
        uneven_run, tiny_specs, tmp_path, monkeypatch):
    train, val, teacher_ckpt = uneven_run
    _, student = tiny_specs
    real = cdkd.train.forward_with_taps
    calls = []

    def failing(net, batch):
        if not any(p.requires_grad for _, p in net.parameters()):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise FloatingPointError("teacher forward 3 failed")
        return real(net, batch)

    monkeypatch.setattr(cdkd.train, "forward_with_taps", failing)
    before = threading.enumerate()
    with pytest.raises(FloatingPointError, match="teacher forward 3 failed"):
        distill(teacher_ckpt, student, train, val, DISTILL_CFGS["cd+gkd"], SGD, SCHED,
                EdtParams(1.0, 0.5, 2), epochs=2, seed=4, out_dir=tmp_path,
                batch_size=CACHE_BATCH, aug_cfg=AugmentConfig(*channel_stats(train),
                                                              hflip_prob=0.5))
    # forward 4 was submitted before forward 3 was joined; the pool waits for it
    assert len(calls) == 4 and threading.main_thread() not in calls
    assert worker_threads(before) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_loss_with_a_teacher_forward_pending_leaves_no_thread(
        uneven_run, tiny_specs, tmp_path, monkeypatch):
    """An infinite CD weight makes step 0's loss non-finite when batch 1's
    teacher forward has already been submitted: it is waited for, and the
    worker is gone."""
    train, val, teacher_ckpt = uneven_run
    _, student = tiny_specs
    threads = teacher_threads(monkeypatch)
    before = threading.enumerate()
    inf = float("inf")
    with pytest.raises(NonFiniteLossError, match="step 0"):
        distill(teacher_ckpt, student, train, val,
                DistillConfig(alpha=inf, lam=0.5, gkd_enabled=True, n_decay=2), SGD, SCHED,
                EdtParams(inf, 0.5, 2), epochs=2, seed=4, out_dir=tmp_path,
                batch_size=CACHE_BATCH)
    assert len(threads) == 2 and threading.main_thread() not in threads
    assert worker_threads(before) == []
    assert (tmp_path / "diagnostic.json").exists()


def test_teacher_training_starts_no_thread(tiny_data, tiny_specs, tmp_path, monkeypatch):
    train, val = tiny_data
    started = []

    def no_pool(max_workers):
        raise AssertionError("a run with no teacher made a thread pool")

    monkeypatch.setattr(cdkd.train, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    train_teacher(tiny_specs[1], train, val, SGD, SCHED, epochs=2, seed=0, out_dir=tmp_path,
                  batch_size=32)
    assert started == []
