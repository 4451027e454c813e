"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run with `pytest -s`
to watch them live). The desk-scale ablation (criterion 5) trains one
teacher and twenty students; expect a few minutes of wall time.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cdkd.checkpoint import load_checkpoint, save_checkpoint
from cdkd.data import (DataFormatError, load_cifar_binary, make_synthetic,
                       write_cifar10)
from cdkd.gradcheck import composite_grad_reports, grad_reports, value_reports
from cdkd.losses import (DistillConfig, cd_loss, gkd_loss,
                         kd_loss)
from cdkd.models import NetworkSpec
from cdkd.optim import EdtParams, LrSchedule, SgdConfig, edt_weight
from cdkd.tensor import Tensor, backward
from cdkd.train import distill, train_teacher


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL - {description}")
        raise
    print(f"[criterion {n}] PASS - {description}")


def strip_wall(csv_text: str):
    return [",".join(line.split(",")[:-1]) for line in csv_text.strip().split("\n")]


# -- desk-scale ablation protocol (criterion 5, reused by 6 and 7) ---------------

TEACHER_CHANNELS = [12, 24, 48]
STUDENT_CHANNELS = [4, 8, 16]
N_CLASSES, PER_TRAIN, PER_VAL, IMG = 8, 200, 100, 16
SGD = SgdConfig(lr0=0.02, momentum=0.9, weight_decay=5e-4)
TEACHER_EPOCHS, TEACHER_SCHED = 15, LrSchedule((12,), 0.2)
STUDENT_EPOCHS, STUDENT_SCHED = 8, LrSchedule((6,), 0.2)
BATCH = 32
SEEDS = (0, 1, 2, 3, 4)
ALPHA, TEMP, LAM, N_DECAY = 1.0, 4.0, 0.7, 6

ROWS = {
    "student (scratch)": dict(
        cfg=DistillConfig(temperature=TEMP, alpha=0.0, gkd_enabled=False,
                          n_decay=N_DECAY),
        edt=EdtParams(1.0, 1.0, N_DECAY)),
    "CD": dict(
        cfg=DistillConfig(temperature=TEMP, alpha=ALPHA, lam=1.0, gkd_enabled=False,
                          n_decay=N_DECAY),
        edt=EdtParams(ALPHA, 1.0, N_DECAY)),
    "CD+GKD": dict(
        cfg=DistillConfig(temperature=TEMP, alpha=ALPHA, lam=1.0, gkd_enabled=True,
                          n_decay=N_DECAY),
        edt=EdtParams(ALPHA, 1.0, N_DECAY)),
    "CD+GKD+EDT": dict(
        cfg=DistillConfig(temperature=TEMP, alpha=ALPHA, lam=LAM, gkd_enabled=True,
                          n_decay=N_DECAY),
        edt=EdtParams(ALPHA, LAM, N_DECAY)),
}


@pytest.fixture(scope="session")
def ablation(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    t0 = time.perf_counter()
    train = make_synthetic(N_CLASSES, PER_TRAIN, IMG, seed=0, split="train")
    val = make_synthetic(N_CLASSES, PER_VAL, IMG, seed=0, split="val")
    assert len(train) >= 1600 and len(val) >= 800

    teacher_spec = NetworkSpec.from_channels(TEACHER_CHANNELS, num_classes=N_CLASSES)
    student_spec = NetworkSpec.from_channels(STUDENT_CHANNELS, num_classes=N_CLASSES)
    teacher = train_teacher(teacher_spec, train, val, SGD, TEACHER_SCHED,
                            epochs=TEACHER_EPOCHS, seed=1, out_dir=root / "teacher",
                            batch_size=BATCH)

    errors = {}
    run_dirs = {}
    for name, row in ROWS.items():
        errs = []
        for seed in SEEDS:
            out = root / f"{name.replace(' ', '_').replace('(', '').replace(')', '')}-{seed}"
            res = distill(teacher.best_ckpt, student_spec, train, val, row["cfg"],
                          SGD, STUDENT_SCHED, row["edt"], epochs=STUDENT_EPOCHS,
                          seed=seed, out_dir=out, batch_size=BATCH)
            errs.append(res.val_top1)
            run_dirs[(name, seed)] = out
        errors[name] = errs
    wall = time.perf_counter() - t0
    return dict(root=root, train=train, val=val, teacher=teacher,
                student_spec=student_spec, errors=errors, run_dirs=run_dirs,
                wall=wall)


# -- criteria ------------------------------------------------------------------


def test_criterion_1_loss_identities(tiny_data, tiny_specs, tmp_path):
    with criterion(1, "loss identity suite (exact / 1e-6)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)

        w = Tensor(rng.normal(size=(4, 8)).astype(np.float32))
        assert cd_loss(w, w).item() == 0.0

        t_logits = Tensor(np.array([[9.0, 0.0]] * 3, dtype=np.float32))
        s_logits = Tensor(rng.normal(size=(3, 2)).astype(np.float32))
        loss, count = gkd_loss(s_logits, t_logits, np.array([1, 1, 1]), TEMP)
        assert loss.item() == 0.0 and count == 0

        t_rand = Tensor((rng.normal(size=(6, 5)) * 2).astype(np.float32))
        labels = np.argmax(t_rand.data, axis=1)
        s_rand = Tensor((rng.normal(size=(6, 5)) * 2).astype(np.float32))
        g, n_corr = gkd_loss(s_rand, t_rand, labels, TEMP)
        assert n_corr == 6
        assert g.item() == kd_loss(s_rand, t_rand, TEMP).item()

        for alpha in (0.0, 0.5, 2.0):
            assert edt_weight(EdtParams(alpha, 0.5, 7), 0) == alpha

        # decomposition identity on every logged step of a real run
        train, val = tiny_data
        teacher_spec, student_spec = tiny_specs
        tres = train_teacher(teacher_spec, train, val, SGD, STUDENT_SCHED, epochs=1,
                             seed=0, out_dir=tmp_path / "t", batch_size=16)
        dres = distill(tres.final_ckpt, student_spec, train, val,
                       DistillConfig(alpha=1.0, lam=0.5, gkd_enabled=True, n_decay=2),
                       SGD, STUDENT_SCHED, EdtParams(1.0, 0.5, 2), epochs=2, seed=0,
                       out_dir=tmp_path / "s", batch_size=16)
        rows = [r.split(",") for r in
                dres.csv_path.read_text().strip().split("\n")[1:]]
        for r in rows:
            edt_w, tot, cd, gkd, ce = (float(r[i]) for i in (2, 3, 4, 5, 6))
            assert abs(tot - (edt_w * cd + gkd + ce)) <= 1e-6
        assert time.perf_counter() - t0 < 10.0


def test_criterion_2_gradient_checks():
    with criterion(2, "gradient checks vs central finite differences (rel <= 1e-3)"):
        t0 = time.perf_counter()
        reports = grad_reports(seed=0, cases=20)
        reports += composite_grad_reports(seed=0) + composite_grad_reports(seed=1)
        failures = [r for r in reports if not r.passed]
        assert not failures, failures[:5]
        per_op = {}
        for r in reports:
            per_op.setdefault(r.case_id.split("/")[1], []).append(r)
        assert all(len(v) >= 20 for k, v in per_op.items() if k != "composite")
        assert time.perf_counter() - t0 < 120.0


def test_criterion_3_oracle_equivalence():
    with criterion(3, "engine matches loop oracles on 50 random cases per op"):
        t0 = time.perf_counter()
        reports = value_reports(seed=0, cases=50)
        failures = [r for r in reports if not r.passed]
        assert not failures, failures[:5]
        assert max(r.max_rel_diff for r in reports) <= 1e-5
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_masking_semantics():
    with criterion(4, "teacher-wrong rows: zero loss change, exactly zero gradient"):
        rng = np.random.default_rng(1)
        t_logits = np.array([[6.0, 0.0, 0.0], [0.0, 6.0, 0.0], [0.0, 0.0, 6.0],
                             [6.0, 0.0, 0.0]], dtype=np.float32)
        labels = np.array([0, 0, 2, 1])            # rows 1 and 3 teacher-wrong
        s = rng.normal(size=(4, 3)).astype(np.float32)
        base, _ = gkd_loss(Tensor(s), Tensor(t_logits), labels, TEMP)
        perturbed = s.copy()
        perturbed[[1, 3]] += rng.normal(size=(2, 3)) * 25.0
        moved, _ = gkd_loss(Tensor(perturbed), Tensor(t_logits), labels, TEMP)
        assert moved.item() - base.item() == 0.0

        st = Tensor(s, requires_grad=True)
        loss, _ = gkd_loss(st, Tensor(t_logits), labels, TEMP)
        backward(loss)
        assert np.all(st.grad[1] == 0.0) and np.all(st.grad[3] == 0.0)
        assert np.any(st.grad[0] != 0.0) and np.any(st.grad[2] != 0.0)


def test_criterion_5_desk_scale_ablation(ablation):
    with criterion(5, "desk-scale ablation ordering over 5 seeds"):
        errors = ablation["errors"]
        teacher_err = ablation["teacher"].val_top1
        means = {name: float(np.mean(v)) for name, v in errors.items()}
        print()
        print(f"  teacher ({'x'.join(map(str, TEACHER_CHANNELS))})"
              f"{'':14s} val top-1 {teacher_err:6.2f}%")
        for name, errs in errors.items():
            per_seed = " ".join(f"{e:5.1f}" for e in errs)
            print(f"  {name:24s} mean {means[name]:6.2f}%  seeds [{per_seed}]")
        assert teacher_err < 10.0
        assert means["student (scratch)"] > means["CD"]
        assert means["CD+GKD+EDT"] <= means["CD"]
        assert ablation["wall"] <= 20 * 60, f"ablation took {ablation['wall']:.0f}s"


def test_criterion_6_edt_schedule_in_logs(ablation):
    with criterion(6, "logged edt_weight: non-increasing, alpha at 0, "
                      "alpha*lambda at n_decay"):
        csv = (ablation["run_dirs"][("CD+GKD+EDT", 0)] / "metrics.csv").read_text()
        rows = [r.split(",") for r in csv.strip().split("\n")[1:]]
        weights = [float(r[2]) for r in rows]
        assert all(b <= a for a, b in zip(weights, weights[1:]))
        assert weights[0] == pytest.approx(ALPHA, abs=1e-12)
        assert weights[N_DECAY] == pytest.approx(ALPHA * LAM, abs=1e-6)


def test_criterion_7_determinism(ablation):
    with criterion(7, "identical config+seed: identical metrics and checkpoints, "
                      "teacher frozen"):
        teacher_ckpt = ablation["teacher"].best_ckpt
        teacher_bytes = teacher_ckpt.read_bytes()
        row = ROWS["CD+GKD+EDT"]
        rerun_dir = ablation["root"] / "determinism-rerun"
        res = distill(teacher_ckpt, ablation["student_spec"], ablation["train"],
                      ablation["val"], row["cfg"], SGD, STUDENT_SCHED, row["edt"],
                      epochs=STUDENT_EPOCHS, seed=0, out_dir=rerun_dir,
                      batch_size=BATCH)
        original_dir = ablation["run_dirs"][("CD+GKD+EDT", 0)]
        # metrics identical in every column except the wall-clock one
        assert strip_wall((rerun_dir / "metrics.csv").read_text()) == \
            strip_wall((original_dir / "metrics.csv").read_text())
        assert (rerun_dir / "final.ckpt").read_bytes() == \
            (original_dir / "final.ckpt").read_bytes()
        # the frozen teacher never moved: file untouched, checksum verified
        assert teacher_ckpt.read_bytes() == teacher_bytes
        assert res.teacher_checksum is not None


def test_criterion_8_format_fidelity(tiny_data, tiny_specs, tmp_path):
    with criterion(8, "binary formats round-trip bit-exactly; resume replays"):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, size=(3, 3, 32, 32), dtype=np.uint8)
        labels = np.array([1, 5, 9], dtype=np.uint8)
        cpath = tmp_path / "cifar.bin"
        write_cifar10(cpath, pixels, labels)
        ds = load_cifar_binary(cpath, "cifar10")
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.images, pixels.astype(np.float32) / 255.0)
        cpath.write_bytes(cpath.read_bytes() + b"\x01\x02")
        with pytest.raises(DataFormatError):
            load_cifar_binary(cpath, "cifar10")

        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, "[state]\nepoch = 2\n",
                        {"w": rng.normal(size=(4, 4)).astype(np.float32)})
        header, tensors = load_checkpoint(p1)
        save_checkpoint(p2, header, tensors)
        assert p1.read_bytes() == p2.read_bytes()

        train, val = tiny_data
        _, student_spec = tiny_specs
        full = train_teacher(student_spec, train, val, SGD, STUDENT_SCHED, epochs=4,
                             seed=21, out_dir=tmp_path / "full", batch_size=16)
        half = train_teacher(student_spec, train, val, SGD, STUDENT_SCHED, epochs=2,
                             seed=21, out_dir=tmp_path / "half", batch_size=16)
        resumed = train_teacher(student_spec, train, val, SGD, STUDENT_SCHED,
                                epochs=4, seed=21, out_dir=tmp_path / "resumed",
                                batch_size=16, resume_from=half.final_ckpt)
        full_rows = strip_wall(full.csv_path.read_text())
        res_rows = strip_wall(resumed.csv_path.read_text())
        assert res_rows[1:] == full_rows[3:]
        assert resumed.final_ckpt.read_bytes() == full.final_ckpt.read_bytes()
