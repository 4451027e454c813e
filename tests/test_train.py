import numpy as np
import pytest

from cdkd.losses import DistillConfig, cd_loss, channel_weights
from cdkd.models import NetworkSpec, build_network, forward_with_taps, make_adapter
from cdkd.optim import EdtParams, LrSchedule, SgdConfig
from cdkd.tensor import Tensor
from cdkd.train import (CSV_COLUMNS, NonFiniteLossError, distill, evaluate,
                        load_model_checkpoint, topk_error, train_teacher)

SGD = SgdConfig(lr0=0.05, momentum=0.9, weight_decay=1e-4)
SCHED = LrSchedule(milestones=(50,), factor=0.1)


def strip_wall(csv_text: str):
    """Rows minus the wall_seconds column (the only timing-dependent field)."""
    return [",".join(line.split(",")[:-1]) for line in csv_text.strip().split("\n")]


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
        evaluate(net, val, np.zeros(3, np.float32), np.ones(3, np.float32))


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
    net, _, _, _, _ = load_model_checkpoint(res.final_ckpt)
    fresh = build_network(student, seed=res.state.model_seed)
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
    net_a, _, _, _, _ = load_model_checkpoint(dres.final_ckpt)
    net_b, _, _, _, _ = load_model_checkpoint(pres.final_ckpt)
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
        assert a.identity_flag
        assert cd_loss(channel_weights(ta), channel_weights(tb)).item() == 0.0


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
    net, _, _, _, _ = load_model_checkpoint(dres.final_ckpt)
    fresh = build_network(student, seed=dres.state.model_seed)
    moved = any(a.data.tobytes() != b.data.tobytes()
                for (_, a), (_, b) in zip(net.parameters(), fresh.parameters()))
    assert moved


def test_distill_tap_count_mismatch_rejected(tiny_data, tmp_path):
    train, val = tiny_data
    teacher_spec = NetworkSpec.from_channels([4, 6], num_classes=4)
    student3 = NetworkSpec.from_channels([4, 6, 8], num_classes=4)
    tres = train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=1, seed=0,
                         out_dir=tmp_path / "t", batch_size=32)
    cfg = DistillConfig(alpha=1.0, n_decay=5)
    with pytest.raises(ValueError, match="tap count"):
        distill(tres.final_ckpt, student3, train, val, cfg, SGD, SCHED,
                EdtParams(1.0, 0.5, 5), epochs=1, seed=0,
                out_dir=tmp_path / "s", batch_size=32)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts_with_diagnostic(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    _, student = tiny_specs
    with pytest.raises(NonFiniteLossError):
        train_teacher(student, train, val,
                      SgdConfig(lr0=1e9, momentum=0.9, weight_decay=0.0),
                      SCHED, epochs=2, seed=0, out_dir=tmp_path, batch_size=32)
    assert (tmp_path / "diagnostic.json").exists()


def test_plain_kd_fallback_mode(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    teacher_spec, student = tiny_specs
    tres = train_teacher(teacher_spec, train, val, SGD, SCHED, epochs=2, seed=2,
                         out_dir=tmp_path / "t", batch_size=32)
    cfg = DistillConfig(alpha=0.0, gkd_enabled=False, plain_kd_fallback=True,
                        n_decay=5)
    res = distill(tres.final_ckpt, student, train, val, cfg, SGD, SCHED,
                  EdtParams(1.0, 1.0, 5), epochs=1, seed=3,
                  out_dir=tmp_path / "kd", batch_size=32)
    row = res.csv_path.read_text().strip().split("\n")[1].split(",")
    loss_gkd, frac = float(row[5]), float(row[7])
    assert loss_gkd > 0.0            # unmasked KD value is logged in this column
    assert 0.0 <= frac <= 1.0


def test_best_checkpoint_tracks_lowest_val_error(tiny_data, tiny_specs, tmp_path):
    train, val = tiny_data
    _, student = tiny_specs
    res = train_teacher(student, train, val, SGD, SCHED, epochs=3, seed=1,
                        out_dir=tmp_path, batch_size=32)
    assert res.best_ckpt.exists() and res.final_ckpt.exists()
    _, _, best_state, _, _ = load_model_checkpoint(res.best_ckpt)
    rows = res.csv_path.read_text().strip().split("\n")[1:]
    val_errs = [float(r.split(",")[9]) for r in rows]
    assert best_state.best_val_top1 == pytest.approx(min(val_errs), abs=1e-9)
