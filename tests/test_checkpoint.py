import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdkd.checkpoint import (BadMagicError, BadVersionError, CheckpointError,
                             ChecksumError, load_checkpoint, save_checkpoint)
from cdkd.data import channel_stats
from cdkd.kvtext import format_record, parse_record, parse_sections
from cdkd.losses import DistillConfig
from cdkd.optim import EdtParams, LrSchedule, SgdConfig
from cdkd.train import (RECORDS, DataSettings, Normalization, TeacherId, TrainState, distill,
                        load_model_checkpoint, train_teacher)


def _tensors():
    rng = np.random.default_rng(0)
    return {
        "s0b0.conv1": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
        "fc.w": rng.normal(size=(8, 5)).astype(np.float32),
        "fc.b": np.zeros(5, dtype=np.float32),
    }


def test_round_trip_values_and_header(tmp_path):
    path = tmp_path / "a.ckpt"
    header = "[state]\nepoch = 3\n"
    tensors = _tensors()
    save_checkpoint(path, header, tensors)
    got_header, got = load_checkpoint(path)
    assert got_header == header
    assert list(got) == list(tensors)
    for name in tensors:
        assert got[name].dtype == np.float32
        np.testing.assert_array_equal(got[name], tensors[name])


def test_save_load_save_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, "[state]\nepoch = 1\n", _tensors())
    header, tensors = load_checkpoint(p1)
    save_checkpoint(p2, header, tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_byte_raises_checksum_error(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, "[state]\n", _tensors())
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, "", {})
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"NOPE"
    # keep the CRC consistent so the magic check itself is what fires
    body = bytes(blob[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(BadMagicError):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, "", {})
    blob = bytearray(path.read_bytes())
    blob[4:6] = struct.pack("<H", 99)
    body = bytes(blob[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(BadVersionError):
        load_checkpoint(path)


def test_scalar_and_empty_table(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, "h", {"x": np.float32(3.5)})
    _, got = load_checkpoint(path)
    assert got["x"].shape == ()
    assert got["x"] == np.float32(3.5)


def _reseal(path, body: bytes) -> None:
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def test_table_claiming_more_or_fewer_tensors_raises_checkpoint_error(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, "[state]\n", _tensors())
    body = path.read_bytes()[:-4]
    at = 10 + len("[state]\n")              # the u32 tensor count
    for count in (4, 2):                    # three tensors are stored
        _reseal(path, body[:at] + struct.pack("<I", count) + body[at + 4:])
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def run_ckpt(tmp_path_factory, tiny_data, tiny_specs):
    """Bytes of a real distillation checkpoint: header with adapters,
    network, adapter and optimizer tensors."""
    train, val = tiny_data
    teacher_spec, student_spec = tiny_specs
    root = tmp_path_factory.mktemp("fuzz")
    sgd, sched = SgdConfig(lr0=0.05), LrSchedule((10,), 0.1)
    tres = train_teacher(teacher_spec, train, val, sgd, sched, epochs=1, seed=1,
                         out_dir=root / "teacher", batch_size=32)
    sres = distill(tres.final_ckpt, student_spec, train, val, DistillConfig(), sgd,
                   sched, EdtParams(1.0, 0.5, 10), epochs=1, seed=2,
                   out_dir=root / "student", batch_size=32)
    return root, sres.final_ckpt.read_bytes()[:-4]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_resealed_corruption_raises_only_checkpoint_error(run_ckpt, data):
    root, body = run_ckpt
    header_end = 10 + struct.unpack_from("<I", body, 6)[0]
    if data.draw(st.booleans(), label="truncate"):
        body = body[:data.draw(st.integers(0, len(body) - 1), label="cut")]
    else:
        at = data.draw(st.one_of(st.integers(0, header_end + 64),
                                 st.integers(0, len(body) - 1)), label="at")
        byte = data.draw(st.integers(0, 255), label="byte")
        body = body[:at] + bytes([byte]) + body[at + 1:]
    path = root / "mutated.ckpt"
    _reseal(path, body)
    try:
        load_model_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)


def test_resume_refuses_a_broken_tensor_table(run_ckpt, tiny_data, tiny_specs):
    """A CRC-valid checkpoint whose adapter0.w has another shape, or that
    lacks a velocity tensor, is refused naming the file and the tensor."""
    root, body = run_ckpt
    train, val = tiny_data
    _reseal(root / "whole.ckpt", body)
    header, tensors = load_checkpoint(root / "whole.ckpt")
    # the student's only tap has 6 channels, the teacher's 12
    assert tensors["adapter0.w"].shape == (12, 6, 1, 1)
    narrow = {**tensors, "adapter0.w": tensors["adapter0.w"][:, :5]}
    no_vel = {k: v for k, v in tensors.items() if k != "vel.s0b0.conv1"}
    for name, table, why in (
            ("narrow-adapter.ckpt", narrow,
             "tensor 'adapter0.w' has shape (12, 5, 1, 1), this run needs (12, 6, 1, 1)"),
            ("no-velocity.ckpt", no_vel, "no 'vel.s0b0.conv1' in header or tensors")):
        path = root / name
        save_checkpoint(path, header, table)
        with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {why}')}$"):
            distill(root / "teacher" / "final.ckpt", tiny_specs[1], train, val,
                    DistillConfig(), SgdConfig(lr0=0.05), LrSchedule((10,), 0.1),
                    EdtParams(1.0, 0.5, 10), epochs=2, seed=2, out_dir=root / "resumed",
                    batch_size=32, resume_from=path)


def test_header_keys_no_record_has_are_refused(run_ckpt, tiny_data, tiny_specs):
    """A header key its section's record has no field for is refused, naming
    the file, the section and the key, and a section no record reads naming
    the file and the section: a header written while NetworkSpec had
    blocks, residual and downsample, DistillConfig plain_kd_fallback and
    kd_t_squared, or [data] random_crop and an [edt] section, or with a
    misspelt [teacher], does not resume as the residual net, the GKD term,
    the crop or the decay of today."""
    root, body = run_ckpt
    train, val = tiny_data
    with pytest.raises(ValueError, match="^unknown key 'nesterov'$"):
        parse_record(SgdConfig, {**format_record(SgdConfig(lr0=0.1)), "nesterov": "true"})
    _reseal(root / "whole.ckpt", body)
    header, tensors = load_checkpoint(root / "whole.ckpt")
    inch, gkd, pad = "input_channels = 3\n", "gkd_enabled = true\n", "pad = 0\n"
    assert header.count(inch) == 1 and gkd + "[teacher]" in header and pad in header
    edt = "[edt]\nalpha = 1\nlam = 0.5\nn_decay = 10\n"
    with_edt = header.replace(gkd, gkd + edt)
    crop = "pad = 0\nrandom_crop = false\n"
    for name, head, why in (
            ("blocks.ckpt", header.replace(inch, "blocks = 1,1\n" + inch),
             "[arch.model] unknown key 'blocks'"),
            ("downsample.ckpt", header.replace(inch, "downsample = 0,1\n" + inch),
             "[arch.model] unknown key 'downsample'"),
            ("plain.ckpt", header.replace(inch, inch + "residual = false\n"),
             "[arch.model] unknown key 'residual'"),
            ("plain-kd.ckpt",
             header.replace(gkd, "gkd_enabled = false\nplain_kd_fallback = true\n"),
             "[distill] unknown key 'plain_kd_fallback'"),
            ("t-squared.ckpt", header.replace(gkd, gkd + "kd_t_squared = true\n"),
             "[distill] unknown key 'kd_t_squared'"),
            ("random-crop.ckpt", header.replace(pad, crop), "[data] unknown key 'random_crop'"),
            ("edt.ckpt", with_edt, "unknown section [edt]"),
            ("stepwise.ckpt", with_edt.replace(edt, edt + "stepwise = true\n"),
             "unknown section [edt]"),
            # as every header written while [data] had random_crop and [edt] existed
            ("older.ckpt", with_edt.replace(pad, crop), "[data] unknown key 'random_crop'"),
            ("teachr.ckpt", header.replace("[teacher]", "[teachr]"), "unknown section [teachr]")):
        path = root / name
        save_checkpoint(path, head, tensors)
        with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {why}')}$"):
            distill(root / "teacher" / "final.ckpt", tiny_specs[1], train, val,
                    DistillConfig(), SgdConfig(lr0=0.05), LrSchedule((10,), 0.1),
                    EdtParams(1.0, 0.5, 10), epochs=2, seed=2, out_dir=root / "resumed",
                    batch_size=32, resume_from=path)


def test_state_values_no_run_writes_are_refused(run_ckpt, tiny_data, tiny_specs):
    """A CRC-valid header whose [state] has a negative epoch or global_step,
    or a NaN best_val_top1, is refused on resume naming the file and the
    section, before the out-dir is made; inf, a fresh run's best, is read back."""
    root, body = run_ckpt
    train, val = tiny_data
    _reseal(root / "whole.ckpt", body)
    header, tensors = load_checkpoint(root / "whole.ckpt")
    state = header[header.index("[state]"):]
    for key, value in (("epoch", "1"), ("global_step", "3")):
        assert f"\n{key} = {value}\n" in state
    assert re.search(r"\nbest_val_top1 = [\d.]+\n", state)
    for key, value, why in (("epoch", -2, "epoch must be >= 0, got -2"),
                            ("global_step", -1, "global_step must be >= 0, got -1"),
                            ("best_val_top1", "nan", "best_val_top1 must not be nan")):
        head = header.replace(state, re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", state))
        path, out = root / f"state-{key}.ckpt", root / f"resumed-{key}"
        save_checkpoint(path, head, tensors)
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(f'{path}: [state] {why}')}$"):
            distill(root / "teacher" / "final.ckpt", tiny_specs[1], train, val,
                    DistillConfig(), SgdConfig(lr0=0.05), LrSchedule((10,), 0.1),
                    EdtParams(1.0, 0.5, 10), epochs=2, seed=2, out_dir=out,
                    batch_size=32, resume_from=path)
        assert not out.exists()
    fresh = format_record(TrainState(seed=2))
    assert fresh["best_val_top1"] == "inf"
    assert parse_record(TrainState, fresh) == TrainState(seed=2)


def test_a_model_load_checks_every_shape_before_it_allocates(run_ckpt):
    """A header that claims a 2000-wide last stage over the file's 12-wide
    tensors is refused naming the first tensor that differs, and nothing of
    the claimed width is drawn: its 2000x2000 conv2 alone is 288 MB as a
    float64 draw."""
    root, _ = run_ckpt
    header, tensors = load_checkpoint(root / "teacher" / "final.ckpt")
    assert "channels = 6,12\n" in header
    path = root / "wide.ckpt"
    save_checkpoint(path, header.replace("channels = 6,12\n", "channels = 6,2000\n"), tensors)
    why = "tensor 's1b0.conv1' has shape (12, 6, 2, 2), this run needs (2000, 6, 2, 2)"
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {why}')}$"):
            load_model_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_header_sections_read_back_to_the_records_written(run_ckpt, tiny_data, tiny_specs):
    """Every header section of a teacher and of a distill checkpoint is the
    record the run wrote, read back by parse_record; the float32 stats
    round-trip bit-exactly, and no value is spelled None."""
    root, _ = run_ckpt
    train, _ = tiny_data
    means, stds = channel_stats(train)
    sgd, sched = SgdConfig(lr0=0.05), LrSchedule((10,), 0.1)
    teacher = load_model_checkpoint(root / "teacher" / "final.ckpt")[0]
    runs = {"teacher": (tiny_specs[0], dict(distill=DistillConfig(alpha=0.0,
                                                                   gkd_enabled=False))),
            "student": (tiny_specs[1], dict(distill=DistillConfig(n_decay=10),
                                            teacher=TeacherId(teacher.checksum())))}
    for run, (spec, extra) in runs.items():
        header, _ = load_checkpoint(root / run / "final.ckpt")
        secs = parse_sections(header, run, CheckpointError)
        assert "None" not in header and "adapters" not in secs
        expected = {"arch.model": spec, "normalize": Normalization(means, stds),
                    "data": DataSettings(32, 0, 0.0, train.checksum()),
                    "optim": sgd, "schedule": sched, **extra}
        assert list(secs) == [s for s in RECORDS if s in {**expected, "state": 0}]
        for sec, record in expected.items():
            assert parse_record(RECORDS[sec], secs[sec]) == record, sec
        norm = parse_record(Normalization, secs["normalize"])
        for got, want in ((norm.means, means), (norm.stds, stds)):
            assert np.array(got, np.float32).tobytes() == want.tobytes()
        assert parse_record(TrainState, secs["state"]).epoch == 1
