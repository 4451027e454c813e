import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdkd.checkpoint import (BadMagicError, BadVersionError, CheckpointError,
                             ChecksumError, load_checkpoint, save_checkpoint)
from cdkd.losses import DistillConfig
from cdkd.optim import EdtParams, LrSchedule, SgdConfig
from cdkd.train import distill, load_model_checkpoint, train_teacher


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
