"""Checkpoint container: a small self-describing binary format.

Layout (all integers little-endian):

    bytes 0-3   magic "CDKD"
    u16         format version (currently 1)
    u32         header length, then that many bytes of UTF-8 canonical
                key = value text (the run's records: architecture, stats,
                hyperparameters, teacher and run state)
    u32         tensor count
    per tensor  u16 name length, name bytes, u8 rank, u32 extent per axis,
                float32 values (little-endian, row-major)
    u32         CRC-32 of every preceding byte

Tensors round-trip in file order, so save -> load -> save is byte-identical.
A save writes a temp file beside the target and renames it over the target,
so the target holds either its old bytes or the whole new file.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

MAGIC = b"CDKD"
VERSION = 1


class CheckpointError(RuntimeError):
    pass


class BadMagicError(CheckpointError):
    pass


class BadVersionError(CheckpointError):
    pass


class ChecksumError(CheckpointError):
    pass


def save_checkpoint(path, header_text: str, tensors: Dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<H", VERSION)]
    header = header_text.encode("utf-8")
    chunks.append(struct.pack("<I", len(header)))
    chunks.append(header)
    chunks.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f4", order="C")   # keeps 0-d tensors rank 0
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    tmp = Path(f"{path}.tmp")     # a write cut short never leaves a torn file at path
    try:
        tmp.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> Tuple[str, Dict[str, np.ndarray]]:
    """(header text, tensors by name); a malformed file raises CheckpointError
    naming the file and the byte where it goes wrong."""
    blob = Path(path).read_bytes()
    if len(blob) < 14:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    body, (crc_stored,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc_stored:
        raise ChecksumError(f"{path}: CRC mismatch, file is corrupted")
    if body[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {body[:4]!r}")
    (version,) = struct.unpack_from("<H", body, 4)
    if version != VERSION:
        raise BadVersionError(f"{path}: unsupported format version {version}")
    off = 6

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(body):
            raise CheckpointError(f"{path}: truncated at byte {off}: needs {n} more "
                                  f"bytes, has {len(body) - off}")
        off += n
        return body[off - n:off]

    def text(n: int) -> str:
        raw = take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: bad UTF-8 at byte {off - n}: {exc}") from None

    (header_len,) = struct.unpack("<I", take(4))
    header = text(header_len)
    (count,) = struct.unpack("<I", take(4))
    tensors: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len)
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        size = math.prod(shape)
        arr = np.frombuffer(take(4 * size), dtype="<f4").reshape(shape)
        tensors[name] = arr.astype(np.float32)
    if off != len(body):
        raise CheckpointError(f"{path}: {len(body) - off} trailing bytes after tensor table")
    return header, tensors
