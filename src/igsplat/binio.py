"""Little-endian binary headers, checked JSON reads and atomic artifact writes.

Every on-disk artifact starts with a 4-byte magic, a u32 format version, and
format-specific u32 header fields, followed by packed little-endian payload
arrays. Writers go through ``write_atomic`` (temp file + rename) so an
interrupted run never leaves a torn file behind.
"""
from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (same-directory temp + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic_text(path: str, text: str) -> None:
    write_atomic(path, text.encode("utf-8"))


def pack_u32(*values: int) -> bytes:
    return struct.pack("<" + "I" * len(values), *values)


def pack_f32(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f4").tobytes()


class Reader:
    """Cursor over a binary payload with checked reads."""

    def __init__(self, data: bytes, path: str = "<bytes>"):
        self._data = data
        self._pos = 0
        self._path = path

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise FormatError(f"{self._path}: bad magic {got!r}, expected {magic!r}")

    def expect_version(self, version: int) -> None:
        got = self.u32()
        if got != version:
            raise FormatError(f"{self._path}: unsupported version {got}, expected {version}")

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise FormatError(f"{self._path}: truncated file (needed {n} more bytes)")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f32_array(self, count: int, shape: tuple[int, ...] | None = None) -> np.ndarray:
        raw = self.take(4 * count)
        arr = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        return arr.reshape(shape) if shape is not None else arr

    def u32_array(self, count: int) -> np.ndarray:
        raw = self.take(4 * count)
        return np.frombuffer(raw, dtype="<u4").copy()

    def done(self) -> None:
        if self._pos != len(self._data):
            raise FormatError(f"{self._path}: {len(self._data) - self._pos} trailing bytes")


def read_file(path: str) -> Reader:
    with open(path, "rb") as fh:
        return Reader(fh.read(), path)


def read_json(path: str, expected: type = dict, keys: tuple[str, ...] = ()):
    """The JSON document in ``path``, of type ``expected`` (an object by
    default, holding ``keys``); FormatError otherwise."""
    with open(path, "rb") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, expected) or any(key not in doc for key in keys):
        raise FormatError(f"{path}: expected a JSON {expected.__name__}"
                          + (f" with the keys {', '.join(keys)}" if keys else ""))
    return doc
