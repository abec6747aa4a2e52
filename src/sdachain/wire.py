"""Canonical binary encoding used for every on-chain digest.

All multi-byte integers are big-endian. Floats are IEEE-754 binary64
big-endian bit patterns, so identical values always produce identical
bytes. Strings are UTF-8 with a u32 length prefix. Digests are raw
32-byte SHA-256 values with no prefix. The full layout of each record
type lives in docs/wire.md.
"""
from __future__ import annotations

import hashlib
import struct

from .errors import SdaError

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN
CHAIN_MAGIC = b"SDACHAIN"


class WireError(SdaError):
    """Malformed or truncated canonical bytes."""


class Writer:
    """Append-only canonical byte builder."""

    def __init__(self):
        self._parts = []

    def u8(self, v: int) -> "Writer":
        if not 0 <= v <= 0xFF:
            raise WireError(f"u8 out of range: {v}")
        self._parts.append(struct.pack(">B", v))
        return self

    def u32(self, v: int) -> "Writer":
        if not 0 <= v <= 0xFFFFFFFF:
            raise WireError(f"u32 out of range: {v}")
        self._parts.append(struct.pack(">I", v))
        return self

    def u64(self, v: int) -> "Writer":
        if not 0 <= v <= 0xFFFFFFFFFFFFFFFF:
            raise WireError(f"u64 out of range: {v}")
        self._parts.append(struct.pack(">Q", v))
        return self

    def f64(self, v: float) -> "Writer":
        self._parts.append(struct.pack(">d", v))
        return self

    def string(self, s: str) -> "Writer":
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self._parts.append(raw)
        return self

    def blob(self, raw: bytes) -> "Writer":
        self.u32(len(raw))
        self._parts.append(raw)
        return self

    def digest(self, d: bytes) -> "Writer":
        if len(d) != DIGEST_LEN:
            raise WireError(f"digest must be {DIGEST_LEN} bytes, got {len(d)}")
        self._parts.append(d)
        return self

    def raw(self, b: bytes) -> "Writer":
        self._parts.append(b)
        return self

    def bytes(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Strict canonical byte consumer; every read checks bounds."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise WireError(f"truncated record: wanted {n} bytes at offset "
                            f"{self._pos}, have {len(self._data) - self._pos}")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return struct.unpack(">B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def string(self) -> str:
        n = self.u32()
        try:
            return self._take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise WireError(f"invalid UTF-8 in string field: {e}") from e

    def blob(self) -> bytes:
        return self._take(self.u32())

    def digest(self) -> bytes:
        return self._take(DIGEST_LEN)

    def raw(self, n: int) -> bytes:
        """Exactly n unframed bytes (mirror of Writer.raw)."""
        return self._take(n)

    def done(self) -> None:
        if self._pos != len(self._data):
            raise WireError(f"{len(self._data) - self._pos} trailing bytes "
                            "after record")

def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def write_chain_log(path: str, block_records: list) -> None:
    """Persist length-prefixed canonical block records, magic first."""
    with open(path, "wb") as f:
        f.write(CHAIN_MAGIC)
        for rec in block_records:
            f.write(struct.pack(">I", len(rec)))
            f.write(rec)


def read_chain_log(path: str) -> list:
    """Read back the raw block records; digests are checked by verify_chain."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:len(CHAIN_MAGIC)] != CHAIN_MAGIC:
        raise WireError("bad chain log magic")
    out = []
    pos = len(CHAIN_MAGIC)
    while pos < len(data):
        if pos + 4 > len(data):
            raise WireError("truncated length prefix in chain log")
        (n,) = struct.unpack(">I", data[pos:pos + 4])
        pos += 4
        if pos + n > len(data):
            raise WireError("truncated block record in chain log")
        out.append(data[pos:pos + n])
        pos += n
    return out
