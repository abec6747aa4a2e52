"""Canonical binary encoding used for every on-chain digest.

All multi-byte integers are big-endian. Floats are IEEE-754 binary64
big-endian bit patterns, so identical values always produce identical
bytes. Strings are UTF-8 with a u32 length prefix. Digests are raw
32-byte SHA-256 values with no prefix.

Each layout is declared once, as a ``Codec`` built from the combinators
below, and that one declaration both writes and reads it; docs/wire.md
names each one. Decoding is strict: bytes that do not re-encode to
themselves raise ``WireError``, so every value has one encoding.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import struct
from fractions import Fraction
from functools import partial

from .astro import Epoch
from .errors import SdaError

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN
CHAIN_MAGIC = b"SDACHAIN"

_U32 = struct.Struct(">I")


class WireError(SdaError):
    """Malformed or truncated canonical bytes."""


class Reader:
    """Strict canonical byte consumer; every read checks bounds."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise WireError(f"truncated record: wanted {n} bytes at offset "
                            f"{self._pos}, have {len(self._data) - self._pos}")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def unpack(self, st: struct.Struct) -> tuple:
        return st.unpack(self.take(st.size))

    def blob(self) -> bytes:
        (n,) = _U32.unpack(self.take(4))
        return self.take(n)

    def string(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as e:
            raise WireError(f"invalid UTF-8 in string field: {e}") from e

    def at_end(self) -> bool:
        return self._pos == len(self._data)

    def done(self) -> None:
        if not self.at_end():
            raise WireError(f"{len(self._data) - self._pos} trailing bytes "
                            "after record")


class Codec:
    """One wire layout: ``encode(v)`` returns the bytes of v, ``read(r)``
    consumes them from a Reader and returns the value.

    The combinators compose ``put(parts, v)``, which appends to a list of
    byte strings and lets ``struct.error`` (a value out of range) and
    ``AttributeError`` or ``TypeError`` (a value of the wrong type) escape
    for ``encode`` to turn into ``WireError``. A fixed-width codec also has a struct format
    ``fmt``, and may convert the value into its struct slots (``to(v)``, a
    tuple) and back (``frm(*slots)``).
    """

    def __init__(self, put, read, fmt=None, to=None, frm=None):
        self.put, self.read = put, read
        self.fmt, self.to, self.frm = fmt, to, frm

    def encode(self, v) -> bytes:
        parts = []
        try:
            self.put(parts, v)
        except struct.error as e:
            raise WireError(f"value out of range: {e}") from None
        except (AttributeError, TypeError) as e:
            raise WireError(f"value of the wrong type: {e}") from None
        return b"".join(parts)

    def decode(self, raw: bytes):
        """The value of exactly these bytes, which must be its encoding:
        trailing bytes, an unsorted set, a bool byte of 2 and the like
        raise WireError."""
        r = Reader(raw)
        v = self.read(r)
        r.done()
        if self.encode(v) != raw:
            raise WireError("bytes are not the canonical encoding")
        return v


def fixed(fmt: str, to=None, frm=None) -> Codec:
    """A fixed-width value in struct format ``fmt``, big-endian."""
    st = struct.Struct(">" + fmt)

    def put(parts, v):
        parts.append(st.pack(v) if to is None else st.pack(*to(v)))

    def read(r):
        slots = r.unpack(st)
        return slots[0] if frm is None else frm(*slots)

    return Codec(put, read, fmt, to, frm)


def _digest(d: bytes) -> tuple:
    if len(d) != DIGEST_LEN:
        raise WireError(f"digest must be {DIGEST_LEN} bytes, got {len(d)}")
    return (d,)


def _fraction(num: int, den: int) -> Fraction:
    if den == 0:
        raise WireError(f"fraction {num}/0 has a zero denominator")
    return Fraction(num, den)


def _flag(b) -> tuple:
    # a truthy non-bool would encode as 1 and decode as True, an unequal value
    if b is True:
        return (1,)
    if b is False:
        return (0,)
    raise WireError(f"flag must be True or False, got {b!r}")


def _put_blob(parts, raw: bytes):
    parts.append(_U32.pack(len(raw)))
    parts.append(raw)


U8 = fixed("B")
U32 = fixed("I")
U64 = fixed("Q")
F64 = fixed("d")
DIGEST = fixed(f"{DIGEST_LEN}s", to=_digest)
BOOL = fixed("B", to=_flag, frm=bool)
EPOCH = fixed("d", to=lambda e: (e.t,), frm=Epoch)
FRACTION = fixed("QQ", to=lambda f: (f.numerator, f.denominator),
                 frm=_fraction)
BLOB = Codec(_put_blob, Reader.blob)
STRING = Codec(lambda parts, s: _put_blob(parts, s.encode("utf-8")),
               Reader.string)


def seq(item: Codec, make=tuple, count: Codec = U32) -> Codec:
    """A count, then each item in order; read back through make."""
    def put(parts, v):
        count.put(parts, len(v))
        for x in v:
            item.put(parts, x)

    def read(r):
        return make([item.read(r) for _ in range(count.read(r))])

    return Codec(put, read)


def sorted_set(item: Codec, count: Codec = U32) -> Codec:
    """A set as the ``seq`` of its items in increasing order."""
    items = seq(item, set, count)
    return Codec(lambda parts, v: items.put(parts, sorted(v)), items.read)


def sorted_map(value: Codec, key: Codec = None, key_of=None) -> Codec:
    """A dict as a ``u32`` count, then its entries in increasing key order:
    with ``key``, each entry is its key and its value; with ``key_of``, the
    value alone, and reading takes the key from it."""
    def put(parts, m):
        parts.append(_U32.pack(len(m)))
        for k in sorted(m):
            if key is not None:
                key.put(parts, k)
            value.put(parts, m[k])

    def read(r):
        out = {}
        for _ in range(r.unpack(_U32)[0]):
            k = key.read(r) if key is not None else None
            v = value.read(r)
            out[k if key is not None else key_of(v)] = v
        return out

    return Codec(put, read)


def wrapped(inner: Codec) -> Codec:
    """The value's bytes as a ``blob``, which must hold exactly one value."""
    def put(parts, v):
        sub = []
        inner.put(sub, v)
        _put_blob(parts, b"".join(sub))

    def read(r):
        sub = Reader(r.blob())
        v = inner.read(sub)
        sub.done()
        return v

    return Codec(put, read)


def union(tag_of, *variants: Codec) -> Codec:
    """``u8`` tag, then that variant's layout; ``tag_of(v)`` picks the tag."""
    tags = [bytes([tag]) for tag in range(len(variants))]

    def put(parts, v):
        tag = tag_of(v)
        parts.append(tags[tag])
        variants[tag].put(parts, v)

    def read(r):
        tag = r.take(1)[0]
        if tag >= len(variants):
            raise WireError(f"unknown union tag {tag}")
        return variants[tag].read(r)

    return Codec(put, read)


def record(make, *fields) -> Codec:
    """Fields in wire order, each an ``(attribute, codec)`` pair. Writing
    takes each attribute of the value; reading passes them to ``make`` as
    keywords.

    The layout is compiled once, on first use, into one Python function
    that writes it and one that reads it: each run of consecutive
    fixed-width fields is packed by one precompiled struct, strings are
    appended directly, and any other field calls its codec. Compiling on
    first use keeps layouts a program never touches out of its import.

    When ``make`` is a frozen dataclass, or a ``functools.partial`` of
    one, each instance is encoded once per layout: the first write stores
    its bytes on the instance, under a name private to this layout, and
    every later write appends them. Reading stores nothing, so
    ``Codec.decode`` still re-encodes what it read.
    """
    codec = Codec(None, None)

    def first(method: str):
        def call(*args):
            codec.put, codec.read = _compile(make, fields)
            return getattr(codec, method)(*args)
        return call

    codec.put, codec.read = first("put"), first("read")
    return codec


def _compile(make, fields) -> tuple:
    env = {"make": make, "u32": _U32.pack}
    put = ["def put(parts, v):", "    append = parts.append"]
    read = ["def read(r):"]
    args = []       # make's keyword arguments
    run = []        # (index, name, codec) of the pending fixed-width run

    def end_run():
        if not run:
            return
        st = f"s{run[0][0]}"
        env[st] = struct.Struct(">" + "".join(c.fmt for _, _, c in run))
        packed, slots = [], []
        for i, name, c in run:
            one = struct.Struct(">" + c.fmt)
            xs = [f"x{i}_{k}" for k in range(len(one.unpack(bytes(one.size))))]
            slots += xs
            env[f"to{i}"], env[f"frm{i}"] = c.to, c.frm
            packed.append(f"v.{name}" if c.to is None else f"*to{i}(v.{name})")
            args.append(f"{name}={xs[0]}" if c.frm is None
                        else f"{name}=frm{i}({', '.join(xs)})")
        put.append(f"    append({st}.pack({', '.join(packed)}))")
        read.append(f"    {', '.join(slots)}, = r.unpack({st})")
        run.clear()

    for i, (name, codec) in enumerate(fields):
        if codec.fmt is not None:
            run.append((i, name, codec))
            continue
        end_run()
        if codec is STRING:
            put += [f"    raw = v.{name}.encode('utf-8')",
                    "    append(u32(len(raw)))", "    append(raw)"]
            read.append(f"    x{i} = r.string()")
        else:
            env[f"c{i}"] = codec
            put.append(f"    c{i}.put(parts, v.{name})")
            read.append(f"    x{i} = c{i}.read(r)")
        args.append(f"{name}=x{i}")
    end_run()
    read.append(f"    return make({', '.join(args)})")
    exec("\n".join(put + read), env)
    cls = make.func if isinstance(make, partial) else make
    if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen:
        return _memoized(cls, env["put"]), env["read"]
    return env["put"], env["read"]


_memo_names = itertools.count()


def _memoized(cls, put):
    """put, writing each instance of the frozen cls from the bytes kept
    on it; instances of any other type are written as put writes them."""
    name = f"_wire_bytes_{next(_memo_names)}"

    def memo_put(parts, v):
        if type(v) is not cls:
            return put(parts, v)
        d = v.__dict__
        raw = d.get(name)
        if raw is None:
            raw = d[name] = _fields_bytes(put, v)
        parts.append(raw)

    return memo_put


def _fields_bytes(put, v) -> bytes:
    """The bytes put writes for v: a memo miss."""
    parts = []
    put(parts, v)
    return b"".join(parts)


_NOTHING = record(type(None))    # no bytes; reads back None


def optional(inner: Codec) -> Codec:
    """``u8`` 0 for None, else ``u8`` 1 and the value."""
    return union(lambda v: 0 if v is None else 1, _NOTHING, inner)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def write_chain_log(path: str, block_records: list) -> None:
    """Persist the block records, magic first, each as a ``blob``."""
    data = CHAIN_MAGIC + b"".join(map(BLOB.encode, block_records))
    with open(path, "wb") as f:
        f.write(data)


def read_chain_log(path: str):
    """Yield the raw block records in order; digests are checked by
    verify_chain. Bad magic, or a record cut short, raises WireError when
    the reader reaches it, after the records before it."""
    with open(path, "rb") as f:
        r = Reader(f.read())
    if r.take(len(CHAIN_MAGIC)) != CHAIN_MAGIC:
        raise WireError("bad chain log magic")
    while not r.at_end():
        yield r.blob()
