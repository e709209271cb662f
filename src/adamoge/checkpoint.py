"""Versioned binary checkpoints: bit-exact parameter round-trips.

Layout (all integers little-endian):

    8 bytes   magic "ADAMOGE1"
    u32       fingerprint length, then that many UTF-8 bytes
    u32       entry count
    per entry:
        u32   name length, then UTF-8 name
        u32   rank, then rank * u64 dims
        dims-product * f8 little-endian values (row-major)

Checkpoints, and every file the CLI writes, go through :func:`atomic_open`,
so a crash mid-write never leaves a half-written artifact.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .autodiff import ParameterStore

MAGIC = b"ADAMOGE1"


class CheckpointError(ValueError):
    pass


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Write ``path`` through a temporary file beside it that replaces ``path``
    only when the block completes.  If the block raises, the temporary file
    is removed and ``path`` keeps its previous content (or stays absent).
    Text mode is UTF-8 without newline translation."""
    kwargs = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save(path: str, store: ParameterStore, fingerprint: str) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fp = fingerprint.encode("utf-8")
        fh.write(struct.pack("<I", len(fp)))
        fh.write(fp)
        params = list(store)
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", p.value.ndim))
            fh.write(struct.pack(f"<{p.value.ndim}Q", *p.value.shape))
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load(path: str) -> tuple[str, dict[str, np.ndarray]]:
    """Returns (fingerprint, ordered name -> float64 array)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not an adamoge checkpoint")
    view = memoryview(blob)
    off = len(MAGIC)

    def take(size):
        nonlocal off
        if size > len(blob) - off:
            raise CheckpointError(f"{path}: truncated checkpoint")
        off += size
        return view[off - size : off]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def text(what):
        (length,) = unpack("<I")
        try:
            return str(take(length), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: {what} is not valid UTF-8") from exc

    fingerprint = text("fingerprint")
    (count,) = unpack("<I")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = text("parameter name")
        (rank,) = unpack("<I")
        shape = unpack(f"<{rank}Q")
        raw = take(8 * math.prod(shape))
        # reshape rejects a rank above numpy's limit, and an oversized
        # dimension in an otherwise empty array
        try:
            entries[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:
            raise CheckpointError(f"{path}: entry {name!r} has unusable shape") from exc
    if off != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after last entry")
    return fingerprint, entries


def load_into(path: str, store: ParameterStore, expected_fingerprint: str | None,
              allow_mismatch: bool = False) -> str:
    """Load a checkpoint into an existing store, verifying the fingerprint."""
    fingerprint, entries = load(path)
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        if not allow_mismatch:
            raise CheckpointError(
                f"checkpoint fingerprint {fingerprint[:12]}... does not match the "
                f"configuration ({expected_fingerprint[:12]}...); pass "
                f"--allow-fingerprint-mismatch to override"
            )
    missing = [n for n in store.names() if n not in entries]
    extra = [n for n in entries if n not in store]
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match the model: missing {missing}, unexpected {extra}"
        )
    reshaped = [n for n in store.names() if entries[n].shape != store[n].value.shape]
    if reshaped:
        raise CheckpointError(f"checkpoint does not match the model: shapes differ for {reshaped}")
    store.load_state_dict(entries)
    return fingerprint
