"""On-disk checkpoint container: header, CRC, binary sections, atomic
write-rename.

A checkpoint file is::

    MAGIC (8 bytes) | container version (u32 LE) | payload length (u64 LE)
    | CRC32 of payload (u32 LE) | payload

and its payload is::

    head length (u64 LE) | head (canonical JSON, UTF-8) | pad to 8 bytes
    | section 0 | section 1 | ...

    section = data length (u64 LE) | raw little-endian array bytes
              | pad to 8 bytes

The head is the snapshot document produced by
:mod:`repro.checkpoint.schema` serialized as canonical JSON
(``sort_keys=True``, compact separators), except that every numpy array
in the document is replaced by a reference object
``{"$section": index, "dtype": "<i8", "shape": [rows, ...]}`` naming
the section that holds its bytes.  The per-peer columns of the array
engines travel this way, so a 10⁶-peer store is written and read as
memory copies rather than as millions of JSON numbers.  Allowed dtypes
are :data:`SECTION_DTYPES`.  Sections are numbered in the order the
canonical encoder meets the arrays, so one document always gives the
same bytes; the golden-format tests rely on that.  All order-sensitive
state lives in JSON *arrays* or in sections, never in object key order,
so key sorting is loss-free.

Writes are crash-safe: the sections are streamed from the arrays'
buffers into a same-directory temporary file under a running CRC (no
joined payload is built, which would double peak memory), the header is
filled in, the file is fsynced and moved into place with
:func:`os.replace` (atomic on POSIX).  A reader therefore sees either
the previous complete checkpoint or the new complete checkpoint, never
a torn file — the invariant that lets a SIGKILLed sweep resume from its
latest snapshot no matter when the kill landed.

Loads are paranoid: magic, version, length and CRC are validated, then
the head length, every section length, every reference (allowed dtype,
shape matching the section's length, each section referenced exactly
once) before any array is handed out; every failure raises
:class:`~repro.errors.CheckpointError` with a reason — silent
acceptance of a truncated or bit-rotted snapshot would quietly fork the
replayed trajectory, which is exactly what this subsystem exists to
prevent.  Arrays in a loaded document are read-only-by-convention views
of the file's buffer; a restore copies what it keeps, so the buffer is
freed with the document.

:func:`json_view` turns a document into plain JSON values (arrays as
lists, NaN as ``null``) for readable golden diffs.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path
from typing import Iterator, List, Tuple, Union

import numpy as np

from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_MAGIC",
    "CONTAINER_VERSION",
    "SECTION_DTYPES",
    "dumps_payload",
    "json_view",
    "loads_payload",
    "write_checkpoint",
    "read_checkpoint",
]

#: File magic; the trailing byte leaves room for a container redesign.
CHECKPOINT_MAGIC = b"RBTCKPT\x01"

#: Container-format version (independent of the snapshot schema version
#: inside the payload; see ``repro.checkpoint.schema.SCHEMA_VERSION``).
CONTAINER_VERSION = 2

#: The array dtypes a section may hold (little-endian, as numpy spells
#: them).
SECTION_DTYPES = ("<i8", "<u8", "<f8", "|b1")

_HEADER = struct.Struct("<8sIQI")
_U64 = struct.Struct("<Q")
_REF = "$section"
_REF_KEYS = frozenset((_REF, "dtype", "shape"))
_PAD = bytes(8)


def _padding(nbytes: int) -> int:
    return -nbytes % 8


def _encode(document: dict) -> Tuple[bytes, List[np.ndarray]]:
    """Canonical JSON head of ``document`` plus the arrays it references,
    in section order."""
    arrays: List[np.ndarray] = []

    def reference(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON "
                f"serializable"
            )
        little = value.dtype.newbyteorder("<")
        if little.str not in SECTION_DTYPES:
            raise CheckpointError(
                f"cannot store a {value.dtype} array in a checkpoint; "
                f"sections hold {', '.join(SECTION_DTYPES)}"
            )
        arrays.append(np.ascontiguousarray(value, dtype=little))
        return {
            _REF: len(arrays) - 1,
            "dtype": little.str,
            "shape": list(value.shape),
        }

    head = json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False,
        default=reference,
    ).encode("utf-8")
    return head, arrays


def _chunks(head: bytes, arrays: List[np.ndarray]) -> Iterator[object]:
    """The payload as a sequence of buffers (no joined copy)."""
    yield _U64.pack(len(head))
    yield head
    yield _PAD[: _padding(len(head))]
    for array in arrays:
        yield _U64.pack(array.nbytes)
        yield array.reshape(-1).view(np.uint8)
        yield _PAD[: _padding(array.nbytes)]


def dumps_payload(document: dict) -> bytes:
    """The container payload for a snapshot document, as one bytes."""
    return b"".join(_chunks(*_encode(document)))


def _sections(view: memoryview, start: int) -> List[Tuple[int, int]]:
    """``(offset, length)`` of every section from ``start`` to the end."""
    spans = []
    end = len(view)
    offset = start + _padding(start)
    while offset < end:
        if end - offset < _U64.size:
            raise CheckpointError(
                f"section {len(spans)} length prefix is truncated"
            )
        (length,) = _U64.unpack_from(view, offset)
        offset += _U64.size
        if length > end - offset:
            raise CheckpointError(
                f"section {len(spans)} declares {length} bytes, only "
                f"{end - offset} remain"
            )
        spans.append((offset, length))
        offset += length + _padding(length)
    if offset != end:
        raise CheckpointError("payload ends inside section padding")
    return spans


def loads_payload(payload) -> dict:
    """Inverse of :func:`dumps_payload`: validate ``payload`` (any
    bytes-like object) and return its document, with each array a view
    of ``payload``.

    Raises:
        CheckpointError: truncated or overlong head or section, head
            that is not a JSON object, malformed reference, dtype
            outside :data:`SECTION_DTYPES`, shape that disagrees with
            the section length, or a section referenced twice or never.
    """
    view = memoryview(payload).cast("B")
    if len(view) < _U64.size:
        raise CheckpointError("payload is too short to hold a head length")
    (head_length,) = _U64.unpack_from(view, 0)
    if head_length > len(view) - _U64.size:
        raise CheckpointError(
            f"head length {head_length} runs past the payload end"
        )
    head_end = _U64.size + head_length
    spans = _sections(view, head_end)
    used = [False] * len(spans)

    def resolve(obj: dict):
        if _REF not in obj:
            return obj
        if set(obj) != _REF_KEYS:
            raise CheckpointError(f"malformed section reference {obj!r}")
        index, dtype, shape = obj[_REF], obj["dtype"], obj["shape"]
        if (
            type(index) is not int
            or not 0 <= index < len(spans)
            or used[index]
        ):
            raise CheckpointError(
                f"section reference {index!r} is out of range or "
                f"repeated ({len(spans)} sections)"
            )
        used[index] = True
        if dtype not in SECTION_DTYPES:
            raise CheckpointError(
                f"section {index} has dtype {dtype!r}; allowed are "
                f"{', '.join(SECTION_DTYPES)}"
            )
        if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise CheckpointError(f"section {index} has bad shape {shape!r}")
        offset, length = spans[index]
        itemsize = np.dtype(dtype).itemsize
        if math.prod(shape) * itemsize != length:
            raise CheckpointError(
                f"section {index} holds {length} bytes, shape {shape} of "
                f"{dtype} needs {math.prod(shape) * itemsize}"
            )
        array = np.frombuffer(
            view, dtype=dtype, count=length // itemsize, offset=offset
        )
        if dtype == "|b1" and length and array.view(np.uint8).max() > 1:
            raise CheckpointError(f"section {index} holds non-boolean bytes")
        return array.reshape(shape)

    try:
        document = json.loads(
            bytes(view[_U64.size:head_end]).decode("utf-8"),
            object_hook=resolve,
        )
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"head is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise CheckpointError(
            f"head must be a JSON object, got {type(document).__name__}"
        )
    if not all(used):
        raise CheckpointError(
            f"section {used.index(False)} is never referenced"
        )
    return document


def json_view(document):
    """``document`` as plain JSON values: arrays become (nested) lists
    and NaN becomes ``None``.  For readable golden files and diffs; the
    view is not a loadable document."""
    if isinstance(document, np.ndarray):
        if document.dtype.kind == "f":
            return np.where(
                np.isnan(document), None, document.astype(object)
            ).tolist()
        return document.tolist()
    if isinstance(document, dict):
        return {key: json_view(value) for key, value in document.items()}
    if isinstance(document, list):
        return [json_view(value) for value in document]
    return document


def write_checkpoint(document: dict, path: Union[str, Path]) -> int:
    """Atomically write ``document`` to ``path``; returns bytes written.

    The temporary file lives in the target directory (same filesystem,
    so the final :func:`os.replace` is atomic) and is suffixed with the
    writer's PID so concurrent writers of *different* checkpoints never
    collide.
    """
    path = Path(path)
    head, arrays = _encode(document)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(bytes(_HEADER.size))
            crc = length = 0
            for chunk in _chunks(head, arrays):
                crc = zlib.crc32(chunk, crc)
                length += handle.write(chunk)
            handle.seek(0)
            handle.write(_HEADER.pack(
                CHECKPOINT_MAGIC, CONTAINER_VERSION, length,
                crc & 0xFFFFFFFF,
            ))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    finally:
        if tmp_path.exists():  # a failed write leaves no debris behind
            tmp_path.unlink()
    return _HEADER.size + length


def read_checkpoint(path: Union[str, Path]) -> dict:
    """Load and validate a checkpoint file.

    Raises:
        CheckpointError: missing file, bad magic, unsupported container
            version, truncation, trailing garbage, CRC mismatch, or a
            payload :func:`loads_payload` rejects.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            raw = bytearray(os.fstat(handle.fileno()).st_size)
            del raw[handle.readinto(raw):]
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file {path} does not exist")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")

    if len(raw) < _HEADER.size:
        raise CheckpointError(
            f"checkpoint {path} is truncated: {len(raw)} bytes is smaller "
            f"than the {_HEADER.size}-byte header"
        )
    magic, version, length, crc = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"checkpoint {path} has bad magic {magic!r} (not a repro-bt "
            f"checkpoint?)"
        )
    if version != CONTAINER_VERSION:
        raise CheckpointError(
            f"checkpoint {path} uses container version {version}; this "
            f"build reads version {CONTAINER_VERSION}"
        )
    payload = memoryview(raw)[_HEADER.size:]
    if len(payload) != length:
        raise CheckpointError(
            f"checkpoint {path} is corrupt: header promises {length} "
            f"payload bytes, file carries {len(payload)}"
        )
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if actual_crc != crc:
        raise CheckpointError(
            f"checkpoint {path} failed its CRC check "
            f"(stored {crc:#010x}, computed {actual_crc:#010x})"
        )
    try:
        return loads_payload(payload)
    except CheckpointError as exc:
        raise CheckpointError(
            f"checkpoint {path} is corrupt despite a passing CRC: {exc}"
        ) from None
