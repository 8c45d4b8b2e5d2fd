"""Hostile inputs to the checkpoint reader: every one is a CheckpointError.

The fixture is a small soa checkpoint, whose store block and trading
pairs are binary sections.  Three families of damage:

* bit flips anywhere in the file, and truncation at every section
  boundary, as a disk or an interrupted copy would cause them;
* truncation at those boundaries *re-sealed* with a valid length and
  CRC, so the section parser itself must notice;
* crafted payloads with a valid CRC — a head length past the end, an
  overflowing section length, a dtype outside the allow-list, a shape
  that disagrees with its section, sections referenced twice or never,
  and store blocks whose neighbor cells or leecher degrees are out of
  range.

Each must raise :class:`~repro.errors.CheckpointError` from
``read_checkpoint`` or from the restore, and nothing else.  The
Hypothesis examples are derandomized, so a failure replays on every
run.
"""

import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckpt_helpers import replay_fault_plan
from repro.checkpoint.format import (
    CHECKPOINT_MAGIC,
    CONTAINER_VERSION,
    _HEADER,
    dumps_payload,
    json_view,
    loads_payload,
    read_checkpoint,
    write_checkpoint,
)
from repro.checkpoint.schema import restore_swarm
from repro.errors import CheckpointError
from test_soa_checkpoint import soa_replay_config, soa_snapshot_at_round

U64 = struct.Struct("<Q")
FUZZ = dict(max_examples=200, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def document():
    return soa_snapshot_at_round(
        soa_replay_config(), 8, faults=replay_fault_plan()
    )


@pytest.fixture(scope="module")
def payload(document):
    return dumps_payload(document)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def split(payload: bytes):
    """(head object, raw section bytes) without resolving references."""
    (head_length,) = U64.unpack_from(payload, 0)
    head = json.loads(payload[8: 8 + head_length])
    sections = []
    offset = 8 + head_length
    offset += -offset % 8
    while offset < len(payload):
        (length,) = U64.unpack_from(payload, offset)
        sections.append(payload[offset + 8: offset + 8 + length])
        offset += 8 + length + (-length % 8)
    return head, sections


def join(head, sections) -> bytes:
    """The payload of ``head`` (a JSON object) and raw ``sections``."""
    text = json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
    parts = [U64.pack(len(text)), text, bytes(-len(text) % 8)]
    for data in sections:
        parts += [U64.pack(len(data)), data, bytes(-len(data) % 8)]
    return b"".join(parts)


def boundaries(payload: bytes):
    """Offsets where the head, each length prefix and each section's
    data begin and end."""
    (head_length,) = U64.unpack_from(payload, 0)
    marks = {0, 8, 8 + head_length}
    offset = 8 + head_length
    offset += -offset % 8
    while offset < len(payload):
        (length,) = U64.unpack_from(payload, offset)
        marks.update((offset, offset + 8, offset + 8 + length))
        offset += 8 + length + (-length % 8)
    return sorted(marks - {len(payload)})


def seal(payload: bytes, path) -> None:
    """A container with a valid header, length and CRC around ``payload``."""
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CONTAINER_VERSION, len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    path.write_bytes(header + payload)


def refs(head):
    """Every section reference object in ``head``, in encoding order."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            if "$section" in node:
                found.append(node)
            for key in sorted(node):
                walk(node[key])
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(head)
    return found


def resume(path):
    return restore_swarm(read_checkpoint(path))


# ----------------------------------------------------------------------
# The fixture is what it claims to be
# ----------------------------------------------------------------------
def test_store_block_travels_as_sections(document, payload):
    head, sections = split(payload)
    store = head["store"]
    for name in ("bits", "joined_at", "slots", "free", "nbr_deg", "nbr"):
        assert "$section" in store[name], name
    assert "$section" in head["swarm"]["pairs"]
    assert len(refs(head)) == len(sections)
    loaded = loads_payload(payload)
    assert dumps_payload(loaded) == payload
    assert json_view(loaded) == json_view(document)


def test_sealed_fixture_resumes(payload, workdir):
    path = workdir / "clean.ckpt"
    seal(payload, path)
    assert resume(path).resumed_from_round == 8


# ----------------------------------------------------------------------
# Disk damage
# ----------------------------------------------------------------------
@settings(**FUZZ)
@given(data=st.data())
def test_any_bit_flip_is_rejected(payload, workdir, data):
    path = workdir / "flip.ckpt"
    seal(payload, path)
    raw = bytearray(path.read_bytes())
    position = data.draw(st.integers(0, len(raw) - 1))
    raw[position] ^= 1 << data.draw(st.integers(0, 7))
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_truncation_at_every_section_boundary_is_rejected(payload, workdir):
    path = workdir / "cut.ckpt"
    seal(payload, path)
    whole = path.read_bytes()
    marks = boundaries(payload)
    # A non-empty section adds a length prefix and a data start; an empty
    # one (a completion column before any completion) adds its prefix
    # only, since its data ends where it starts.
    sections = split(payload)[1]
    assert len(marks) > 2 * sum(1 for data in sections if data)
    for mark in marks:
        path.write_bytes(whole[: _HEADER.size + mark])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)
        # Re-sealed: header and CRC agree, the section parser must not.
        seal(payload[:mark], path)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)


# ----------------------------------------------------------------------
# Crafted payloads with a valid CRC
# ----------------------------------------------------------------------
def _craft(payload, damage):
    head, sections = split(payload)
    if damage == "head length past the end":
        return U64.pack(len(payload)) + payload[8:]
    if damage == "section length overflow":
        data = bytearray(payload)
        offset = 8 + len(json.dumps(head, separators=(",", ":")))
        offset += -offset % 8  # the first section's length prefix
        data[offset: offset + 8] = U64.pack(2**64 - 8)
        return bytes(data)
    ref = refs(head)[0]
    if damage in ("dtype <i4", "dtype >i8", "dtype |u1", "dtype O"):
        ref["dtype"] = damage.split()[1]
    elif damage == "shape one row long":
        ref["shape"][0] += 1
    elif damage == "negative shape":
        ref["shape"] = [-1] + ref["shape"][1:]
    elif damage == "unreferenced section":
        sections.append(bytes(8))
    elif damage == "twice-referenced section":
        refs(head)[1]["$section"] = ref["$section"]
    elif damage == "reference past the last section":
        ref["$section"] = len(sections)
    elif damage == "extra key in a reference":
        ref["offset"] = 0
    elif damage == "non-boolean bytes":
        index = head["store"]["is_seed"]["$section"]
        sections[index] = b"\x02" + sections[index][1:]
    elif damage == "head not an object":
        return join([head], sections)
    else:  # pragma: no cover - a typo in the parameter list
        raise AssertionError(damage)
    return join(head, sections)


#: damage -> the reason the reader must give.
CONTAINER_DAMAGE = {
    "head length past the end": "head length",
    "section length overflow": "section 0 declares",
    "dtype <i4": "dtype '<i4'",
    "dtype >i8": "dtype '>i8'",
    "dtype |u1": "dtype '|u1'",
    "dtype O": "dtype 'O'",
    "shape one row long": "holds .* bytes, shape",
    "negative shape": "bad shape",
    "unreferenced section": "never referenced",
    "twice-referenced section": "out of range or repeated",
    "reference past the last section": "out of range or repeated",
    "extra key in a reference": "malformed section reference",
    "non-boolean bytes": "non-boolean",
    "head not an object": "must be a JSON object",
}


@pytest.mark.parametrize("damage", sorted(CONTAINER_DAMAGE))
def test_crafted_container_is_rejected(payload, workdir, damage):
    path = workdir / "crafted.ckpt"
    seal(_craft(payload, damage), path)
    with pytest.raises(CheckpointError, match=CONTAINER_DAMAGE[damage]):
        read_checkpoint(path)


def _store_damage(document, damage):
    store = dict(document["store"])
    document = dict(document, store=store)
    leech = np.flatnonzero(~store["is_seed"] & (store["nbr_deg"] > 0))
    if damage == "nbr cell at capacity":
        store["nbr"] = store["nbr"].copy()
        store["nbr"][3] = store["capacity"]
    elif damage == "nbr cell negative":
        store["nbr"] = store["nbr"].copy()
        store["nbr"][-1] = -1
    elif damage == "leecher nbr_deg above the width":
        store["nbr_deg"] = store["nbr_deg"].copy()
        store["nbr_deg"][leech[0]] = store["nbr_width"] + 1
        extra = np.zeros(store["nbr_width"] + 1, dtype=np.int64)
        store["nbr"] = np.concatenate([store["nbr"], extra])
    elif damage == "negative nbr_deg":
        store["nbr_deg"] = store["nbr_deg"].copy()
        store["nbr_deg"][0] = -1
    elif damage == "nbr one cell short":
        store["nbr"] = store["nbr"][:-1]
    elif damage == "slot out of range":
        store["slots"] = store["slots"].copy()
        store["slots"][-1] = store["capacity"]
    elif damage == "slots not ascending":
        store["slots"] = store["slots"][::-1].copy()
    elif damage == "free slot out of range":
        store["free"] = store["free"].copy()
        store["free"][0] = -5
    elif damage == "capacity disagrees":
        store["capacity"] = store["capacity"] + 1
    elif damage == "nbr_width disagrees":
        store["nbr_width"] = 10**9
    elif damage == "float column typed as int":
        store["joined_at"] = store["joined_at"].astype(np.int64)
    elif damage == "bitfield one word short":
        store["bits"] = store["bits"][:, :1].copy()
    elif damage == "pairs out of range":
        sw = dict(document["swarm"])
        sw["pairs"] = sw["pairs"].copy()
        sw["pairs"][0, 1] = store["capacity"]
        document["swarm"] = sw
    else:  # pragma: no cover - a typo in the parameter list
        raise AssertionError(damage)
    return document


#: damage -> the reason the restore must give.
STORE_DAMAGE = {
    "nbr cell at capacity": "'nbr' holds a slot outside",
    "nbr cell negative": "'nbr' holds a slot outside",
    "leecher nbr_deg above the width": "above the row width",
    "negative nbr_deg": "'nbr_deg' is negative",
    "nbr one cell short": "'nbr' has .* cells",
    "slot out of range": "'slots' holds a slot outside",
    "slots not ascending": "do not partition",
    "free slot out of range": "'free' holds a slot outside",
    "capacity disagrees": "do not partition",
    "nbr_width disagrees": "not the configured accept cap",
    "float column typed as int": "'joined_at' is int64",
    "bitfield one word short": "'bits' is uint64 of shape",
    "pairs out of range": "'pairs' holds a slot outside",
}


@pytest.mark.parametrize("damage", sorted(STORE_DAMAGE))
def test_crafted_store_block_is_rejected_at_restore(
    document, workdir, damage
):
    path = workdir / "store.ckpt"
    write_checkpoint(_store_damage(document, damage), path)
    with pytest.raises(CheckpointError, match="structurally invalid") as info:
        resume(path)
    assert re.search(STORE_DAMAGE[damage], str(info.value))
