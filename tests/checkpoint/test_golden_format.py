"""Golden fixture for checkpoint schema v4 + corrupt-file rejection.

A committed binary ``.ckpt`` fixture (container v2, schema v4) pins the
on-disk format: a build that changes the header layout, the canonical
JSON encoding, or the snapshot schema fails loudly here and must bump
the relevant version (and regenerate) rather than silently emitting
checkpoints old readers mis-parse.  The object document's only arrays
are its completion-table columns, so its payload is a head plus one
section per column.  Regenerate after an
*intentional* format change with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/checkpoint/test_golden_format.py

The rejection tests mutate copies of the fixture byte-by-byte: every
corruption mode (truncation, bit flips, wrong magic/version/length)
must surface as :class:`~repro.errors.CheckpointError`, never as a
silent restart or a garbage resume.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from ckpt_helpers import replay_config, replay_fault_plan, snapshot_at_round
from repro.checkpoint import (
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)
from repro.checkpoint.format import (
    CHECKPOINT_MAGIC,
    _HEADER,
    dumps_payload,
    json_view,
    loads_payload,
)
from repro.errors import CheckpointError
from repro.sim.swarm import Swarm

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_CKPT = GOLDEN_DIR / "checkpoint_v4.ckpt"
GOLDEN_JSON = GOLDEN_DIR / "checkpoint_v4.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"

#: The fixture snapshot: round 10 of the replay swarm with the full
#: fault plan attached (fault state exercises every schema section).
GOLDEN_ROUND = 10


def generate_document() -> dict:
    document = snapshot_at_round(
        replay_config(), GOLDEN_ROUND, faults=replay_fault_plan()
    )
    return loads_payload(dumps_payload(document))


@pytest.fixture(scope="module")
def golden() -> dict:
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        document = generate_document()
        write_checkpoint(document, GOLDEN_CKPT)
        fingerprint = Swarm.resume(read_checkpoint(GOLDEN_CKPT)).run().fingerprint()
        GOLDEN_JSON.write_text(
            json.dumps(
                {
                    "document": json_view(document),
                    "resumed_fingerprint": fingerprint,
                },
                sort_keys=True,
                indent=1,
            )
            + "\n"
        )
    assert GOLDEN_CKPT.exists() and GOLDEN_JSON.exists(), (
        "missing checkpoint golden fixtures; regenerate with "
        "REPRO_REGEN_GOLDENS=1"
    )
    return json.loads(GOLDEN_JSON.read_text())


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------
def test_container_reads_back_the_committed_document(golden):
    assert json_view(read_checkpoint(GOLDEN_CKPT)) == golden["document"]


def test_current_schema_matches_committed_document(golden):
    """Schema drift fails loudly.

    The snapshot this build emits for the fixture scenario must equal
    the committed v4 document *exactly* — any added, removed, renamed,
    or reordered field (or behavioural drift in the simulator itself)
    lands here, and the fix is a deliberate SCHEMA_VERSION bump plus
    regeneration, never a silent change.
    """
    assert json_view(generate_document()) == golden["document"]


def test_committed_container_bytes_are_stable(golden):
    """Re-encoding the committed document reproduces the file's bytes
    (its completion columns as sections, as they were read)."""
    payload = dumps_payload(read_checkpoint(GOLDEN_CKPT))
    assert GOLDEN_CKPT.read_bytes()[_HEADER.size:] == payload


def test_resume_from_golden_reproduces_pinned_fingerprint(golden):
    result = Swarm.resume(read_checkpoint(GOLDEN_CKPT)).run()
    assert result.fingerprint() == golden["resumed_fingerprint"]


# ----------------------------------------------------------------------
# Corrupt / truncated / alien files are rejected
# ----------------------------------------------------------------------
def _mutated(tmp_path, mutate) -> Path:
    raw = bytearray(GOLDEN_CKPT.read_bytes())
    out = tmp_path / "mutant.ckpt"
    out.write_bytes(bytes(mutate(raw)))
    return out


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="does not exist"):
        read_checkpoint(tmp_path / "nope.ckpt")


def test_truncated_header_rejected(golden, tmp_path):
    path = _mutated(tmp_path, lambda raw: raw[: _HEADER.size - 3])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(path)


def test_truncated_payload_rejected(golden, tmp_path):
    path = _mutated(tmp_path, lambda raw: raw[:-10])
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_flipped_payload_byte_fails_crc(golden, tmp_path):
    def flip(raw):
        raw[_HEADER.size + len(raw) // 2] ^= 0xFF
        return raw

    with pytest.raises(CheckpointError, match="CRC"):
        read_checkpoint(_mutated(tmp_path, flip))


def test_alien_magic_rejected(golden, tmp_path):
    def stomp(raw):
        raw[: len(CHECKPOINT_MAGIC)] = b"NOTACKPT"
        return raw

    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(_mutated(tmp_path, stomp))


def test_future_container_version_rejected(golden, tmp_path):
    def bump(raw):
        magic, version, length, crc = _HEADER.unpack_from(raw)
        _HEADER.pack_into(raw, 0, magic, version + 1, length, crc)
        return raw

    with pytest.raises(CheckpointError, match="version"):
        read_checkpoint(_mutated(tmp_path, bump))


def test_unsupported_schema_version_rejected(golden, tmp_path):
    document = dict(golden["document"])
    document["schema_version"] = 999
    with pytest.raises(CheckpointError, match="schema version"):
        Swarm.resume(document)


def test_schema_v2_container_is_refused_by_version(golden, tmp_path):
    """A v2 snapshot is refused with its version named."""
    document = read_checkpoint(GOLDEN_CKPT)
    document["schema_version"] = 2
    path = tmp_path / "v2.ckpt"
    write_checkpoint(document, path)
    with pytest.raises(CheckpointError, match="schema version 2 "):
        Swarm.resume(read_checkpoint(path))


def test_schema_v3_container_is_refused_by_version(golden, tmp_path):
    """A v3 snapshot (completed downloads as per-row JSON dicts) is
    refused with its version named."""
    document = read_checkpoint(GOLDEN_CKPT)
    document["schema_version"] = 3
    path = tmp_path / "v3.ckpt"
    write_checkpoint(document, path)
    with pytest.raises(CheckpointError, match="schema version 3 "):
        Swarm.resume(read_checkpoint(path))


def test_structurally_gutted_document_rejected(golden):
    document = json.loads(json.dumps(golden["document"]))
    del document["engine"]
    with pytest.raises(CheckpointError, match="invalid"):
        Swarm.resume(document)


def test_sections_round_trip_every_dtype_and_empty_shape(tmp_path):
    document = {
        "ints": np.arange(6, dtype=np.int64).reshape(3, 2),
        "no_pairs": np.zeros((0, 2), dtype=np.int64),
        "floats": np.array([np.nan, 1.5, -0.0]),
        "no_flags": np.zeros(0, dtype=bool),
        "words": np.array([2**64 - 1, 2**63], dtype=np.uint64),
        "nested": [{"flags": np.array([True, False, True])}, 7],
    }
    path = tmp_path / "arrays.ckpt"
    write_checkpoint(document, path)
    loaded = read_checkpoint(path)
    assert loaded["nested"][1] == 7
    for key in ("ints", "no_pairs", "floats", "no_flags", "words"):
        assert loaded[key].dtype == document[key].dtype
        np.testing.assert_array_equal(loaded[key], document[key])
    np.testing.assert_array_equal(
        loaded["nested"][0]["flags"], document["nested"][0]["flags"]
    )
    assert dumps_payload(loaded) == path.read_bytes()[_HEADER.size:]
    assert json_view(loaded)["floats"] == [None, 1.5, -0.0]


def test_array_of_an_unlisted_dtype_is_refused(tmp_path):
    with pytest.raises(CheckpointError, match="int32"):
        write_checkpoint({"x": np.zeros(2, dtype=np.int32)}, tmp_path / "x")
    assert not list(tmp_path.iterdir())


def test_store_rejects_path_escaping_keys(tmp_path):
    store = CheckpointStore(tmp_path)
    for bad in ("", "../up", "a/b", ".hidden", "-dash-first", "sp ace"):
        with pytest.raises(CheckpointError, match="invalid checkpoint key"):
            store.path_for(bad)
    assert store.path_for("stability-B3").name == "stability-B3.ckpt"


def test_store_lists_and_clears_checkpoints(golden, tmp_path):
    store = CheckpointStore(tmp_path / "fresh")
    assert list(store.keys()) == []
    assert store.clear() == 0  # directory does not even exist yet

    document = golden["document"]
    for key in ("b0-t1", "b0-t0"):
        write_checkpoint(document, store.path_for(key))
    # A stray temp file from a killed writer is swept by clear() too.
    (store.directory / "b0-t0.ckpt.tmp.12345").write_bytes(b"debris")

    assert list(store.keys()) == ["b0-t0", "b0-t1"]  # sorted
    assert store.exists("b0-t0") and not store.exists("b9-t9")
    assert store.clear() == 2
    assert list(store.keys()) == []
    assert not list(store.directory.glob("*.tmp.*"))
