"""Golden fixture for the soa flavor of checkpoint schema v4.

The object document is pinned by ``test_golden_format.py``; this file
pins the soa document, whose ``store`` block is the peer-row column
table plus the adjacency, each column a binary section of the container
(uint64 bitfield words, NaN-able float64 columns, the leecher neighbor
cells).  A migration row of the sharded engine is a slice of that
block, so a change to the encoding breaks both flavors and lands here.
The committed ``.ckpt`` pins the bytes; the ``.json`` beside it is the
document's :func:`~repro.checkpoint.format.json_view`, a readable diff.
Regenerate after an *intentional* format change with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/checkpoint/test_soa_golden_format.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from ckpt_helpers import replay_fault_plan
from repro.checkpoint.format import (
    _HEADER,
    dumps_payload,
    json_view,
    loads_payload,
    read_checkpoint,
    write_checkpoint,
)
from repro.checkpoint.schema import restore_swarm
from test_soa_checkpoint import soa_replay_config, soa_snapshot_at_round

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_CKPT = GOLDEN_DIR / "soa_checkpoint_v4.ckpt"
GOLDEN_JSON = GOLDEN_DIR / "soa_checkpoint_v4.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"

#: Round 10 of the 70-piece replay swarm: two bitfield words, bit 63
#: set, and fault state in every schema section.
GOLDEN_ROUND = 10


def generate_payload() -> bytes:
    document = soa_snapshot_at_round(
        soa_replay_config(), GOLDEN_ROUND, faults=replay_fault_plan()
    )
    return dumps_payload(document)


@pytest.fixture(scope="module")
def golden() -> dict:
    if REGEN:
        payload = generate_payload()
        document = loads_payload(payload)
        write_checkpoint(document, GOLDEN_CKPT)
        GOLDEN_JSON.write_text(
            json.dumps(
                {
                    "document": json_view(document),
                    "payload_sha256": hashlib.sha256(payload).hexdigest(),
                    "resumed_fingerprint": restore_swarm(
                        read_checkpoint(GOLDEN_CKPT)
                    ).run().fingerprint(),
                },
                sort_keys=True,
                indent=1,
            )
            + "\n"
        )
    assert GOLDEN_CKPT.exists() and GOLDEN_JSON.exists(), (
        "missing soa checkpoint golden; regenerate with REPRO_REGEN_GOLDENS=1"
    )
    return json.loads(GOLDEN_JSON.read_text())


def test_committed_document_encodes_to_the_pinned_bytes(golden):
    document = read_checkpoint(GOLDEN_CKPT)
    payload = dumps_payload(document)
    assert hashlib.sha256(payload).hexdigest() == golden["payload_sha256"]
    assert GOLDEN_CKPT.read_bytes()[_HEADER.size:] == payload
    assert json_view(document) == golden["document"]


def test_current_snapshot_is_byte_identical_to_the_golden(golden):
    """Any added, removed, renamed, reordered or re-encoded field fails."""
    payload = generate_payload()
    assert hashlib.sha256(payload).hexdigest() == golden["payload_sha256"]
    assert json_view(loads_payload(payload)) == golden["document"]


def test_golden_store_block_spans_two_words_with_bit_63_set(golden):
    store = golden["document"]["store"]
    assert all(len(row) == 2 for row in store["bits"])
    assert any(row[0] >= 2**63 for row in store["bits"])


def test_resume_from_golden_reproduces_pinned_fingerprint(golden):
    result = restore_swarm(read_checkpoint(GOLDEN_CKPT)).run()
    assert result.fingerprint() == golden["resumed_fingerprint"]
