"""Block-size invariance of the soa cell kernels.

Every cell kernel of :mod:`repro.sim.soa` (interest, selection, the
announce relation check, partner and entry lookups, row deletion) runs
in blocks of ``_CHUNK_CELLS`` cells.  Blocks must not change a run: the
kernels are row-wise, and consecutive ``rng.random`` draws over blocks
yield the same doubles as one draw.  Here the block is shrunk to a few
rows, so every kernel crosses many block boundaries per round, and the
runs must still match their fingerprint goldens unregenerated.
"""

import json

import pytest
from test_fingerprint_goldens import CASES, GOLDEN_JSON, summary

import repro.sim.soa as soa_module

#: 2**8 cells: a handful of rows per block for every kernel.
TINY_BLOCK = 1 << 8


@pytest.mark.parametrize(
    "name", ["soa-departing", "soa-lingering", "soa-flash", "sharded-2"]
)
def test_tiny_blocks_match_fingerprint_golden(monkeypatch, name):
    # The sharded case forks its workers after the patch, so they
    # inherit the tiny block too.
    monkeypatch.setattr(soa_module, "_CHUNK_CELLS", TINY_BLOCK)
    goldens = json.loads(GOLDEN_JSON.read_text())
    assert summary(CASES[name]().run()) == goldens[name]
