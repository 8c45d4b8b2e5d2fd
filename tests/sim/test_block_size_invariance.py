"""Block-size and thread-count invariance of the soa cell kernels.

Every cell kernel of :mod:`repro.sim.soa` (interest, selection, the
announce relation check, partner and entry lookups, row deletion) runs
in blocks of ``_CHUNK_CELLS`` cells, on ``_THREADS`` threads.  Neither
may change a run: the kernels are row-wise, each block writes only its
own rows, and every random number is drawn before the blocks run.
Here the block is shrunk to a few rows, so every kernel crosses many
block boundaries per round, and the runs must still match their
fingerprint goldens unregenerated on one, two and three threads.
"""

import json

import pytest
from test_fingerprint_goldens import CASES, GOLDEN_JSON, summary

import repro.sim.soa as soa_module

#: 2**8 cells: a handful of rows per block for every kernel.
TINY_BLOCK = 1 << 8

NAMES = ["soa-departing", "soa-lingering", "soa-flash", "sharded-2"]


def run_tiny_blocks(monkeypatch, name, threads):
    # The sharded case forks its workers after the patch, so they
    # inherit the tiny block; each then runs its share of the cores.
    monkeypatch.setattr(soa_module, "_CHUNK_CELLS", TINY_BLOCK)
    monkeypatch.setattr(soa_module, "_THREADS", threads)
    goldens = json.loads(GOLDEN_JSON.read_text())
    assert summary(CASES[name]().run()) == goldens[name]


@pytest.mark.parametrize("name", NAMES)
def test_tiny_blocks_match_fingerprint_golden(monkeypatch, name):
    run_tiny_blocks(monkeypatch, name, threads=1)


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_blocks_on_threads_match_fingerprint_golden(
    monkeypatch, name, threads
):
    run_tiny_blocks(monkeypatch, name, threads)
