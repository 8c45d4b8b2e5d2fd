"""Telemetry merge semantics: backend labels, and no shard counters.

Regression coverage for the backend-label merge: the old non-empty-wins
rule silently kept the *first* backend when records from different
backends merged, so a mixed object+soa sweep reported whichever ran
first.  Conflicting labels must now join (sorted, ``"+"``-separated)
instead of dropping information.
"""

from repro.runtime.telemetry import Telemetry


class TestBackendMerge:
    def test_same_backend_merges_unchanged(self):
        a = Telemetry(backend="soa")
        a.merge(Telemetry(backend="soa"))
        assert a.backend == "soa"

    def test_empty_never_overwrites(self):
        a = Telemetry(backend="soa")
        a.merge(Telemetry())
        assert a.backend == "soa"

    def test_empty_adopts_other(self):
        a = Telemetry()
        a.merge(Telemetry(backend="sharded"))
        assert a.backend == "sharded"

    def test_conflicting_backends_join_labels(self):
        """The regression: merging different backends must not silently
        keep the first label."""
        a = Telemetry(backend="object")
        a.merge(Telemetry(backend="soa"))
        assert a.backend == "object+soa"
        # Merge order must not matter.
        b = Telemetry(backend="soa")
        b.merge(Telemetry(backend="object"))
        assert b.backend == a.backend

    def test_joined_labels_stay_deduplicated(self):
        a = Telemetry(backend="object+soa")
        a.merge(Telemetry(backend="soa"))
        assert a.backend == "object+soa"
        a.merge(Telemetry(backend="sharded"))
        assert a.backend == "object+sharded+soa"


class TestShards:
    """Shard numbers live on ``SwarmResult.comms`` and
    ``shard_profiles``; :class:`Telemetry` carries none."""

    def test_default_absent_from_format(self):
        assert "shards" not in Telemetry().format()
        assert "shards" not in Telemetry().to_dict()


class TestFabricBytes:
    def test_default_absent_from_format(self):
        assert "shard comms" not in Telemetry().format()
        assert not {"bytes_broadcast", "bytes_migrated"} & set(
            Telemetry().to_dict()
        )
