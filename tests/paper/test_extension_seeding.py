"""Extension: the Section-7.2 seeding study.

Measures, on a cold-start swarm (all pieces descend from the origin
seed), the effect of seed capacity, super-seeding, and post-completion
lingering on download times, bootstrap exposure, and the seeding
efficiency (completions per seed upload).
"""

import math

from repro.experiments.seeding import run_seeding_study


def test_extension_seeding():
    result = run_seeding_study(
        num_pieces=60,
        capacities=(2, 4, 8),
        arrival_rate=2.0,
        initial_leechers=50,
        max_time=150.0,
        seed=0,
    )
    print()
    print(result.format())
    points = result.by_label()

    # More capacity -> faster downloads, at diminishing returns: the
    # 2 -> 4 gain exceeds the 4 -> 8 gain.
    assert points["capacity=4"].mean_duration < points["capacity=2"].mean_duration
    assert points["capacity=8"].mean_duration < points["capacity=4"].mean_duration
    gain_low = points["capacity=2"].mean_duration - points["capacity=4"].mean_duration
    gain_high = points["capacity=4"].mean_duration - points["capacity=8"].mean_duration
    assert gain_low > gain_high, "seed capacity must show diminishing returns"

    # Per-upload seeding efficiency falls as capacity rises (the swarm's
    # own replication does the heavy lifting once pieces circulate).
    assert (
        points["capacity=2"].completions_per_seed_upload
        > points["capacity=4"].completions_per_seed_upload
        > points["capacity=8"].completions_per_seed_upload
    )

    # Lingering ex-leechers dominate: free capacity that scales with the
    # swarm beats any fixed origin-seed budget.
    lingering = points["lingering seeds (capacity=4, 10 rounds)"]
    assert lingering.mean_duration < points["capacity=8"].mean_duration

    # Super-seeding spends fewer seed uploads for comparable speed:
    # better per-upload efficiency than plain seeding at equal capacity.
    super_point = points["super-seeding (capacity=4)"]
    assert super_point.seed_uploads < points["capacity=4"].seed_uploads
    assert not math.isnan(super_point.mean_duration)
    assert (
        super_point.completions_per_seed_upload
        > points["capacity=4"].completions_per_seed_upload
    )
