"""The chaos-scenario sweep: every scenario, property-tested over seeds.

Under the default ``ci`` hypothesis profile each scenario runs over 20
derandomized seeds; the ``nightly`` profile widens that to 200 random
seeds (the scheduled chaos sweep).  A failure message carries the scenario
name and seed, so ``run_scenario(name, seed)`` replays it exactly.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.verify.oracle import VerifyMismatch
from repro.verify.scenarios import (
    SCENARIOS,
    Check,
    Scenario,
    Traffic,
    run_scenario,
)


class TestCatalogue:
    def test_at_least_twelve_distinct_scenarios(self):
        assert len(SCENARIOS) >= 12

    def test_names_and_descriptions(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description
            assert scenario.events

    def test_catalogue_covers_every_event_type(self):
        kinds = {
            type(event).__name__
            for scenario in SCENARIOS.values()
            for event in scenario.events
        }
        assert kinds >= {
            "Traffic",
            "Advance",
            "Check",
            "SnapshotRestore",
            "Reshard",
            "CrashReplay",
            "Prune",
            "CacheChurn",
        }

    def test_traffic_styles_all_exercised(self):
        styles = {
            event.style
            for scenario in SCENARIOS.values()
            for event in scenario.events
            if isinstance(event, Traffic)
        }
        assert styles == {"burst", "trickle", "boundary", "duplicate"}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_scenario_agrees_with_oracle(name: str, seed: int):
    """Every scenario, under any seed, must clear every differential check."""
    report = run_scenario(name, seed=seed)
    assert report.checks > 0
    assert report.records > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_shard_continuous_push(seed: int):
    """Pushed updates on a one-shard cube, whose epoch vector is
    ``(structure_version, q_0)``, clear every ordering and oracle check."""
    scenario = dataclasses.replace(SCENARIOS["continuous_push"], n_shards=1)
    report = run_scenario(scenario, seed=seed)
    assert report.checks > 0


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_premature_check_is_a_scenario_bug(seed: int):
    """The runner refuses to 'pass' a check it could not actually perform."""
    bad = Scenario(
        name="premature",
        description="checks before a full window is sealed",
        events=(Traffic(quarters=1), Check()),
    )
    with pytest.raises(VerifyMismatch, match="scenario bug"):
        run_scenario(bad, seed=seed)
