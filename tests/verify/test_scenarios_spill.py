"""Chaos scenarios under tiered storage: the catalogue spills and survives.

The main sweep (``test_scenarios.py``) runs every scenario over many seeds
with storage off; this module is the spilling leg.  It replays the *whole*
catalogue with a cold store forced on and a small hot horizon — every
differential guarantee (oracle agreement, engine==cube bit-identity,
snapshot/reshard/crash-recovery equivalence) must hold unchanged when
sealed history lives on disk — plus targeted checks for the spill-specific
scenarios and the :class:`DeepWindow` event's own guard rails.
"""

from __future__ import annotations

import pytest

from repro.verify.oracle import VerifyMismatch
from repro.verify.scenarios import (
    SCENARIOS,
    Check,
    DeepWindow,
    Scenario,
    Traffic,
    run_scenario,
)

SPILL_SCENARIOS = (
    "spill_deep_window",
    "spill_snapshot_restore",
    "spill_crash_replay",
)


class TestCatalogue:
    def test_spill_scenarios_present_and_deep(self):
        for name in SPILL_SCENARIOS:
            scenario = SCENARIOS[name]
            assert scenario.storage
            assert any(
                isinstance(event, DeepWindow) for event in scenario.events
            )

    def test_deep_window_scenario_reaches_hundreds_of_quarters(self):
        scenario = SCENARIOS["spill_deep_window"]
        quarters = sum(
            event.quarters
            for event in scenario.events
            if isinstance(event, Traffic)
        )
        assert quarters >= 200


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_whole_catalogue_passes_while_spilling(name: str):
    """Every scenario — not just the spill-specific ones — must clear all
    its differential checks with a cold store underneath."""
    report = run_scenario(name, seed=2026, storage=True, hot_quarters=2)
    assert report.checks > 0


@pytest.mark.parametrize("name", SPILL_SCENARIOS)
@pytest.mark.parametrize("seed", (0, 1234))
def test_spill_scenarios_over_seeds(name: str, seed: int):
    report = run_scenario(name, seed=seed)
    assert report.checks > 0
    assert report.cells_compared > 0


class TestDeepWindowGuards:
    def test_deep_window_without_storage_is_a_scenario_bug(self):
        bad = Scenario(
            name="deep_without_storage",
            description="DeepWindow must not silently pass storage-free",
            events=(Traffic(quarters=5), DeepWindow()),
        )
        with pytest.raises(VerifyMismatch, match="scenario bug"):
            run_scenario(bad, seed=3)

    def test_premature_deep_window_is_a_scenario_bug(self):
        bad = Scenario(
            name="premature_deep",
            description="DeepWindow before anything sealed",
            events=(Traffic(quarters=1), DeepWindow()),
            storage=True,
        )
        with pytest.raises(VerifyMismatch, match="scenario bug"):
            run_scenario(bad, seed=3)

    def test_spill_scenarios_keep_the_standard_checks(self):
        for name in SPILL_SCENARIOS:
            assert any(
                isinstance(event, Check)
                for event in SCENARIOS[name].events
            )
