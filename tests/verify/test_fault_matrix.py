"""The fault matrix: chaos scenarios replayed with injection armed.

Every preset fault class (torn WAL appends, cold-page bit flips,
ENOSPC mid-snapshot, a cold page the store refuses twice) is one the
durability layer repairs in place, so a scenario run with a plan armed
must still pass **bit-identically** — same oracle agreement, same
engine==cube equivalence — not merely survive.  Every run spills to the
cold store.  The default leg keeps CI fast: three recovery-heavy
scenarios x three presets, plus the refused cold page under spilled
crash recovery.  ``FAULT_MATRIX=full`` (the nightly leg) widens to the
whole catalogue x every preset, and runs ``refresh_plan_churn`` in its
long form (four rounds of cell-set churn before the shard is lost).
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.verify.scenarios import REFRESH_PLAN_CHURN, SCENARIOS, run_scenario

PRESETS = ("wal-torn", "page-bitflip", "enospc-snapshot", "store-enospc")
QUICK_PRESETS = PRESETS[:3]

#: The quick leg leans on the scenarios that exercise the most
#: durability machinery: full-WAL crash recovery, crash recovery under
#: spilled storage, and the everything-at-once soak.
QUICK_SCENARIOS = ("crash_replay", "spill_crash_replay", "kitchen_sink")

FULL = os.environ.get("FAULT_MATRIX") == "full"


def combos():
    if FULL:
        for name in SCENARIOS:
            for preset in PRESETS:
                yield name, preset
        return
    for name in QUICK_SCENARIOS:
        for preset in QUICK_PRESETS:
            yield name, preset
    yield "spill_crash_replay", "store-enospc"


@pytest.mark.parametrize("name,preset", list(combos()), ids=lambda v: str(v))
def test_scenario_passes_bit_identically_under_faults(name, preset, tmp_path):
    report = run_scenario(
        name, seed=29, workdir=tmp_path, storage=True, fault_plan=preset
    )
    assert report.checks > 0
    assert report.cells_compared > 0


@pytest.mark.skipif(not FULL, reason="long form: FAULT_MATRIX=full only")
@pytest.mark.parametrize("preset", PRESETS)
def test_refresh_plan_churn_long_form(preset, tmp_path):
    short = SCENARIOS["refresh_plan_churn"]
    rounds = REFRESH_PLAN_CHURN * 4
    long_form = dataclasses.replace(
        short, events=rounds + short.events[len(REFRESH_PLAN_CHURN):]
    )
    report = run_scenario(
        long_form, seed=29, workdir=tmp_path, storage=True, fault_plan=preset
    )
    assert report.checks >= 4 * 9
