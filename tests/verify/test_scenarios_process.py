"""Chaos scenarios on the process backend: the catalogue, re-run on forks.

The main sweep (``test_scenarios.py``) runs every scenario against the
in-process backend; this module is the process leg.  One seed replays the
*whole* catalogue with forked shard workers — every differential
guarantee (oracle agreement, engine==cube bit-identity, snapshot /
reshard / crash-recovery equivalence) must hold unchanged when shards
live in worker processes — plus extra seeds for the worker-crash and
RPC-timeout scenarios that only exist on this backend.
"""

from __future__ import annotations

import pytest

from repro.cluster.process import ProcessBackend
from repro.verify.scenarios import (
    SCENARIOS,
    KillWorker,
    SlowRpc,
    run_scenario,
)

PROCESS_SCENARIOS = (
    "worker_crash_midquarter",
    "worker_crash_snapshot",
    "rpc_timeout_retry",
)


class TestCatalogue:
    def test_process_scenarios_present(self):
        for name in PROCESS_SCENARIOS:
            scenario = SCENARIOS[name]
            assert scenario.backend == "process"

    def test_crash_scenarios_kill_workers(self):
        kinds = {
            type(event).__name__
            for name in PROCESS_SCENARIOS
            for event in SCENARIOS[name].events
        }
        assert "KillWorker" in kinds
        assert "SlowRpc" in kinds

    def test_kill_worker_covers_both_modes(self):
        """The catalogue kills workers both cold (SIGKILL from outside)
        and hot (exit fault inside a named method)."""
        events = [
            event
            for name in PROCESS_SCENARIOS
            for event in SCENARIOS[name].events
            if isinstance(event, KillWorker)
        ]
        assert any(event.during is None for event in events)
        assert any(event.during is not None for event in events)

    def test_timeout_scenario_outlasts_its_rpc_budget(self):
        scenario = SCENARIOS["rpc_timeout_retry"]
        slow = [e for e in scenario.events if isinstance(e, SlowRpc)]
        assert slow and all(
            e.seconds > scenario.rpc_timeout for e in slow
        )


def test_the_stall_lands_on_a_read_the_checks_send(monkeypatch):
    """A stall armed on a method no check dispatches never fires, and the
    scenario would pass without a single timeout: the stalled method must
    be one the supervisor then sees a worker die in."""
    crashed: list[str] = []
    after_crash = ProcessBackend._after_crash

    def recording(backend, shard, method):
        crashed.append(method)
        return after_crash(backend, shard, method)

    monkeypatch.setattr(ProcessBackend, "_after_crash", recording)
    run_scenario("rpc_timeout_retry", 2)
    scenario = SCENARIOS["rpc_timeout_retry"]
    stalled = {e.method for e in scenario.events if isinstance(e, SlowRpc)}
    assert stalled == {"window_columns"}
    assert stalled <= set(crashed)


class TestProcessSweep:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_catalogue_on_process_backend(self, name):
        """Every scenario — including the storage/spill ones — passes
        bit-identically with shards behind forked workers."""
        run_scenario(name, 1, backend="process")

    @pytest.mark.parametrize("name", PROCESS_SCENARIOS)
    @pytest.mark.parametrize("seed", [2, 5, 13])
    def test_chaos_scenarios_over_extra_seeds(self, name, seed):
        run_scenario(name, seed)
