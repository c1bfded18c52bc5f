"""The fault-plan machinery itself: parsing, determinism, bounds, guards.

Everything else in the fault-injection PR trusts this module — the
storage/WAL/RPC seams only ever ask "does a rule fire here, now?" — so
its counters, seeding and validation get direct coverage.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import faults
from repro.errors import ServiceError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    PRESETS,
    load_plan,
    preset_plan,
)


@pytest.fixture(autouse=True)
def disarm():
    """Every test leaves the process-global injector clean."""
    faults.clear()
    yield
    faults.clear()


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown kind"):
            FaultRule(site="store.read", kind="meteor")

    def test_unknown_site_rejected(self):
        with pytest.raises(ServiceError, match="unknown site"):
            FaultRule(site="disk.write", kind="eio")
        with pytest.raises(ServiceError, match="unknown site"):
            FaultRule(site="rpc.send", kind="eio")  # no shard RPC any more

    def test_wildcard_site_accepted(self):
        assert FaultRule(site="*", kind="latency").site == "*"

    def test_probability_bounds(self):
        with pytest.raises(ServiceError, match="probability"):
            FaultRule(site="store.read", kind="eio", probability=0.0)
        with pytest.raises(ServiceError, match="probability"):
            FaultRule(site="store.read", kind="eio", probability=1.5)

    def test_negative_counters_rejected(self):
        with pytest.raises(ServiceError, match="count/after"):
            FaultRule(site="store.read", kind="eio", count=-1)


class TestPlanParsing:
    def test_from_dict_round_trips(self):
        plan = FaultPlan.from_dict(
            {
                "seed": 7,
                "rules": [
                    {"site": "wal.append", "kind": "torn", "after": 2},
                    {"site": "*", "kind": "latency", "seconds": 0.01},
                ],
            }
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown rule field"):
            FaultPlan.from_dict(
                {"rules": [{"site": "store.read", "kind": "eio", "when": 3}]}
            )

    def test_missing_required_field_rejected(self):
        with pytest.raises(ServiceError, match="missing field"):
            FaultPlan.from_dict({"rules": [{"site": "store.read"}]})

    def test_rules_must_be_a_list(self):
        with pytest.raises(ServiceError, match="'rules' must be a list"):
            FaultPlan.from_dict({"rules": "eio"})

    def test_every_preset_parses(self):
        for name in PRESETS:
            plan = preset_plan(name, seed=5)
            assert plan.seed == 5
            assert plan.rules

    def test_unknown_preset_rejected(self):
        with pytest.raises(ServiceError, match="unknown preset"):
            preset_plan("disk-on-fire")

    def test_load_plan_resolves_preset_then_file(self, tmp_path):
        assert load_plan("wal-torn", seed=3).seed == 3
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {"rules": [{"site": "store.read", "kind": "eio"}]}
            )
        )
        plan = load_plan(str(path), seed=9)
        assert plan.seed == 9  # CLI seed fills a file without one
        assert plan.rules[0].site == "store.read"

    def test_load_plan_neither_preset_nor_file(self):
        with pytest.raises(ServiceError, match="neither a preset"):
            load_plan("no/such/plan.json")


class TestInjectorSemantics:
    def plan(self, **rule):
        rule.setdefault("site", "store.read")
        rule.setdefault("kind", "eio")
        return FaultPlan.from_dict({"seed": 11, "rules": [rule]})

    def test_count_bounds_firings(self):
        inj = FaultInjector(self.plan(count=2))
        fired = 0
        for _ in range(10):
            try:
                inj.check("store.read")
            except OSError:
                fired += 1
        assert fired == 2
        assert inj.stats()[0]["fired"] == 2

    def test_after_skips_leading_operations(self):
        inj = FaultInjector(self.plan(after=3, count=1))
        for _ in range(3):
            inj.check("store.read")  # must not raise
        with pytest.raises(OSError):
            inj.check("store.read")

    def test_after_counts_the_calling_threads_operations(self):
        """Other threads' traffic never moves a rule onto this thread's retry.

        ``page-bitflip`` spaces its EIO three reads after its bit flip so
        the two never share one read's single retry.  The interleaving
        below — the flipped read on one thread, two clean reads on another,
        then the first thread's retry — put the EIO on that retry while
        ``after`` counted process-wide (the fault-matrix flake).
        """
        inj = FaultInjector(preset_plan("page-bitflip"))

        def read() -> bytes:
            inj.check("store.read")
            return inj.corrupt("store.read", b"page")

        assert read() != b"page"  # attempt 1: the bit flip

        def two_clean_reads():
            for _ in range(2):
                assert read() == b"page"

        other = threading.Thread(target=two_clean_reads)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        assert read() == b"page"  # the retry: 4th read overall, 2nd here
        assert read() == b"page"
        with pytest.raises(OSError):  # this thread's own 4th read
            read()
        assert read() == b"page"  # whose retry is clean again
        assert [row["fired"] for row in inj.stats()] == [1, 1]
        assert inj.stats()[1]["seen"] == 7  # stats still count every thread

    def test_count_zero_is_unlimited(self):
        inj = FaultInjector(self.plan(count=0))
        for _ in range(5):
            with pytest.raises(OSError):
                inj.check("store.read")

    def test_site_isolation(self):
        inj = FaultInjector(self.plan())
        inj.check("store.write")  # different site: no fire, no raise
        with pytest.raises(OSError):
            inj.check("store.read")

    def test_family_isolation(self):
        """Consulting one guard family never burns another family's rule."""
        inj = FaultInjector(self.plan(kind="torn"))
        inj.check("store.read")  # eio/enospc/latency family: no-op
        assert inj.torn("store.read")

    def test_probability_is_seeded_deterministic(self):
        plan = self.plan(probability=0.5, count=0)
        runs = []
        for _ in range(2):
            inj = FaultInjector(plan)
            runs.append(
                [self._fires(inj, "store.read") for _ in range(20)]
            )
        assert runs[0] == runs[1]
        assert True in runs[0] and False in runs[0]

    @staticmethod
    def _fires(inj, site):
        try:
            inj.check(site)
            return False
        except OSError:
            return True

    def test_corrupt_flips_exactly_one_bit_deterministically(self):
        plan = self.plan(kind="bitflip")
        before = b"0123456789"
        mutated = [
            FaultInjector(plan).corrupt("store.read", before)
            for _ in range(2)
        ]
        assert mutated[0] == mutated[1] != before
        diff = [
            a ^ b for a, b in zip(before, mutated[0])
        ]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_enospc_errno(self):
        inj = FaultInjector(self.plan(kind="enospc"))
        with pytest.raises(OSError) as info:
            inj.check("store.read")
        import errno

        assert info.value.errno == errno.ENOSPC


class TestModuleGuards:
    def test_disarmed_guards_are_noops(self):
        faults.clear()
        faults.check("store.read")
        assert faults.torn("wal.append") is False
        assert faults.corrupt("store.read", b"abc") == b"abc"
        assert faults.lie("snapshot.write") is False
        assert faults.stats() is None
        assert faults.active() is None

    def test_install_arms_the_plan(self):
        plan = preset_plan("wal-torn", seed=4)
        faults.install(plan)
        assert faults.active().plan == plan
