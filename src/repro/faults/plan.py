"""Deterministic, seeded fault plans for the durability I/O seams.

Every durability path in the system — cold-store page reads/writes, WAL
appends, snapshot/manifest writes, cluster RPC frames — consults this
module at a named *site* before (or while) touching the outside world.
With no plan installed the consultation is a single ``None`` check, so
production code pays nothing; with a plan armed, matching rules fire
deterministically (seeded per rule, bounded by ``count``) and the call
site experiences a realistic failure: an ``OSError`` with ``EIO`` or
``ENOSPC``, a torn (short) write, a flipped bit in the payload, a lying
``fsync``, or added latency.

Sites are dotted names::

    store.read       cold-store page fetch
    store.write      cold-store page append
    wal.append       QuarterWAL line append
    snapshot.write   write_atomic (snapshot shard files, manifests)
    rpc.send         cluster frame send (supervisor side)
    rpc.recv         cluster frame receive (supervisor side)

A rule's ``site`` may be ``"*"`` to match every site.  Rules fire at most
``count`` times (default 1 — one-shot, like the existing worker chaos
hooks), skip their first ``after`` matching operations, and may fire
probabilistically; each rule owns a :class:`random.Random` seeded from
``(plan.seed, rule index)`` so a plan replays identically run to run.

``after`` counts the *calling thread's* matching operations, not the
process's.  A retry runs on the thread whose first attempt failed, right
after it; spacing two rules apart with ``after`` (``page-bitflip``: flip
read 1, EIO read 4) therefore keeps them off one operation's retry only
if other threads' traffic cannot advance the count in between.  With a
process-wide count, two shard threads reading cold pages concurrently
could put the EIO on the bit flip's retry read — two faults on one read,
which no single-retry repair survives — depending on scheduling alone.
``count`` stays process-wide: a one-shot rule fires once, on whichever
thread gets there first.

The injector is process-global by design: forked shard workers *clear*
any inherited injector and re-install from their ``WorkerSpec``'s plan
with the supervisor-only sites dropped, so a plan armed in the parent
never double-fires on both ends of the same RPC.
"""

from __future__ import annotations

import errno
import json
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ServiceError

__all__ = [
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "PRESETS",
    "preset_plan",
    "load_plan",
    "install",
    "clear",
    "active",
    "active_plan",
    "install_for_worker",
    "check",
    "torn",
    "corrupt",
    "lie",
    "stats",
]

KINDS = ("eio", "enospc", "torn", "bitflip", "fsync_lie", "latency")

SITES = (
    "store.read",
    "store.write",
    "wal.append",
    "snapshot.write",
    "rpc.send",
    "rpc.recv",
)

#: Sites that only ever fire on the supervisor side of the process
#: backend; forked workers drop these rules on re-install so one rule
#: cannot fire on both ends of the same frame.
SUPERVISOR_SITES = frozenset({"rpc.send", "rpc.recv", "wal.append"})


@dataclass(frozen=True)
class FaultRule:
    """One injectable failure: *kind* at *site*, bounded and seeded."""

    site: str
    kind: str
    count: int = 1  # max firings; 0 means unlimited
    after: int = 0  # skip the first N matching operations
    probability: float = 1.0
    seconds: float = 0.05  # latency kinds only

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ServiceError(
                f"fault plan: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(KINDS)})"
            )
        if self.site != "*" and self.site not in SITES:
            raise ServiceError(
                f"fault plan: unknown site {self.site!r} "
                f"(expected one of {', '.join(SITES)} or '*')"
            )
        if self.count < 0 or self.after < 0:
            raise ServiceError("fault plan: count/after must be >= 0")
        if not 0.0 < self.probability <= 1.0:
            raise ServiceError(
                "fault plan: probability must be in (0, 1]"
            )
        if self.seconds < 0:
            raise ServiceError("fault plan: seconds must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "count": self.count,
            "after": self.after,
            "probability": self.probability,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of rules; immutable and serializable."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(payload, Mapping):
            raise ServiceError(
                "fault plan: expected a JSON object with 'rules'"
            )
        raw_rules = payload.get("rules", [])
        if not isinstance(raw_rules, Iterable) or isinstance(
            raw_rules, (str, bytes)
        ):
            raise ServiceError("fault plan: 'rules' must be a list")
        rules = []
        for raw in raw_rules:
            if not isinstance(raw, Mapping):
                raise ServiceError(
                    "fault plan: each rule must be an object"
                )
            unknown = set(raw) - {
                "site",
                "kind",
                "count",
                "after",
                "probability",
                "seconds",
            }
            if unknown:
                raise ServiceError(
                    f"fault plan: unknown rule field(s) "
                    f"{', '.join(sorted(unknown))}"
                )
            try:
                rules.append(
                    FaultRule(
                        site=str(raw["site"]),
                        kind=str(raw["kind"]),
                        count=int(raw.get("count", 1)),
                        after=int(raw.get("after", 0)),
                        probability=float(raw.get("probability", 1.0)),
                        seconds=float(raw.get("seconds", 0.05)),
                    )
                )
            except KeyError as exc:
                raise ServiceError(
                    f"fault plan: rule missing field {exc}"
                ) from None
            except (TypeError, ValueError) as exc:
                raise ServiceError(
                    f"fault plan: malformed rule ({exc})"
                ) from None
        try:
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                f"fault plan: malformed seed ({exc})"
            ) from None
        return cls(seed=seed, rules=tuple(rules))

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def drop_sites(self, sites: frozenset[str]) -> "FaultPlan":
        """A copy without rules bound to ``sites`` (wildcards survive)."""
        return FaultPlan(
            seed=self.seed,
            rules=tuple(r for r in self.rules if r.site not in sites),
        )


#: Named plans for the CI fault matrix and ``--fault-plan`` shorthand.
#: Each is survivable: the injected failure is one the system repairs
#: (short-write recovery, re-read retry, temp cleanup + retry), so the
#: whole chaos catalogue stays bit-identical to the oracle with one armed.
PRESETS: dict[str, tuple[dict[str, Any], ...]] = {
    "wal-torn": (
        {"site": "wal.append", "kind": "torn", "count": 1, "after": 2},
        {"site": "wal.append", "kind": "eio", "count": 1, "after": 5},
    ),
    "page-bitflip": (
        {"site": "store.read", "kind": "bitflip", "count": 1},
        {"site": "store.read", "kind": "eio", "count": 1, "after": 3},
    ),
    "enospc-snapshot": (
        {"site": "snapshot.write", "kind": "enospc", "count": 1},
        {"site": "snapshot.write", "kind": "torn", "count": 1, "after": 2},
    ),
}


def preset_plan(name: str, seed: int = 0) -> FaultPlan:
    """The named preset as a plan (see :data:`PRESETS`)."""
    if name not in PRESETS:
        raise ServiceError(
            f"fault plan: unknown preset {name!r} "
            f"(expected one of {', '.join(sorted(PRESETS))})"
        )
    return FaultPlan.from_dict({"seed": seed, "rules": list(PRESETS[name])})


def load_plan(spec: str, seed: int = 0) -> FaultPlan:
    """Resolve a ``--fault-plan`` argument: preset name or JSON file."""
    if spec in PRESETS:
        return preset_plan(spec, seed=seed)
    path = Path(spec)
    if not path.exists():
        raise ServiceError(
            f"fault plan: {spec!r} is neither a preset "
            f"({', '.join(sorted(PRESETS))}) nor a readable file"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ServiceError(
            f"fault plan: could not read {spec}: {exc}"
        ) from None
    if isinstance(payload, Mapping) and "seed" not in payload:
        payload = {**payload, "seed": seed}
    return FaultPlan.from_dict(payload)


class _RuleState:
    # ``seen`` is the process-wide total (stats only); the ``after`` test
    # reads the calling thread's own count, see FaultInjector._fire.
    __slots__ = ("rule", "rng", "seen", "fired", "remaining")

    def __init__(self, rule: FaultRule, seed: int, index: int) -> None:
        self.rule = rule
        self.rng = random.Random(f"{seed}/{index}/{rule.site}/{rule.kind}")
        self.seen = 0
        self.fired = 0
        self.remaining = rule.count if rule.count > 0 else None


class FaultInjector:
    """The armed form of a plan: per-rule counters, RNGs and a lock."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._states = [
            _RuleState(rule, plan.seed, i)
            for i, rule in enumerate(plan.rules)
        ]
        self._thread = threading.local()  # .seen: this thread's counts

    def _fire(self, site: str, kinds: tuple[str, ...]) -> list[FaultRule]:
        """Advance matching rules one operation; returns those that fire."""
        fired = []
        try:
            seen = self._thread.seen
        except AttributeError:
            seen = self._thread.seen = [0] * len(self._states)
        with self._lock:
            for i, state in enumerate(self._states):
                rule = state.rule
                if rule.kind not in kinds:
                    continue
                if rule.site != "*" and rule.site != site:
                    continue
                state.seen += 1
                seen[i] += 1
                if seen[i] <= rule.after:
                    continue
                if state.remaining is not None and state.remaining <= 0:
                    continue
                if (
                    rule.probability < 1.0
                    and state.rng.random() >= rule.probability
                ):
                    continue
                if state.remaining is not None:
                    state.remaining -= 1
                state.fired += 1
                fired.append(rule)
        return fired

    # Guard methods: one per failure family, so consulting one family
    # never advances another family's counters.
    def check(self, site: str) -> None:
        for rule in self._fire(site, ("latency", "eio", "enospc")):
            if rule.kind == "latency":
                time.sleep(rule.seconds)
            elif rule.kind == "eio":
                raise OSError(
                    errno.EIO, f"injected EIO at {site}"
                )
            else:
                raise OSError(
                    errno.ENOSPC, f"injected ENOSPC at {site}"
                )

    def torn(self, site: str) -> bool:
        return bool(self._fire(site, ("torn",)))

    def corrupt(self, site: str, data: bytes) -> bytes:
        for rule in self._fire(site, ("bitflip",)):
            if not data:
                continue
            state = next(
                s for s in self._states if s.rule is rule
            )
            mutated = bytearray(data)
            pos = state.rng.randrange(len(mutated))
            mutated[pos] ^= 1 << state.rng.randrange(8)
            data = bytes(mutated)
        return data

    def lie(self, site: str) -> bool:
        return bool(self._fire(site, ("fsync_lie",)))

    def stats(self) -> list[dict[str, Any]]:
        with self._lock:
            return [
                {
                    "site": s.rule.site,
                    "kind": s.rule.kind,
                    "seen": s.seen,
                    "fired": s.fired,
                }
                for s in self._states
            ]


# ----------------------------------------------------------------------
# Process-global injector + zero-cost-when-disabled guard functions
# ----------------------------------------------------------------------
_ACTIVE: FaultInjector | None = None


def install(plan: FaultPlan | Mapping[str, Any]) -> FaultInjector:
    """Arm ``plan`` process-wide; returns the injector (fresh counters)."""
    global _ACTIVE
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan.from_dict(plan)
    _ACTIVE = FaultInjector(plan)
    return _ACTIVE


def clear() -> None:
    """Disarm fault injection (the disabled path costs one None check)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultInjector | None:
    return _ACTIVE


def active_plan() -> dict[str, Any] | None:
    """The armed plan as a plain dict (for ``WorkerSpec`` propagation)."""
    return None if _ACTIVE is None else _ACTIVE.plan.to_dict()


def install_for_worker(plan_dict: Mapping[str, Any] | None) -> None:
    """Re-arm inside a forked shard worker.

    Workers inherit the parent's injector through ``fork``; that copy is
    always discarded, then the spec's plan (if any) is installed with the
    supervisor-only sites dropped — frame faults belong to exactly one
    side of the socket.
    """
    clear()
    if plan_dict is None:
        return
    plan = FaultPlan.from_dict(plan_dict).drop_sites(SUPERVISOR_SITES)
    if plan.rules:
        install(plan)


def check(site: str) -> None:
    """Raise/delay if an eio / enospc / latency rule fires at ``site``."""
    if _ACTIVE is not None:
        _ACTIVE.check(site)


def torn(site: str) -> bool:
    """True when a torn-write rule fires: write a prefix, then fail."""
    return _ACTIVE is not None and _ACTIVE.torn(site)


def corrupt(site: str, data: bytes) -> bytes:
    """``data``, bit-flipped when a bitflip rule fires at ``site``."""
    if _ACTIVE is not None:
        return _ACTIVE.corrupt(site, data)
    return data


def lie(site: str) -> bool:
    """True when an fsync-lie rule fires: skip the fsync, stay silent."""
    return _ACTIVE is not None and _ACTIVE.lie(site)


def stats() -> list[dict[str, Any]] | None:
    """Per-rule counters of the armed plan, or ``None`` when disarmed."""
    return None if _ACTIVE is None else _ACTIVE.stats()
