"""Autoscaling: grow and shrink a live fleet from its own pressure signals.

:meth:`~repro.serving.sharded.ShardedFleetServer.join_shard` and
:meth:`~repro.serving.sharded.ShardedFleetServer.drain_shard` are pull
primitives — somebody has to call them.  :class:`Autoscaler` makes them a
daemon, the same shape as :class:`~repro.serving.scheduler.RefreshScheduler`:
a jittered background thread that periodically reads the fleet's
:meth:`~repro.serving.sharded.ShardedFleetServer.pressure_snapshot` —
bounded inflight-window utilization plus parent-observed p99 latency — and
decides to **grow** (spawn and join one shard), **shrink** (drain the
least-loaded shard), or **hold**, inside ``[min_shards, max_shards]``.

Two hygiene behaviours keep the loop stable:

* **Cooldowns.**  After any membership change the fleet is left alone for
  ``scale_up_cooldown_s`` / ``scale_down_cooldown_s`` before the next grow
  or shrink — a freshly-joined shard needs time to absorb its remapped
  buildings before its effect on pressure is measurable, and without the
  asymmetric (longer) shrink cooldown the loop would oscillate around the
  thresholds.
* **Hysteresis.**  Growing triggers at ``scale_up_pressure`` but shrinking
  only below the (much lower) ``scale_down_pressure``; the dead band
  between them is where a correctly-sized fleet lives.

Decisions are observable three ways: a structured
:class:`AutoscaleDecision` return, ``fleet_autoscale_*`` metrics on the
fleet's telemetry, and the ``shard-joined`` / ``shard-drained`` events the
membership calls themselves emit.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sharded imports serving pkg)
    from repro.serving.sharded import ShardedFleetServer

__all__ = [
    "AutoscaleDecision",
    "AutoscalePolicy",
    "Autoscaler",
    "AutoscalerStats",
]

#: Default seconds between pressure evaluations; pressure moves with the
#: inflight window (milliseconds), but membership changes cost seconds —
#: evaluating much faster than a join completes just burns snapshots.
DEFAULT_INTERVAL_S = 5.0


@dataclass(frozen=True)
class AutoscalePolicy:
    """The thresholds one :class:`Autoscaler` scales by.

    Attributes
    ----------
    min_shards, max_shards:
        Inclusive bounds on live ring entries; the autoscaler never
        drains below the floor or joins above the ceiling.
    scale_up_pressure:
        Grow when any shard's inflight-window utilization reaches this
        fraction (the fleet is saturating its backpressure windows).
    scale_down_pressure:
        Shrink only when *every* shard's utilization is at or below this
        fraction; the gap up to ``scale_up_pressure`` is deliberate
        hysteresis.
    p99_budget_s:
        Optional latency SLO: when set, a p99 above it triggers a grow
        even at low utilization, and shrinks are suppressed while the
        budget is violated.
    scale_up_cooldown_s, scale_down_cooldown_s:
        Minimum seconds after *any* membership change before the next
        grow / shrink.  Shrink defaults slower than grow: adding capacity
        late costs latency, removing it early costs a re-join.
    """

    min_shards: int = 1
    max_shards: int = 4
    scale_up_pressure: float = 0.75
    scale_down_pressure: float = 0.15
    p99_budget_s: Optional[float] = None
    scale_up_cooldown_s: float = 10.0
    scale_down_cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError("min_shards must be >= 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if not (0.0 < self.scale_up_pressure <= 1.0):
            raise ValueError("scale_up_pressure must lie in (0, 1]")
        if not (0.0 <= self.scale_down_pressure < self.scale_up_pressure):
            raise ValueError(
                "scale_down_pressure must lie in [0, scale_up_pressure)"
            )
        if self.p99_budget_s is not None and self.p99_budget_s <= 0:
            raise ValueError("p99_budget_s must be positive when set")
        if self.scale_up_cooldown_s < 0 or self.scale_down_cooldown_s < 0:
            raise ValueError("cooldowns must be >= 0")


@dataclass(frozen=True)
class AutoscaleDecision:
    """What one evaluation saw and did.

    ``action`` is ``"grow"``, ``"shrink"``, or ``"hold"``; ``pressure`` is
    the worst (maximum) shard utilization at evaluation time, ``p99_s``
    the worst shard p99 (``None`` before any request completed), and
    ``num_shards`` the ring size *before* any change this decision made.
    """

    action: str
    reason: str
    pressure: float
    p99_s: Optional[float]
    num_shards: int


@dataclass
class AutoscalerStats:
    """Counters describing what the autoscaler's evaluations did."""

    ticks: int = 0
    grows: int = 0
    shrinks: int = 0
    holds: int = 0
    failures: int = 0


class Autoscaler:
    """Pressure-driven background membership control for one fleet.

    Parameters
    ----------
    fleet:
        The :class:`~repro.serving.sharded.ShardedFleetServer` to scale.
        Grow spawns workers, so the fleet must own its shards (no
        ``shard_addresses``); :meth:`evaluate_once`
        surfaces violations of that as failure-counted holds rather than
        raising out of the daemon thread.
    policy:
        The :class:`AutoscalePolicy` thresholds (default: a fresh policy
        with its documented defaults).
    interval_s:
        Base seconds between evaluations (jittered per tick).
    jitter_fraction:
        Uniform jitter applied to every wait, exactly like the refresh
        scheduler: the actual delay is drawn from
        ``interval_s * [1 - jitter_fraction, 1 + jitter_fraction]``.
    seed:
        Seeds the jitter RNG for reproducible tests.

    Thread-safety: the daemon thread and any caller of
    :meth:`evaluate_once` serialize on an internal lock, so concurrent
    evaluations can never issue two membership changes at once.
    """

    def __init__(
        self,
        fleet: "ShardedFleetServer",
        policy: Optional[AutoscalePolicy] = None,
        interval_s: float = DEFAULT_INTERVAL_S,
        jitter_fraction: float = 0.2,
        seed: Optional[int] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if not (0.0 <= jitter_fraction < 1.0):
            raise ValueError("jitter_fraction must lie in [0, 1)")
        self.fleet = fleet
        self.policy = policy if policy is not None else AutoscalePolicy()
        self.interval_s = interval_s
        self.jitter_fraction = jitter_fraction
        self._rng = random.Random(seed)
        self._stats = AutoscalerStats()
        self._stats_lock = threading.Lock()
        self._evaluate_lock = threading.Lock()
        self._last_change: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        metrics = fleet.telemetry.metrics
        self._pressure_gauge = metrics.gauge(
            "fleet_autoscale_pressure",
            "Worst shard inflight-window utilization at the last evaluation",
        )
        self._decision_counter = metrics.counter

    @property
    def stats(self) -> AutoscalerStats:
        """A consistent snapshot of the evaluation counters (by value)."""
        with self._stats_lock:
            return replace(self._stats)

    @property
    def is_running(self) -> bool:
        """Whether the daemon evaluation thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "Autoscaler":
        """Start the daemon evaluation thread (idempotent)."""
        if self.is_running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="fisone-autoscaler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Signal the evaluation thread to exit and join it."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "Autoscaler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _next_delay(self) -> float:
        jitter = self._rng.uniform(-self.jitter_fraction, self.jitter_fraction)
        return self.interval_s * (1.0 + jitter)

    def _run(self) -> None:
        # First wait before the first evaluation: a fleet that just
        # started has empty histograms and would read as idle.
        while not self._stop.wait(self._next_delay()):
            self.evaluate_once()

    def _in_cooldown(self, cooldown_s: float, now: float) -> bool:
        return self._last_change is not None and now - self._last_change < cooldown_s

    def evaluate_once(self) -> AutoscaleDecision:
        """One synchronous evaluation; returns the decision it made.

        Public so tests (and operators embedding the autoscaler in their
        own loop) can drive evaluations without waiting out the interval.
        Membership-change failures (fleet stopped mid-tick, spawn failed)
        are counted as ``failures`` and returned as holds — the daemon
        must keep evaluating, not die.
        """
        with self._evaluate_lock:
            return self._evaluate_locked()

    def _evaluate_locked(self) -> AutoscaleDecision:
        policy = self.policy
        with self._stats_lock:
            self._stats.ticks += 1
        pressures = self.fleet.pressure_snapshot()
        num_shards = self.fleet.num_live_shards
        pressure = max((p.utilization for p in pressures), default=0.0)
        p99_values = [p.p99_s for p in pressures if p.p99_s is not None]
        p99 = max(p99_values) if p99_values else None
        self._pressure_gauge.set(pressure)
        now = time.monotonic()
        over_budget = (
            policy.p99_budget_s is not None
            and p99 is not None
            and p99 > policy.p99_budget_s
        )
        wants_grow = pressure >= policy.scale_up_pressure or over_budget
        wants_shrink = pressure <= policy.scale_down_pressure and not over_budget

        if wants_grow and num_shards < policy.max_shards:
            if self._in_cooldown(policy.scale_up_cooldown_s, now):
                return self._hold(pressure, p99, num_shards, "grow in cooldown")
            try:
                entry = self.fleet.join_shard()
            except Exception as error:  # noqa: BLE001 - daemon must survive
                return self._failure(pressure, p99, num_shards, f"join failed: {error}")
            self._last_change = time.monotonic()
            return self._record(
                "grow",
                f"joined shard {entry!r} at pressure {pressure:.2f}",
                pressure,
                p99,
                num_shards,
            )

        if wants_shrink and num_shards > policy.min_shards and pressures:
            if self._in_cooldown(policy.scale_down_cooldown_s, now):
                return self._hold(pressure, p99, num_shards, "shrink in cooldown")
            victim = min(pressures, key=lambda p: (p.utilization, p.inflight))
            try:
                self.fleet.drain_shard(victim.entry)
            except Exception as error:  # noqa: BLE001 - daemon must survive
                return self._failure(
                    pressure, p99, num_shards, f"drain failed: {error}"
                )
            self._last_change = time.monotonic()
            return self._record(
                "shrink",
                f"drained shard {victim.entry!r} at pressure {pressure:.2f}",
                pressure,
                p99,
                num_shards,
            )

        if wants_grow:
            return self._hold(pressure, p99, num_shards, "at max_shards")
        if pressure <= policy.scale_down_pressure:
            return self._hold(pressure, p99, num_shards, "at min_shards")
        return self._hold(pressure, p99, num_shards, "pressure in dead band")

    def _record(
        self,
        action: str,
        reason: str,
        pressure: float,
        p99: Optional[float],
        num_shards: int,
    ) -> AutoscaleDecision:
        with self._stats_lock:
            if action == "grow":
                self._stats.grows += 1
            elif action == "shrink":
                self._stats.shrinks += 1
            else:
                self._stats.holds += 1
        self._decision_counter(
            "fleet_autoscale_decisions_total",
            "Autoscaler evaluations by resulting action",
            op=action,
        ).inc()
        return AutoscaleDecision(
            action=action,
            reason=reason,
            pressure=pressure,
            p99_s=p99,
            num_shards=num_shards,
        )

    def _hold(
        self, pressure: float, p99: Optional[float], num_shards: int, reason: str
    ) -> AutoscaleDecision:
        return self._record("hold", reason, pressure, p99, num_shards)

    def _failure(
        self, pressure: float, p99: Optional[float], num_shards: int, reason: str
    ) -> AutoscaleDecision:
        with self._stats_lock:
            self._stats.failures += 1
        return self._record("hold", reason, pressure, p99, num_shards)
