"""Closed-loop overload control: adaptive shedding with degraded-mode
detection guarantees under VoIP floods.

A stateful IDS is exactly what dies first under volumetric load: one
shed INVITE or BYE silences a whole dialog's worth of state, so a flood
doesn't just stress the cluster — it blinds the detector at the moment
an attacker most wants it blind.  The static ``overflow="block"|"drop"``
choice is not a policy: block stalls the router behind the flood, drop
sheds media-first with no feedback, no recovery hysteresis and no
accounting of what detection was given up.

This module closes the loop, and it is the only place overload is
decided and announced.  An :class:`OverloadController` samples queue
fill, the frame-budget *burn rate* and shed counters once per tick and
drives an explicit state machine::

    normal -> brownout -> shed -> recovering -> normal

with hysteresis on both edges (enter thresholds are higher than exit
thresholds, and de-escalation requires a *dwell* of consecutive calm
ticks) so the system never flaps.  Escalation is immediate — pressure
is an emergency; calm is only trusted after it persists.

Burn is an input signal, not a detector of its own: the engine CPU
seconds spent since the last tick divided by (frames processed since the
last tick × :data:`FRAME_BUDGET`), read from the
:class:`~repro.core.engine.EngineStats` counters every engine keeps,
dark or instrumented.  A burn of 1.0 means the engine spends exactly
its per-frame allowance.

Degraded-mode policy, in escalation order:

* **brownout** — expensive optional work goes first: span tracing,
  rule cost sampling and sketch sampling are floored, nothing is dropped;
* **shed** — non-signalling frames are dropped through the plane-aware
  path, *guarded by a per-source penalty box*: a count-min-sketch
  heavy-hitter accountant (:class:`SourceAccountant`) identifies
  flooding sources so their frames shed preferentially, and only
  adjudicated-heavy sources may ever lose signalling.  Innocent
  subscribers' signalling is never shed — the attacker's traffic
  degrades before the victim's detection does;
* **recovering** — pressure has subsided; optional work stays floored
  for ``recovery_ticks`` calm ticks, then the controller returns to
  ``normal`` and every degraded knob heals.

Every transition emits a ``SELF-OVERLOAD-<STATE>`` self-diagnostic
alert carrying the evidence (previous state, trigger metric, top-k
heavy sources), through the same sink as every other self-diagnostic —
overload is an alert, not a log line.

A controller has one of two owners: the cluster router
(:class:`~repro.cluster.ScidiveCluster`, whose workers run without one)
or a single engine (:class:`EngineOverload`, ``engine.overload``).
Both degrade in-process engines through :func:`apply_degradation`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.alerts import Alert, Severity

# State names double as the /healthz strings and the metric label values.
STATE_NORMAL = "normal"
STATE_BROWNOUT = "brownout"
STATE_SHED = "shed"
STATE_RECOVERING = "recovering"
OVERLOAD_STATES: tuple[str, ...] = (
    STATE_NORMAL,
    STATE_BROWNOUT,
    STATE_SHED,
    STATE_RECOVERING,
)
# Gauge encoding for scidive_overload_state (stable, documented order).
STATE_VALUES: dict[str, int] = {state: i for i, state in enumerate(OVERLOAD_STATES)}

# Self-diagnostic rule-id prefix: SELF-OVERLOAD-BROWNOUT, SELF-OVERLOAD-SHED,
# SELF-OVERLOAD-RECOVERING, SELF-OVERLOAD-NORMAL — the only overload alerts.
TRANSITION_RULE_PREFIX = "SELF-OVERLOAD-"

_TRANSITION_SEVERITY: dict[str, Severity] = {
    STATE_NORMAL: Severity.INFO,
    STATE_BROWNOUT: Severity.HIGH,
    STATE_SHED: Severity.CRITICAL,
    STATE_RECOVERING: Severity.MEDIUM,
}

_TRANSITION_LOG_LIMIT = 64

# Per-frame CPU allowance (s): burn rates are in units of this budget.
FRAME_BUDGET = 0.005


@dataclass(frozen=True, slots=True)
class OverloadConfig:
    """Thresholds and dwell times for one controller.

    Enter thresholds (``queue_high``, ``shed_high``, ``burn_high``) sit
    above the exit threshold (``queue_low``); de-escalation additionally
    requires ``dwell_ticks`` consecutive calm ticks, and ``recovering``
    holds for ``recovery_ticks`` more before ``normal`` — the two-sided
    hysteresis that keeps the state machine from flapping.
    """

    tick_frames: int = 256        # controller samples every N routed frames
    queue_high: float = 0.60      # fill fraction that enters brownout
    queue_low: float = 0.20       # fill fraction trusted as calm
    shed_high: float = 0.90       # fill fraction that enters shed
    burn_high: float = 1.5        # budget burn rate that enters brownout
    dwell_ticks: int = 3          # calm ticks before leaving brownout/shed
    recovery_ticks: int = 2       # calm ticks in recovering before normal
    shed_rate_low: float = 0.02   # dropped/tick_frames fraction still counted as pressure
    hot_share: float = 0.10       # share of the sketch window marking a heavy hitter
    hot_min: int = 64             # absolute frame floor for heaviness
    sketch_width: int = 1024
    sketch_depth: int = 4
    sketch_window: int = 8192     # frames between count decays
    top_k: int = 5                # heavy sources quoted in alerts/healthz

    def validate(self) -> "OverloadConfig":
        if self.tick_frames < 1:
            raise ValueError(f"tick_frames must be >= 1 (got {self.tick_frames})")
        if not 0.0 < self.queue_low < self.queue_high <= self.shed_high <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < queue_low < queue_high <= "
                f"shed_high <= 1 (got {self.queue_low}, {self.queue_high}, "
                f"{self.shed_high})"
            )
        if self.burn_high < 0:
            raise ValueError(f"burn_high must be >= 0 (got {self.burn_high})")
        if self.dwell_ticks < 1 or self.recovery_ticks < 1:
            raise ValueError("dwell_ticks and recovery_ticks must be >= 1")
        if self.shed_rate_low < 0:
            raise ValueError(
                f"shed_rate_low must be >= 0 (got {self.shed_rate_low})"
            )
        if not 0.0 < self.hot_share <= 1.0:
            raise ValueError(f"hot_share must be in (0, 1] (got {self.hot_share})")
        if self.hot_min < 1:
            raise ValueError(f"hot_min must be >= 1 (got {self.hot_min})")
        if self.sketch_width < 16 or self.sketch_depth < 1:
            raise ValueError("sketch must be at least 16 wide and 1 deep")
        if self.sketch_window < self.hot_min:
            raise ValueError("sketch_window must be >= hot_min")
        return self


class CountMinSketch:
    """Fixed-memory frequency estimates over an unbounded key space.

    ``depth`` rows of ``width`` counters, each row indexed by a
    crc32 with a distinct salt; an estimate is the minimum across rows
    (classic Cormode–Muthukrishnan, over-counts but never under-counts).
    Memory is ``width * depth`` ints regardless of how many sources a
    flood spoofs — the property that makes per-source accounting safe
    to leave on in production.
    """

    __slots__ = ("width", "depth", "rows", "total")

    def __init__(self, width: int = 1024, depth: int = 4) -> None:
        self.width = width
        self.depth = depth
        self.rows: list[list[int]] = [[0] * width for _ in range(depth)]
        self.total = 0

    def add(self, key: bytes, count: int = 1) -> int:
        """Count ``key`` and return its new (over-)estimate."""
        self.total += count
        estimate = None
        for salt, row in enumerate(self.rows):
            slot = zlib.crc32(key, salt * 0x9E3779B1) % self.width
            row[slot] += count
            if estimate is None or row[slot] < estimate:
                estimate = row[slot]
        return estimate or 0

    def estimate(self, key: bytes) -> int:
        return min(
            row[zlib.crc32(key, salt * 0x9E3779B1) % self.width]
            for salt, row in enumerate(self.rows)
        )

    def halve(self) -> None:
        """Exponential decay: old traffic ages out of the window."""
        for row in self.rows:
            for i, value in enumerate(row):
                if value:
                    row[i] = value >> 1
        self.total >>= 1


def format_source(source: bytes) -> str:
    if len(source) == 4:
        return ".".join(str(b) for b in source)
    return source.hex() or "?"


class SourceAccountant:
    """Per-source heavy-hitter accounting for the penalty box.

    Every routed frame's source address feeds the sketch; a source is
    *heavy* once its windowed estimate clears both an absolute floor
    (``hot_min``) and a share of the window (``hot_share``) — the
    two-part test keeps a busy-but-proportionate subscriber out of the
    penalty box while a flooding source trips it within one window.
    Candidates that ever crossed the threshold are tracked exactly (a
    small dict) so alerts and ``/healthz`` can quote the top-k without
    walking the sketch.
    """

    __slots__ = ("config", "sketch", "frames", "_since_decay", "_candidates")

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.sketch = CountMinSketch(config.sketch_width, config.sketch_depth)
        self.frames = 0
        self._since_decay = 0
        self._candidates: dict[bytes, int] = {}

    def _floor(self) -> int:
        return max(self.config.hot_min,
                   int(self.sketch.total * self.config.hot_share))

    def record(self, source: bytes) -> None:
        self.frames += 1
        estimate = self.sketch.add(source)
        if estimate >= self._floor():
            self._candidates[source] = estimate
        self._since_decay += 1
        if self._since_decay >= self.config.sketch_window:
            self._since_decay = 0
            self.sketch.halve()
            floor = self._floor()
            survivors = {}
            for key in self._candidates:
                estimate = self.sketch.estimate(key)
                if estimate >= floor:
                    survivors[key] = estimate
            self._candidates = survivors

    def is_heavy(self, source: bytes) -> bool:
        if source not in self._candidates:
            return False
        return self.sketch.estimate(source) >= self._floor()

    def top_sources(self, k: int | None = None) -> list[tuple[str, int]]:
        k = k if k is not None else self.config.top_k
        ranked = sorted(
            ((key, self.sketch.estimate(key)) for key in self._candidates),
            key=lambda pair: pair[1],
            reverse=True,
        )
        return [(format_source(key), count) for key, count in ranked[:k]]

    def as_dict(self) -> dict:
        return {
            "frames": self.frames,
            "window_total": self.sketch.total,
            "hot_floor": self._floor(),
            "hot_sources": self.top_sources(),
        }


def shed_plan(
    items: Sequence,
    is_heavy: Callable,
    is_signalling: Callable,
    allow_heavy_signalling: bool = False,
) -> tuple[list[list], list]:
    """Partition queued items into penalty-box shed stages.

    Returns ``(stages, protected)``: ``stages`` in strict drop order —
    heavy-source non-signalling first, innocent non-signalling second,
    heavy-source signalling last and only when
    ``allow_heavy_signalling`` (the controller is in ``shed``).
    ``protected`` (innocent signalling, plus heavy signalling outside
    shed) is never dropped; callers deliver it blocking.

    Pure over the two predicates so the ordering invariants — media
    sheds before any signalling, and no innocent frame is dropped at a
    stage before every heavy frame of the same plane class — are
    directly property-testable.
    """
    heavy_other: list = []
    innocent_other: list = []
    heavy_signalling: list = []
    protected: list = []
    for item in items:
        signalling = is_signalling(item)
        heavy = is_heavy(item)
        if signalling:
            if heavy and allow_heavy_signalling:
                heavy_signalling.append(item)
            else:
                protected.append(item)
        elif heavy:
            heavy_other.append(item)
        else:
            innocent_other.append(item)
    return [heavy_other, innocent_other, heavy_signalling], protected


class OverloadController:
    """The per-tick state machine; one per cluster or engine."""

    __slots__ = (
        "config", "name", "emit_alert", "state", "ticks",
        "transitions_total", "transition_log", "last_queue_fill",
        "last_burn_rate", "last_shed_rate", "last_trigger",
        "_calm_streak", "_entered_tick",
    )

    def __init__(
        self,
        config: OverloadConfig | None = None,
        name: str = "cluster",
        emit_alert: Callable[[Alert], None] | None = None,
    ) -> None:
        self.config = (config or OverloadConfig()).validate()
        self.name = name
        self.emit_alert = emit_alert
        self.state = STATE_NORMAL
        self.ticks = 0
        self.transitions_total: dict[str, int] = {}
        self.transition_log: list[dict] = []
        self.last_queue_fill = 0.0
        self.last_burn_rate = 0.0
        self.last_shed_rate = 0.0
        self.last_trigger = ""
        self._calm_streak = 0
        self._entered_tick = 0

    # -- degraded-mode queries (read on hot paths; keep them cheap) ----------

    @property
    def degraded(self) -> bool:
        """Optional work (tracing, dense sampling) should be off."""
        return self.state != STATE_NORMAL

    @property
    def shedding(self) -> bool:
        """Heavy-source frames may be dropped proactively."""
        return self.state == STATE_SHED

    # -- the tick -------------------------------------------------------------

    def observe(
        self,
        timestamp: float,
        queue_fill: float,
        burn_rate: float = 0.0,
        shed_rate: float = 0.0,
        top_sources: Iterable[tuple[str, int]] = (),
    ) -> Alert | None:
        """One controller tick; returns the transition alert, if any.

        ``queue_fill`` is the worst per-worker fill fraction (0..1);
        ``burn_rate`` the frame-budget burn where in-process engines
        make it observable (serial backend, single engine) — queued
        backends drive on queue fill alone; ``shed_rate`` the frames
        dropped this tick divided by ``tick_frames``.  The shed rate is
        what keeps the controller honest *while shedding works*: the
        penalty box drains the queue, so fill alone would read as calm
        mid-flood and the state machine would flap — ongoing drops are
        pressure, whatever the queue says.
        """
        self.ticks += 1
        self.last_queue_fill = queue_fill
        self.last_burn_rate = burn_rate
        self.last_shed_rate = shed_rate
        config = self.config
        want_shed = queue_fill >= config.shed_high
        burning = config.burn_high > 0 and burn_rate >= config.burn_high
        shedding = shed_rate > 0 and shed_rate >= config.shed_rate_low
        pressured = (
            want_shed or queue_fill >= config.queue_high or burning or shedding
        )
        calm = queue_fill <= config.queue_low and not burning and not shedding

        state = self.state
        new_state = None
        if state != STATE_SHED and want_shed:
            new_state = STATE_SHED
        elif state in (STATE_NORMAL, STATE_RECOVERING) and pressured:
            new_state = STATE_BROWNOUT
        elif state == STATE_BROWNOUT:
            if calm:
                self._calm_streak += 1
                if self._calm_streak >= config.dwell_ticks:
                    new_state = STATE_RECOVERING
            else:
                self._calm_streak = 0
        elif state == STATE_SHED:
            if not want_shed and not shedding:
                self._calm_streak += 1
                if self._calm_streak >= config.dwell_ticks:
                    new_state = STATE_BROWNOUT if pressured else STATE_RECOVERING
            else:
                self._calm_streak = 0
        elif state == STATE_RECOVERING:
            if calm:
                self._calm_streak += 1
                if self._calm_streak >= config.recovery_ticks:
                    new_state = STATE_NORMAL

        if new_state is None or new_state == state:
            return None
        trigger = self._describe_trigger(
            queue_fill, burn_rate, shed_rate, want_shed, burning, shedding
        )
        return self._transition(timestamp, new_state, trigger, list(top_sources))

    def _describe_trigger(
        self,
        queue_fill: float,
        burn_rate: float,
        shed_rate: float,
        want_shed: bool,
        burning: bool,
        shedding: bool,
    ) -> str:
        config = self.config
        if want_shed:
            return f"queue fill {queue_fill:.2f} >= shed_high {config.shed_high:g}"
        if queue_fill >= config.queue_high:
            return f"queue fill {queue_fill:.2f} >= queue_high {config.queue_high:g}"
        if burning:
            return f"burn rate {burn_rate:.2f} >= burn_high {config.burn_high:g}"
        if shedding:
            return (
                f"shed rate {shed_rate:.2f} >= shed_rate_low "
                f"{config.shed_rate_low:g}"
            )
        return (
            f"calm for {self._calm_streak} tick(s) "
            f"(queue fill {queue_fill:.2f}, burn {burn_rate:.2f})"
        )

    def _transition(
        self,
        timestamp: float,
        new_state: str,
        trigger: str,
        top_sources: list[tuple[str, int]],
    ) -> Alert:
        old_state = self.state
        self.state = new_state
        self._calm_streak = 0
        self._entered_tick = self.ticks
        self.last_trigger = trigger
        key = f"{old_state}->{new_state}"
        self.transitions_total[key] = self.transitions_total.get(key, 0) + 1
        record = {
            "tick": self.ticks,
            "time": timestamp,
            "from": old_state,
            "to": new_state,
            "trigger": trigger,
            "top_sources": top_sources,
        }
        self.transition_log.append(record)
        del self.transition_log[:-_TRANSITION_LOG_LIMIT]
        alert = self._transition_alert(timestamp, old_state, new_state,
                                       trigger, top_sources)
        if self.emit_alert is not None:
            self.emit_alert(alert)
        return alert

    def _transition_alert(
        self,
        timestamp: float,
        old_state: str,
        new_state: str,
        trigger: str,
        top_sources: list[tuple[str, int]],
    ) -> Alert:
        sources = ", ".join(f"{ip}({count})" for ip, count in top_sources)
        return Alert(
            rule_id=f"{TRANSITION_RULE_PREFIX}{new_state.upper()}",
            rule_name="self-diagnostic: overload controller transition",
            time=timestamp,
            session="",
            severity=_TRANSITION_SEVERITY[new_state],
            attack_class="self-diagnostic",
            message=(
                f"{self.name!r} overload state {old_state} -> {new_state} "
                f"at tick {self.ticks}: {trigger}"
                + (f"; top sources: {sources}" if sources else "")
            ),
        )

    def as_dict(self) -> dict:
        """The /healthz and ``repro stats`` view."""
        return {
            "state": self.state,
            "state_value": STATE_VALUES[self.state],
            "ticks": self.ticks,
            "ticks_in_state": self.ticks - self._entered_tick,
            "queue_fill": round(self.last_queue_fill, 4),
            "burn_rate": round(self.last_burn_rate, 4),
            "shed_rate": round(self.last_shed_rate, 4),
            "last_trigger": self.last_trigger,
            "transitions_total": dict(sorted(self.transitions_total.items())),
            "transitions": list(self.transition_log[-8:]),
        }


# Summary-sketch stride while degraded: 1-in-64 frames.
DEGRADED_SUMMARY_EVERY = 64


def apply_degradation(engine, degraded: bool, saved: tuple | None) -> tuple | None:
    """The brownout policy for one in-process engine.

    While ``degraded``, floor the optional work the hot path reads per
    frame: per-rule cost sampling off and the live
    :class:`~repro.obs.instrument.InstrumentationHook`'s summary stride
    widened to 1-in-:data:`DEGRADED_SUMMARY_EVERY`.  ``saved`` is what
    the previous call returned: None while nothing is degraded, else the
    original ``(cost_sample_rate, summary_every)``, which is restored on
    the first call that is no longer ``degraded``.  Returns the new
    ``saved`` for the caller to keep.
    """
    hook = engine._hook if engine._instr is not None else None
    ruleset = engine.ruleset
    if degraded and saved is None:
        saved = (
            ruleset.cost_sample_rate,
            hook.summary_every if hook is not None else 1,
        )
        ruleset.cost_sample_rate = 0
        if hook is not None:
            hook.summary_every = max(hook.summary_every, DEGRADED_SUMMARY_EVERY)
    elif not degraded and saved is not None:
        ruleset.cost_sample_rate = saved[0]
        if hook is not None:
            hook.summary_every = saved[1]
        saved = None
    return saved


class StatsBurn:
    """Burn since the last sample — ``Δcpu_seconds / (Δframes *
    FRAME_BUDGET)`` — from an engine's own frame/CPU counters (owned
    plus shadow-mode frames: replicas cost CPU too).  Sample between
    frames, never inside :meth:`ScidiveEngine.process_frame_shadow`,
    which swaps ``engine.stats`` for the shadow counters."""

    __slots__ = ("engine", "_cpu", "_frames")

    def __init__(self, engine) -> None:
        self.engine = engine
        self._cpu = 0.0
        self._frames = 0

    def sample(self) -> float:
        stats, shadow = self.engine.stats, self.engine.shadow_stats
        cpu = stats.cpu_seconds + shadow.cpu_seconds
        frames = stats.frames + shadow.frames
        if frames < self._frames:
            # Counters were reset between phases: measure from zero.
            self._cpu, self._frames = 0.0, 0
        delta = frames - self._frames
        burn = (cpu - self._cpu) / (delta * FRAME_BUDGET) if delta else 0.0
        self._cpu, self._frames = cpu, frames
        return burn


class EngineOverload:
    """Single-engine harness: drives a controller off the engine's own
    burn rate and degrades/restores its optional work.

    The engine owns one as ``engine.overload`` (see its ``overload=``
    parameter) and calls ``record_frame`` once per processed frame; the
    controller ticks every ``tick_frames`` with the burn of the frames
    since the previous tick, then :func:`apply_degradation` floors or
    heals the engine's optional work.
    """

    def __init__(self, engine, config: OverloadConfig | None = None) -> None:
        self.engine = engine
        self.controller = OverloadController(
            config=config,
            name=engine.name,
            emit_alert=engine._emit_self_alert,
        )
        self.frames = 0
        self._burn = StatsBurn(engine)
        self._saved_rates: tuple | None = None

    def record_frame(self, timestamp: float) -> None:
        self.frames += 1
        config = self.controller.config
        if self.frames % config.tick_frames:
            return
        burn = self._burn.sample()
        self.controller.observe(timestamp, queue_fill=0.0, burn_rate=burn)
        self._saved_rates = apply_degradation(
            self.engine, self.controller.degraded, self._saved_rates
        )

    def as_dict(self) -> dict:
        view = self.controller.as_dict()
        view["degraded_sampling"] = self._saved_rates is not None
        return view
