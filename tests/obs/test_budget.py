"""The frame-budget burn input to the overload controller, and the
controller's engine integration.

Burn is ``Δcpu_seconds / (Δframes * FRAME_BUDGET)`` over the frames
since the controller's previous tick, read from the engine's own
counters — so dark engines can run the controller too.  Tests force
brownout with a tiny ``burn_high`` and healing with a huge one.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.core.engine import EngineStats, ScidiveEngine
from repro.core.hooks import FootprintHook
from repro.experiments.harness import run_bye_attack
from repro.obs import Observability
from repro.resilience.overload import (
    FRAME_BUDGET,
    STATE_BROWNOUT,
    STATE_NORMAL,
    TRANSITION_RULE_PREFIX,
    OverloadConfig,
    StatsBurn,
)
from repro.voip.testbed import CLIENT_A_IP

OVERLOAD_ALERTS = {
    f"{TRANSITION_RULE_PREFIX}{state}"
    for state in ("BROWNOUT", "SHED", "RECOVERING", "NORMAL")
}


@pytest.fixture(scope="module")
def bye_records():
    return list(run_bye_attack(seed=7).testbed.ids_tap.trace)


def _feed(engine, records) -> None:
    for record in records:
        engine.process_frame(record.frame, record.timestamp)


class _FrameSeconds(FootprintHook):
    """Records every frame's process_frame seconds, as the engine adds
    them to ``stats.cpu_seconds``."""

    def __init__(self):
        self.seconds: list[float] = []

    def frame_done(self, seconds, frame_no, sim_time):
        self.seconds.append(seconds)


def _overload_alerts(engine) -> list[str]:
    return [
        a.rule_id for a in engine.alerts
        if a.rule_id.startswith(TRANSITION_RULE_PREFIX)
    ]


class TestDetector:
    def test_rejects_nonpositive_budget_and_tiny_window(self):
        assert FRAME_BUDGET > 0
        with pytest.raises(ValueError, match="burn_high"):
            OverloadConfig(burn_high=-1.0).validate()
        with pytest.raises(ValueError, match="tick_frames"):
            OverloadConfig(tick_frames=0).validate()
        with pytest.raises(ValueError, match="burn_high"):
            ScidiveEngine(overload=OverloadConfig(burn_high=-1.0))

    def test_quiet_engine_never_overloads(self, bye_records):
        engine = ScidiveEngine(
            vantage_ip=CLIENT_A_IP,
            overload=OverloadConfig(burn_high=1e3, tick_frames=16),
        )
        engine.process_trace(bye_records)
        controller = engine.overload.controller
        assert controller.ticks == len(bye_records) // 16
        assert controller.state == STATE_NORMAL
        assert 0.0 < controller.last_burn_rate < 1e3
        assert _overload_alerts(engine) == []

    def test_burn_rate_is_window_average_in_budgets(self, bye_records):
        # Burn at each tick is that tick's per-frame process_frame
        # seconds, summed, over tick_frames * FRAME_BUDGET.
        tick = 16
        recorder = _FrameSeconds()
        engine = ScidiveEngine(
            vantage_ip=CLIENT_A_IP, hook=recorder,
            overload=OverloadConfig(tick_frames=tick),
        )
        burns = []
        for record in bye_records:
            engine.process_frame(record.frame, record.timestamp)
            if engine.stats.frames % tick == 0:
                burns.append(engine.overload.controller.last_burn_rate)
        assert len(burns) == len(bye_records) // tick >= 3
        for k, burn in enumerate(burns):
            window = recorder.seconds[k * tick:(k + 1) * tick]
            assert burn == pytest.approx(
                sum(window) / (tick * FRAME_BUDGET), rel=1e-9
            )

    def test_partial_window_cannot_alert(self, bye_records):
        engine = ScidiveEngine(
            overload=OverloadConfig(burn_high=1e-6, tick_frames=16)
        )
        _feed(engine, bye_records[:15])
        assert engine.overload.controller.ticks == 0
        assert _overload_alerts(engine) == []
        _feed(engine, bye_records[15:16])
        assert _overload_alerts(engine) == [f"{TRANSITION_RULE_PREFIX}BROWNOUT"]

    def test_recovery_clears_overload(self, bye_records):
        config = OverloadConfig(
            burn_high=1e-6, tick_frames=16, dwell_ticks=1, recovery_ticks=1
        )
        engine = ScidiveEngine(overload=config)
        controller = engine.overload.controller
        _feed(engine, bye_records[:16])
        assert controller.state == STATE_BROWNOUT
        # The threshold rises far above any real burn: calm ticks heal.
        controller.config = dataclasses.replace(config, burn_high=1e9)
        _feed(engine, bye_records[16:48])
        assert controller.state == STATE_NORMAL
        assert controller.last_burn_rate < 1e9
        assert _overload_alerts(engine) == [
            f"{TRANSITION_RULE_PREFIX}{state}"
            for state in ("BROWNOUT", "RECOVERING", "NORMAL")
        ]

    def test_window_sum_tracks_evictions_exactly(self):
        # Only the frames since the previous sample count, owned and
        # shadow-mode alike.
        engine = SimpleNamespace(stats=EngineStats(), shadow_stats=EngineStats())
        burn = StatsBurn(engine)
        engine.stats.cpu_seconds, engine.stats.frames = 4 * FRAME_BUDGET, 4
        assert burn.sample() == pytest.approx(1.0)
        engine.stats.cpu_seconds, engine.stats.frames = 8 * FRAME_BUDGET, 5
        engine.shadow_stats.cpu_seconds = 4 * FRAME_BUDGET
        engine.shadow_stats.frames = 1
        # (8 + 4 - 4) budgets of seconds over (5 + 1 - 4) frames.
        assert burn.sample() == pytest.approx(4.0)
        assert burn.sample() == 0.0  # no frames since the last sample

    def test_shadow_frames_never_tick_the_controller(self, bye_records):
        # A replica swaps engine.stats for the shadow counters; the
        # controller must not sample mid-swap, but the next owned tick
        # still counts the replicas' CPU.
        recorder = _FrameSeconds()
        engine = ScidiveEngine(
            hook=recorder, overload=OverloadConfig(tick_frames=4)
        )
        overload = engine.overload
        for record in bye_records[:8]:
            engine.process_frame_shadow(record.frame, record.timestamp)
        assert engine.overload is overload
        assert overload.controller.ticks == 0
        assert engine.shadow_stats.frames == 8
        _feed(engine, bye_records[8:12])
        assert overload.controller.ticks == 1
        cpu = engine.stats.cpu_seconds + engine.shadow_stats.cpu_seconds
        assert overload.controller.last_burn_rate == pytest.approx(
            cpu / (12 * FRAME_BUDGET), rel=1e-9
        )

    def test_as_dict_is_json_safe_and_reset_zeroes(self, bye_records):
        tick = 16
        recorder = _FrameSeconds()
        engine = ScidiveEngine(
            hook=recorder, overload=OverloadConfig(tick_frames=tick)
        )
        _feed(engine, bye_records[:40])
        view = json.loads(json.dumps(engine.overload.as_dict()))
        assert view["state"] == STATE_NORMAL
        assert view["ticks"] == 2
        assert view["degraded_sampling"] is False
        assert view["burn_rate"] >= 0.0
        # Between phases the engine's counters reset; the next tick
        # measures the post-reset frames alone rather than going
        # negative against the old totals.
        engine.reset_detection_state()
        del recorder.seconds[:]
        _feed(engine, bye_records[40:48])
        assert engine.overload.controller.ticks == 3
        assert engine.overload.controller.last_burn_rate == pytest.approx(
            sum(recorder.seconds) / (8 * FRAME_BUDGET), rel=1e-9
        )


class TestEngineIntegration:
    def test_instrumented_engine_gets_default_budget(self):
        engine = ScidiveEngine(
            vantage_ip=CLIENT_A_IP,
            observability=Observability.create(trace=False),
        )
        assert engine.overload is not None
        assert engine.overload.controller.config == OverloadConfig()

    def test_dark_engine_has_no_detector(self):
        assert ScidiveEngine(vantage_ip=CLIENT_A_IP).overload is None

    def test_false_disables_the_controller(self):
        engine = ScidiveEngine(
            vantage_ip=CLIENT_A_IP,
            observability=Observability.create(trace=False),
            overload=False,
        )
        assert engine.overload is None
        dark = ScidiveEngine(vantage_ip=CLIENT_A_IP, overload=True)
        assert dark.overload.controller.config == OverloadConfig()

    def test_dark_engine_reaches_brownout(self, bye_records):
        engine = ScidiveEngine(
            vantage_ip=CLIENT_A_IP,
            overload=OverloadConfig(burn_high=1e-6, tick_frames=16),
        )
        assert not engine.metrics_enabled
        engine.process_trace(bye_records)
        assert engine.overload.controller.state == STATE_BROWNOUT
        assert f"{TRANSITION_RULE_PREFIX}BROWNOUT" in _overload_alerts(engine)
        # Overload alerts are self-diagnostics; detection still ran.
        assert engine.alerts_for_rule("BYE-001")

    def test_impossible_budget_emits_self_overload_alert(self, bye_records):
        ctx = Observability.create(trace=False)
        engine = ScidiveEngine(
            vantage_ip=CLIENT_A_IP, observability=ctx,
            overload=OverloadConfig(burn_high=1e-6, tick_frames=16),
        )
        engine.process_trace(bye_records)
        overloads = [a for a in engine.alerts if a.rule_id in OVERLOAD_ALERTS]
        assert overloads, "overload controller never fired"
        assert {a.rule_id for a in engine.alerts
                if a.rule_id.startswith("SELF-OVERLOAD")} <= OVERLOAD_ALERTS
        assert all(a.attack_class == "self-diagnostic" for a in overloads)
        # The registry's burn-rate gauge reflects the controller's last
        # tick once the engine snapshots its gauges (process_trace does).
        families = ctx.registry.get("scidive_frame_budget_burn_rate")
        child = families.labels(engine=engine.name)
        assert child.value == engine.overload.controller.last_burn_rate > 0.0
