"""Overload control on the cluster: shed ordering across backends, the
penalty box's door-drop, and degraded-mode detection under a flood.

The tentpole invariant, stated twice at two levels:

* **unit** — ``_shed_under_pressure`` on a wedged queue drops planes in
  strict penalty-box order and always returns the innocent signalling
  remainder for blocking delivery, whatever the backend;
* **integration** — a flooded run on every backend sheds only the
  adjudicated-heavy source (the door-drop pseudo-plane), keeps every
  innocent frame, and still raises the paper attack's alert.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ScidiveCluster
from repro.cluster.sharding import PLANE_MEDIA, PLANE_SIGNALLING
from repro.core.engine import ScidiveEngine
from repro.experiments.harness import run_bye_attack
from repro.resilience.chaos import _FLOOD_IP, _flood_frames
from repro.obs import Observability, parse_prometheus
from repro.resilience.overload import OverloadConfig
from repro.voip.testbed import CLIENT_A_IP

FLOOD_SOURCE = str(_FLOOD_IP)

_TRACE = None


def _bye_trace():
    global _TRACE
    if _TRACE is None:
        _TRACE = run_bye_attack(seed=7).testbed.ids_tap.trace
    return _TRACE


def _flooded_stream(flood_frames: int):
    """The bye-attack capture with a uniform flood interleave."""
    records = [(r.frame, r.timestamp) for r in _bye_trace().records]
    flood = _flood_frames(random.Random(3), flood_frames)
    stream = []
    sent = 0
    for index, (frame, ts) in enumerate(records):
        stream.append((frame, ts))
        quota = (index + 1) * len(flood) // len(records)
        while sent < quota:
            stream.append((flood[sent], ts))
            sent += 1
    return stream


def _overload_cluster(backend: str) -> ScidiveCluster:
    return ScidiveCluster(
        workers=2,
        backend=backend,
        batch_size=16,
        vantage_ip=CLIENT_A_IP,
        queue_depth=8,
        overflow="block",
        overload_enabled=True,
        overload_config=OverloadConfig(
            tick_frames=64, hot_min=32, dwell_ticks=2, recovery_ticks=2
        ),
    )


class TestShedOrderingAcrossBackends:
    @pytest.mark.parametrize("backend", ["serial", "threads", "process"])
    def test_innocent_frames_survive_a_flood(self, backend):
        cluster = _overload_cluster(backend)
        cluster.start()
        for frame, ts in _flooded_stream(3000):
            cluster.submit_frame(frame, ts)
        result = cluster.stop()

        stats = result.cluster
        # Blocking queues mean the only shedding is the penalty box's
        # door-drop of the heavy source: no plane of innocent traffic
        # (signalling above all) ever appears in the shed accounting.
        assert set(stats.frames_shed) <= {"penalty-box"}
        assert PLANE_SIGNALLING not in stats.frames_shed
        assert PLANE_MEDIA not in stats.frames_shed
        assert set(stats.shed_by_source) <= {FLOOD_SOURCE}
        # Degraded-mode detection guarantee: the paper attack's alert
        # survives the flood on every backend.
        assert any(a.rule_id == "BYE-001" for a in result.alerts)

    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_queued_backends_reach_shed_and_name_the_flooder(self, backend):
        # Serial has no queues, so fill never rises; the queued backends
        # must escalate to shed and door-drop the flooding source.
        cluster = _overload_cluster(backend)
        cluster.start()
        for frame, ts in _flooded_stream(3000):
            cluster.submit_frame(frame, ts)
        result = cluster.stop()
        status = cluster.overload_status()

        assert any(
            key.endswith("->shed") for key in status["transitions_total"]
        ), status["transitions_total"]
        assert result.cluster.frames_shed.get("penalty-box", 0) > 0
        assert result.cluster.shed_by_source.get(FLOOD_SOURCE, 0) > 0
        hot = dict(status["sources"]["hot_sources"])
        assert FLOOD_SOURCE in hot
        # The transitions were announced as self-diagnostic alerts.
        assert any(
            a.rule_id == "SELF-OVERLOAD-SHED" for a in result.alerts
        )

    def test_health_and_status_expose_the_plane(self):
        cluster = _overload_cluster("threads")
        cluster.start()
        for frame, ts in _flooded_stream(1500):
            cluster.submit_frame(frame, ts)
        health = cluster.health()
        assert "overload" in health
        assert health["overload"]["state"] in (
            "normal", "brownout", "shed", "recovering"
        )
        assert "shed_by_source" in health["overload"]
        cluster.stop()


class _WedgedQueue:
    """A queue whose put_nowait always refuses — permanent pressure."""

    def put_nowait(self, message):
        import queue

        raise queue.Full


class _WedgedWorker:
    def __init__(self):
        self.in_q = _WedgedQueue()


def _item(source_ip: bytes, plane: str):
    # Pending-queue shape: (frame, ts, owner, plane, trace_id); the shed
    # path reads frame[26:30] (the IPv4 source) and the plane tag.
    frame = bytes(26) + source_ip + bytes(8)
    return (frame, 0.0, True, plane, "")


class TestShedUnderPressureOrdering:
    HEAVY = b"\x0a\x42\x42\x63"
    INNOCENT = b"\x0a\x64\x00\x05"

    def _pressured_cluster(self) -> ScidiveCluster:
        cluster = _overload_cluster("threads")
        cluster.start()
        # Adjudicate HEAVY before staging any drops.
        for _ in range(200):
            cluster.accountant.record(self.HEAVY)
        return cluster

    def test_signalling_never_shed_while_media_remains(self):
        cluster = self._pressured_cluster()
        try:
            items = [
                _item(self.HEAVY, PLANE_MEDIA),
                _item(self.INNOCENT, PLANE_MEDIA),
                _item(self.HEAVY, PLANE_SIGNALLING),
                _item(self.INNOCENT, PLANE_SIGNALLING),
            ]
            remainder = cluster._shed_under_pressure(_WedgedWorker(), items)
            stats = cluster.cluster_stats
            # Both media items shed (heavy first, then innocent);
            # outside the shed state every signalling item survives.
            assert stats.frames_shed.get(PLANE_MEDIA, 0) == 2
            assert PLANE_SIGNALLING not in stats.frames_shed
            planes = {item[3] for item in remainder}
            assert planes == {PLANE_SIGNALLING}
            assert len(remainder) == 2
        finally:
            cluster.stop()

    def test_shed_state_drops_heavy_signalling_but_never_innocent(self):
        cluster = self._pressured_cluster()
        try:
            cluster.overload.state = "shed"
            items = [
                _item(self.HEAVY, PLANE_MEDIA),
                _item(self.HEAVY, PLANE_SIGNALLING),
                _item(self.INNOCENT, PLANE_SIGNALLING),
            ]
            remainder = cluster._shed_under_pressure(_WedgedWorker(), items)
            stats = cluster.cluster_stats
            assert stats.frames_shed.get(PLANE_SIGNALLING, 0) == 1
            # Both heavy drops are attributed to the heavy source;
            # nothing is attributed to the innocent one.
            assert stats.shed_by_source == {"10.66.66.99": 2}
            # The one survivor is the innocent subscriber's signalling.
            assert len(remainder) == 1
            assert bytes(remainder[0][0][26:30]) == self.INNOCENT
        finally:
            cluster.stop()


class TestSerialBurnAndBrownout:
    """The serial backend runs engines in-process: the router's
    controller reads each worker's burn from its counters and browns
    the live instrumentation out through the shared routine."""

    def test_burn_drives_brownout_on_real_worker_hooks(self):
        cluster = ScidiveCluster(
            workers=2,
            backend="serial",
            batch_size=8,
            vantage_ip=CLIENT_A_IP,
            metrics_enabled=True,
            overload_enabled=True,
            overload_config=OverloadConfig(burn_high=1e-6, tick_frames=16),
        )
        cluster.start()
        engines = [worker.engine for worker in cluster._workers]
        # One controller per cluster: the workers carry none.
        assert all(engine.overload is None for engine in engines)
        assert {engine._hook.summary_every for engine in engines} == {4}
        for record in _bye_trace():
            cluster.submit_frame(record.frame, record.timestamp)
        assert cluster.overload.state == "brownout"
        assert cluster.overload.last_burn_rate > 0.0
        for engine in engines:
            assert engine._hook.summary_every == 64
            assert engine.ruleset.cost_sample_rate == 0
        result = cluster.stop()
        overloads = [
            a.rule_id for a in result.alerts if a.rule_id.startswith("SELF-OVERLOAD")
        ]
        assert overloads == ["SELF-OVERLOAD-BROWNOUT"]
        assert any(a.rule_id == "BYE-001" for a in result.alerts)


def _instrumented_factory(worker_id, config):
    """A custom factory that leaves ``overload`` at its default, which
    is on for an instrumented engine."""
    return ScidiveEngine(
        vantage_ip=config.vantage_ip, name=f"worker-{worker_id}",
        observability=Observability.create(trace=False),
    )


class TestWorkerBurnGauge:
    """Workers carry no controller, yet each still exports its own
    frame-budget burn: on queued backends that gauge is the only burn
    signal, so it must not sit at a constant 0."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_every_worker_exports_a_moving_burn(self, backend):
        cluster = ScidiveCluster(
            workers=2, backend=backend, vantage_ip=CLIENT_A_IP,
            metrics_enabled=True,
        )
        result = cluster.process_trace(_bye_trace())
        families = parse_prometheus(result.registry.render_prometheus())
        burns = families["scidive_frame_budget_burn_rate"]
        for worker in ("worker-0", "worker-1"):
            [value] = [v for k, v in burns.items() if f'engine="{worker}"' in k]
            assert value > 0.0

    def test_custom_factory_engines_lose_their_controller(self):
        cluster = ScidiveCluster(
            workers=2, backend="serial", vantage_ip=CLIENT_A_IP,
            engine_factory=_instrumented_factory, overload_enabled=True,
        )
        cluster.start()
        try:
            engines = [worker.engine for worker in cluster._workers]
            assert all(e.metrics_enabled for e in engines)
            assert all(e.overload is None for e in engines)
        finally:
            cluster.stop()
