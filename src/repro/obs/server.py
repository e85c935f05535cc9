"""Live health/metrics sidecar: ``/metrics``, ``/healthz``, ``/alerts``,
``/metrics/history``, plus ``POST /rules/reload`` for rule-pack hot swap.

A stdlib ``http.server`` thread that exposes the running engine (or
cluster) while a replay/scenario is in flight — the operational
counterpart of the post-run ``--metrics-out`` snapshot.  No third-party
dependencies: Prometheus scrapes the text exposition, humans curl the
JSON endpoints, ``repro top`` polls ``/healthz`` + ``/metrics/history``.

The :class:`StatusSource` indirection exists because the interesting
objects appear at different times: the CLI binds the global metrics
registry before the run starts (metrics live mid-run), the engine as
soon as the harness returns it, the cluster before ``process_trace``.
Every handler reads whatever is bound *now*, so early probes get an
honest ``{"status": "starting"}`` rather than a connection error.

The server owns a background sampler thread that records one
:class:`~repro.obs.history.MetricsHistory` snapshot per
``history_interval`` seconds, so the history fills itself for as long
as the sidecar is up — no cooperation from the replay loop required.
"""

from __future__ import annotations

import json
import threading
import time as _time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs

from repro.obs.history import DEFAULT_INTERVAL, MetricsHistory
from repro.obs.registry import DEFAULT_QUANTILES, MetricsRegistry
from repro.obs.tracing import sort_timeline

DEFAULT_ALERT_LIMIT = 50
DEFAULT_TRACE_LIMIT = 200


def _quantile_view(
    registry: MetricsRegistry | None, name: str, by: str | None = None
) -> dict | None:
    """Quantile read-out of one summary family, aggregated across label
    sets (``by=None``) or grouped by one label (e.g. ``by="stage"``).

    Aggregation merges sketch copies, so the numbers match what a
    cluster roll-up of the same children would report.  Returns None
    when the family is absent or empty — health views simply omit it.
    """
    if registry is None:
        return None
    metric = registry.get(name)
    if metric is None or metric.typename != "summary":
        return None
    if by is None:
        agg = metric._new_child()
        for child in metric._children.values():
            agg._merge(child)
        return _quantile_dict(agg, metric) if agg.count else None
    if by not in metric.labelnames:
        return None
    idx = metric.labelnames.index(by)
    groups: dict[str, Any] = {}
    for key, child in metric._children.items():
        agg = groups.get(key[idx])
        if agg is None:
            agg = groups[key[idx]] = metric._new_child()
        agg._merge(child)
    out = {
        group: _quantile_dict(agg, metric)
        for group, agg in sorted(groups.items())
        if agg.count
    }
    return out or None


def _quantile_dict(child: Any, metric: Any) -> dict[str, float]:
    view = {
        f"p{int(q * 100)}": child.quantile(q) for q in DEFAULT_QUANTILES
    }
    view["count"] = child.count
    view["mean"] = child.sum / child.count if child.count else 0.0
    return view


class StatusSource:
    """Settable references to whatever should be served right now."""

    def __init__(self) -> None:
        self.engine = None
        self.cluster = None
        self.registry: MetricsRegistry | None = None
        self.tracer = None
        self.history = MetricsHistory()
        self._requests: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- binding (CLI / tests) -------------------------------------------------

    def set_engine(self, engine) -> None:
        self.engine = engine

    def set_cluster(self, cluster) -> None:
        self.cluster = cluster

    def set_registry(self, registry: MetricsRegistry | None) -> None:
        self.registry = registry

    def set_tracer(self, tracer) -> None:
        """Bind a standalone tracer (single-engine runs where the global
        observability tracer is not reachable via the engine)."""
        self.tracer = tracer

    def count_request(self, path: str) -> None:
        with self._lock:
            self._requests[path] = self._requests.get(path, 0) + 1

    # -- actions ---------------------------------------------------------------

    def reload_rules(self, path: str) -> dict[str, Any]:
        """Hot-swap the bound cluster's (or engine's) rule pack from a
        ``.rules`` file — the body of ``POST /rules/reload``.

        Raises ``LookupError`` when nothing reloadable is bound yet and
        lets pack/cluster errors (:class:`~repro.rulespec.RulePackError`,
        ``ClusterError``) propagate; the handler maps both to 409 so a
        rejected reload is distinguishable from a malformed request.
        """
        cluster = self.cluster
        engine = self.engine
        if cluster is not None:
            pack = cluster.reload_rulepack(path)
            return {
                "status": "ok",
                "target": "cluster",
                "workers": cluster.config.workers,
                "rulepack": pack.info(),
                "reloads": cluster.cluster_stats.rulepack_reloads,
            }
        if engine is not None:
            from repro.rulespec import load_pack

            pack = load_pack(path)
            engine.load_rulepack(pack)
            return {
                "status": "ok",
                "target": "engine",
                "rulepack": pack.info(),
                "reloads": engine.rulepack_reloads,
            }
        raise LookupError("no engine or cluster bound yet; nothing to reload")

    # -- views -----------------------------------------------------------------

    def metrics_text(self) -> str:
        """Merged Prometheus exposition of every bound metrics source.

        Always non-empty: the server's own request counter is appended,
        so a scrape during startup still yields a valid exposition.
        """
        out = MetricsRegistry()
        if self.registry is not None:
            out.merge(self.registry)
        engine = self.engine
        if engine is not None:
            registry = engine.metrics_registry()
            if registry is not None and registry is not self.registry:
                out.merge(registry)
        cluster = self.cluster
        if cluster is not None:
            out.merge(cluster.live_registry())
        else:
            # Cluster registries carry their own build info; a pure
            # engine (or starting) scrape gets it stamped here.
            from repro.obs import set_build_info

            engine_pack = getattr(engine, "rulepack", None) if engine else None
            set_build_info(
                out,
                backend="engine",
                pack=engine_pack.label if engine_pack is not None else None,
            )
        requests = out.counter(
            "scidive_http_requests_total",
            "Requests served by the observability sidecar",
            labelnames=("path",),
        )
        with self._lock:
            for path, count in self._requests.items():
                requests.labels(path=path).inc(count)
        return out.render_prometheus()

    def health(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"status": "ok"}
        engine = self.engine
        cluster = self.cluster
        if engine is None and cluster is None:
            payload["status"] = "starting"
        if engine is not None:
            stats = engine.stats
            engine_view: dict[str, Any] = {
                "name": engine.name,
                "frames": stats.frames,
                "footprints": stats.footprints,
                "events": stats.events,
                "alerts": stats.alerts,
                "live_trails": engine.trails.trail_count,
                "live_sessions": engine.trails.session_count,
                "expired_trails": engine.expired_trails,
            }
            recorder = getattr(engine, "forensics", None)
            if recorder is not None:
                engine_view["forensics_sessions"] = recorder.session_count
                engine_view["forensics_records"] = recorder.record_count
                age = recorder.last_frame_age()
                if age is not None:
                    engine_view["last_frame_age_seconds"] = round(age, 3)
            firewall = getattr(engine, "firewall", None)
            if firewall is not None:
                engine_view["firewall"] = firewall.as_dict()
            rulepack = getattr(engine, "rulepack", None)
            if rulepack is not None:
                engine_view["rulepack"] = rulepack.info()
            reloads = getattr(engine, "rulepack_reloads", 0)
            if reloads:
                engine_view["rulepack_reloads"] = reloads
            overload = getattr(engine, "overload", None)
            if overload is not None:
                engine_view["overload"] = overload.as_dict()
            obs = getattr(engine, "observability", None)
            tracer = getattr(obs, "tracer", None) if obs is not None else None
            if tracer is not None:
                engine_view["spans"] = len(tracer.spans)
                engine_view["spans_dropped"] = tracer.dropped
            registry = engine.metrics_registry()
            frame_q = _quantile_view(registry, "scidive_frame_latency_seconds")
            if frame_q is not None:
                engine_view["frame_latency"] = frame_q
            stage_q = _quantile_view(
                registry, "scidive_stage_latency_seconds", by="stage"
            )
            if stage_q is not None:
                engine_view["stage_latency"] = stage_q
            ruleset = getattr(engine, "ruleset", None)
            if ruleset is not None:
                top = [
                    entry for entry in ruleset.top_cost(5)
                    if entry["cost_seconds"] > 0.0
                ]
                if top:
                    engine_view["top_rules"] = top
            payload["engine"] = engine_view
        if cluster is not None:
            cluster_view = cluster.health()
            registry = cluster.live_registry()
            frame_q = _quantile_view(registry, "scidive_frame_latency_seconds")
            if frame_q is not None:
                cluster_view["frame_latency"] = frame_q
            stage_q = _quantile_view(
                registry, "scidive_stage_latency_seconds", by="stage"
            )
            if stage_q is not None:
                cluster_view["stage_latency"] = stage_q
            payload["cluster"] = cluster_view
        return payload

    def sample_history(self, now: float | None = None) -> dict:
        """Record one history snapshot from whatever is bound right now."""
        if now is None:
            now = _time.time()
        totals: dict[str, float] = {"frames": 0, "events": 0, "alerts": 0, "shed": 0}
        extra: dict[str, Any] = {}
        engine = self.engine
        if engine is not None:
            stats = engine.stats
            totals["frames"] += stats.frames
            totals["events"] += stats.events
            totals["alerts"] += stats.alerts
            overload = getattr(engine, "overload", None)
            if overload is not None:
                extra["burn_rate"] = round(overload.controller.last_burn_rate, 4)
                extra["overload_state"] = overload.controller.state
            frame_q = _quantile_view(
                engine.metrics_registry(), "scidive_frame_latency_seconds"
            )
            if frame_q is not None:
                extra["frame_latency"] = frame_q
        cluster = self.cluster
        if cluster is not None:
            health = cluster.health()
            totals["frames"] += health.get("frames_in", 0)
            totals["shed"] += health.get("frames_dropped", 0)
            extra["queue_depths"] = health.get("queue_depths", [])
            extra["worker_restarts"] = health.get("worker_restarts", 0)
            overload = health.get("overload")
            if overload:
                extra["overload_state"] = overload.get("state")
            result = cluster.result
            if result is not None:
                totals["events"] += result.stats.events
                totals["alerts"] += result.stats.alerts
        return self.history.record(now, totals, extra)

    def alerts(self, limit: int = DEFAULT_ALERT_LIMIT) -> list[dict]:
        alerts: list = []
        if self.engine is not None:
            alerts = list(self.engine.alert_log.alerts)
        elif self.cluster is not None and self.cluster.result is not None:
            alerts = list(self.cluster.result.alerts)
        return [alert.to_dict() for alert in alerts[-limit:]]

    def trace(
        self,
        limit: int | None = DEFAULT_TRACE_LIMIT,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        """The ``/trace`` payload: span records from whatever is bound.

        Cluster first (the merged cross-process view), then the engine's
        own tracer, then a standalone bound tracer.  ``trace_id`` filters
        to one journey; ``limit`` keeps the newest records otherwise.
        """
        records: list[dict] = []
        dropped = 0
        cluster = self.cluster
        engine_tracer = None
        if self.engine is not None:
            obs = getattr(self.engine, "observability", None)
            engine_tracer = getattr(obs, "tracer", None) if obs else None
        if cluster is not None and getattr(cluster, "_tracer", None) is not None:
            records = cluster.trace_spans()
            dropped = (
                cluster.cluster_stats.spans_dropped or cluster._tracer.dropped
            )
        elif engine_tracer is not None:
            # list() snapshots: the replay thread may still be appending.
            records = sort_timeline(
                span.to_dict() for span in list(engine_tracer.spans)
            )
            dropped = engine_tracer.dropped
        elif self.tracer is not None:
            records = sort_timeline(
                span.to_dict() for span in list(self.tracer.spans)
            )
            dropped = self.tracer.dropped
        if trace_id:
            records = [r for r in records if r.get("trace") == trace_id]
        traces: dict[str, int] = {}
        for record in records:
            tid = record.get("trace")
            if tid:
                traces[tid] = traces.get(tid, 0) + 1
        if limit is not None and len(records) > limit:
            records = records[-limit:]
        return {
            "count": len(records),
            "dropped": dropped,
            "traces": traces,
            "spans": records,
        }


class _Handler(BaseHTTPRequestHandler):
    server: "_Server"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        source = self.server.source
        raw_path, _, query = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        source.count_request(path)
        try:
            if path == "/metrics":
                self._reply(source.metrics_text(),
                            "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/healthz":
                self._reply_json(source.health())
            elif path == "/alerts":
                self._reply_json(source.alerts())
            elif path == "/metrics/history":
                self._reply_json(
                    source.history.as_dict(_query_int(query, "limit"))
                )
            elif path == "/trace":
                limit = _query_int(query, "limit")
                tid = parse_qs(query).get("trace", [None])[0]
                self._reply_json(source.trace(
                    limit=limit if limit is not None else DEFAULT_TRACE_LIMIT,
                    trace_id=tid,
                ))
            else:
                self._reply_json(
                    {"error": f"unknown path {path!r}",
                     "paths": ["/metrics", "/metrics/history",
                               "/healthz", "/alerts", "/trace"]},
                    status=404,
                )
        except Exception as exc:  # pragma: no cover - defensive
            self._reply_json({"status": "error", "error": str(exc)}, status=500)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        source = self.server.source
        raw_path, _, _ = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        source.count_request(path)
        if path != "/rules/reload":
            self._reply_json(
                {"error": f"unknown POST path {path!r}",
                 "paths": ["/rules/reload"]},
                status=404,
            )
            return
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
            body = self.rfile.read(length) if length else b""
            payload = json.loads(body or b"{}")
        except ValueError:
            self._reply_json(
                {"status": "error", "error": "body must be JSON"}, status=400
            )
            return
        pack_path = payload.get("path") if isinstance(payload, dict) else None
        if not isinstance(pack_path, str) or not pack_path:
            self._reply_json(
                {"status": "error",
                 "error": 'body must be {"path": "<.rules file>"}'},
                status=400,
            )
            return
        try:
            self._reply_json(source.reload_rules(pack_path))
        except Exception as exc:
            # A rejected pack (lint errors, cluster abort, no engine
            # bound yet) is a state conflict, not a malformed request.
            self._reply_json({"status": "error", "error": str(exc)}, status=409)

    def _reply(self, body: str, content_type: str, status: int = 200) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _reply_json(self, payload: dict | list, status: int = 200) -> None:
        self._reply(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    "application/json", status)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the sidecar must not spam the CLI's stdout


def _query_int(query: str, key: str) -> int | None:
    values = parse_qs(query).get(key)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError:
        return None


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # Replays finish in seconds; a lingering TIME_WAIT socket from the
    # previous run must not fail the next one's bind.
    allow_reuse_address = True

    def __init__(self, address, source: StatusSource) -> None:
        super().__init__(address, _Handler)
        self.source = source


class ObsServer:
    """The sidecar: ``ObsServer(port=8080).start()`` then curl away.

    ``port=0`` binds an ephemeral port (tests); the bound port is
    available as ``.port`` after :meth:`start`.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        source: StatusSource | None = None,
        history_interval: float = DEFAULT_INTERVAL,
    ) -> None:
        self.host = host
        self.requested_port = port
        self.source = source if source is not None else StatusSource()
        # Seconds between automatic history snapshots; 0 disables the
        # sampler (tests that drive sample_history() by hand).
        self.history_interval = history_interval
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None
        self._sampler: threading.Thread | None = None
        self._sampler_stop = threading.Event()

    @property
    def port(self) -> int:
        if self._server is None:
            return self.requested_port
        return self._server.server_address[1]

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> "ObsServer":
        if self._server is not None:
            return self
        self._server = _Server((self.host, self.requested_port), self.source)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="scidive-obs-server",
            daemon=True,
        )
        self._thread.start()
        if self.history_interval > 0:
            self._sampler_stop.clear()
            self._sampler = threading.Thread(
                target=self._sample_loop,
                name="scidive-obs-history",
                daemon=True,
            )
            self._sampler.start()
        return self

    def _sample_loop(self) -> None:
        while not self._sampler_stop.wait(self.history_interval):
            try:
                self.source.sample_history()
            except Exception:  # pragma: no cover - defensive
                pass  # the sampler must never take the sidecar down

    def stop(self) -> None:
        if self._server is None:
            return
        self._sampler_stop.set()
        if self._sampler is not None:
            self._sampler.join(timeout=2.0)
            self._sampler = None
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
