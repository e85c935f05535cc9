"""What the performance benchmark replays, and what each layer metric moves.

``BENCHMARK.json`` at the repository root is the source of every metric
name, unit and bound, and of each workload's one-line reason.  This
module holds the rest of the benchmark's reasoning: the scenario file and
replay length of each workload, and, for every per-layer metric, the
end-to-end metric and workload it is expected to move.  Later changes
that claim a gain cite these names.  ``test_perfbench.py`` checks that
this table and ``BENCHMARK.json`` name the same metrics.
"""

from __future__ import annotations

# Scenario file (relative to the repository root; its own seed is the
# default) and frames measured per pass.  A pass replays a prefix of the
# generated trace: for a flood workload the benign lead-in and then this
# many frames from the flood's first frame, whose single-engine times
# alone are measured; otherwise this many frames from the start.  The
# prefixes are short so that a run fits many interleaved cycles of
# passes (the host's speed swings by tens of percent over seconds) in
# about 40 s on a 2-core box, yet each still holds the behaviour its
# workload exists for (figures for the spec's own seed):
#   carrier       10.5k of ~54k frames: mostly media with moderate
#                 signalling; hijack, fake-IM and REGISTER DoS attacks are
#                 due and one housekeeping sweep runs.
#   invite-flood  4k flood INVITEs after a ~1k-frame lead-in, each opening
#                 SIP state that is never torn down.
#   rtp-flood     20k flood RTP frames to one port after a ~1k-frame
#                 lead-in, with the BYE attack injected and due inside.
WORKLOADS: dict[str, tuple[str, int]] = {
    "carrier": ("workloads/ci.workload", 10_500),
    "invite-flood": ("workloads/flood-invite.workload", 4_000),
    "rtp-flood": ("workloads/flood-rtp.workload", 20_000),
}

# Default engine generators, in dispatch order (one per-layer metric each).
GENERATORS = (
    "dialog",
    "orphan-rtp",
    "im-source",
    "auth",
    "malformed-sip",
    "rtp-stream",
    "rtcp-bye",
    "ssrc-track",
    "h323-orphan",
    "accounting",
)

# The cluster under test: the process backend, one worker per core.
CLUSTER_BACKEND = "process"

# The traced pass must attribute all but this share of frame time to a
# named layer; the rest is engine.self_s (engine glue and hook calls).
UNATTRIBUTED_MAX = 0.10

# Set-up repetitions per run; setup_s is their median.
SETUP_REPEATS = 2

_NET = "engine_fps, engine_p50_us: most on rtp-flood and carrier"
_STATE = "engine_fps, rss_growth_mb on invite-flood; no move on rtp-flood"
_GEN = "engine_fps on carrier and rtp-flood"
_ROUTER = "cluster_fps on invite-flood (replication) and rtp-flood (skew)"
_CONTEXT = "none; context so cluster_fps is never compared across core counts"

# Per-layer metric -> the end-to-end metric and workload it should move.
MOVES: dict[str, str] = {
    "workload.generate_s": "setup_s, all workloads",
    "workload.frames": "setup_s, all workloads",
    "workload.wire_bytes": "setup_s, all workloads",
    "segment.frames": "none; frames replayed per pass, lead-in included",
    "net.self_s": _NET,
    "net.us_per_frame": _NET + "; higher per frame on invite-flood (checksums)",
    "distiller.sip_s": "engine_fps on invite-flood, engine_p99_us on carrier",
    "distiller.rtp_s": "engine_fps on rtp-flood",
    "distiller.rtcp_s": "engine_fps on carrier",
    "distiller.other_s": "engine_fps on carrier and rtp-flood",
    "distiller.calls": "engine_fps on rtp-flood",
    "distiller.claim_ratio": "engine_fps on rtp-flood",
    "state.observe_s": _STATE,
    "state.calls_held": _STATE,
    "state.registrations_held": _STATE,
    "trail.push_s": _STATE,
    "trail.sessions_held": _STATE,
    **{f"generators.{name}_s": _GEN for name in GENERATORS},
    "generators.events": _GEN,
    "generators.yield_ratio": _GEN,
    "rules.match_s": "none expected (<1% of frame time); regression guard",
    "rules.alerts": "none expected; regression guard",
    "forensics.record_s": "engine_fps, rss_growth_mb on all workloads",
    "engine.housekeep_s": "engine_p99_us on invite-flood and carrier",
    "engine.self_s": "engine_p99_us on invite-flood and carrier",
    "engine.frame_s": "engine_fps, all workloads",
    "engine.unattributed_share": "none; a rise means a layer went unmeasured",
    "trace.overhead_s": "none; what the traced pass costs",
    "trace.overhead_ratio": "none; what the traced pass costs",
    "obs.overhead_s": "obs_fps, all workloads",
    "memory.retained_bytes_per_frame": "rss_growth_mb on invite-flood",
    "router.submit_s": _ROUTER,
    "router.cpu_s": _ROUTER,
    "router.route_s": _ROUTER,
    "router.replication_ratio": "cluster_fps on invite-flood; ~1.0 and no move on rtp-flood",
    "router.frames_dropped": "frames_ok_share, all workloads",
    "cluster.drain_s": _ROUTER,
    "workers.busy_max_s": _ROUTER,
    "workers.busy_sum_s": _ROUTER,
    "workers.shadow_s": "cluster_fps on invite-flood",
    "workers.skew": "cluster_fps on rtp-flood",
    "cluster.modeled_fps": "none; diagnostic only, never a headline",
    "cluster.workers": _CONTEXT,
    "host.nproc": _CONTEXT,
    "quality.attacks_scored": "detection_recall, all workloads",
    "quality.missed_attacks": "detection_recall, all workloads",
    "quality.false_alarms": "alert_precision, all workloads",
    "cluster.frames_failed_share": "frames_ok_share, all workloads",
}
