"""Single-engine replay passes, served by one interpreter per run.

``run.py`` starts this script once per run and talks to it over pickles:
first ``(frames, start)`` (frames as ``[(frame, timestamp), ...]``, and
the index of the first measured frame), then one pass kind per message,
each answered with that pass's result; end of input ends the process.
Every pass builds a fresh engine.  The process is fresh, so the first
pass (always ``dark``) reads resident-memory growth before any other
pass has warmed the allocator.

Kinds:

* ``dark``   the default engine (forensics and firewall on, metrics off):
             per-frame latency, resident-memory growth.
* ``obs``    the same engine with ``metrics_enabled=True``.
* ``traced`` the dark engine with a :class:`LayerHook` and timing
             wrappers on its decoders and forensics recorder: per-layer
             time and counts.
* ``memory`` the dark engine under ``tracemalloc``: bytes retained.

The engine only ever sees the frames; scoring happens in ``run.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import os
import pickle
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from repro.core.distiller import CLAIMED  # noqa: E402
from repro.core.engine import ScidiveEngine  # noqa: E402
from repro.core.hooks import FootprintHook  # noqa: E402

perf = time.perf_counter


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _replay(engine, frames, latencies, first: int = 0, end: int | None = None) -> None:
    """Closed loop over ``frames[first:end]``, each frame fed as soon as
    the previous one returns; stores each frame's wall-clock
    ``process_frame`` time into ``latencies`` (an array, so storing a
    time keeps no object alive)."""
    process = engine.process_frame
    for i in range(first, len(frames) if end is None else end):
        frame, ts = frames[i]
        t0 = perf()
        process(frame, ts)
        latencies[i] = perf() - t0


def _timed(engine, frames) -> array:
    latencies = array("d", bytes(8 * len(frames)))
    _replay(engine, frames, latencies)
    return latencies


def _summary(engine, frames, latencies=None) -> dict:
    firewall = engine.firewall
    return {
        "latencies": latencies,
        "frames": len(frames),
        "firewall_errors": sum(firewall.errors.values()) if firewall else 0,
        # Equality ignores provenance and events; drop them before pickling.
        "alerts": [
            dataclasses.replace(a, events=(), provenance=None) for a in engine.alerts
        ],
    }


def _engine(**kwargs) -> ScidiveEngine:
    return ScidiveEngine(vantage_ip=None, **kwargs)


def dark_pass(frames, start: int) -> dict:
    """Also reads the resident memory the measured frames (those from
    ``start`` on) add."""
    engine = _engine(metrics_enabled=False)
    latencies = array("d", bytes(8 * len(frames)))
    gc.collect()
    _replay(engine, frames, latencies, 0, start)
    rss0 = _rss_bytes()
    _replay(engine, frames, latencies, start)
    rss1 = _rss_bytes()
    result = _summary(engine, frames, latencies)
    result["rss_growth"] = rss1 - rss0
    return result


def obs_pass(frames, start: int) -> dict:
    engine = _engine(metrics_enabled=True)
    return _summary(engine, frames, _timed(engine, frames))


def memory_pass(frames, start: int) -> dict:
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine = _engine(metrics_enabled=False)
        process = engine.process_frame
        for frame, ts in frames:
            process(frame, ts)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    result = _summary(engine, frames)
    result["retained_bytes"] = retained
    return result


# -- the traced pass ---------------------------------------------------------

_DECODER_LAYER = {
    "decode_sip": "sip",
    "decode_rtp": "rtp",
    "decode_rtcp": "rtcp",
}


class LayerHook(FootprintHook):
    """Sums the engine's own stage timings; every footprint attributes
    time to its generators."""

    __slots__ = (
        "distill_s", "housekeep_s", "state_s", "trail_s", "match_s",
        "frame_s", "events", "alerts", "generator_s", "generator_calls",
    )

    def __init__(self) -> None:
        self.distill_s = self.housekeep_s = self.state_s = 0.0
        self.trail_s = self.match_s = self.frame_s = 0.0
        self.events = self.alerts = 0
        self.generator_s: dict[str, float] = {}
        self.generator_calls = 0

    def frame_distilled(self, frame_no, sim_time, footprint, seconds):
        self.distill_s += seconds

    def housekeeping_timed(self, reclaimed, seconds, frame_no, sim_time):
        self.housekeep_s += seconds

    def state_updated(self, seconds, frame_no, sim_time):
        self.state_s += seconds

    def trail_pushed(self, seconds, frame_no, sim_time):
        self.trail_s += seconds

    def sample_generators(self):
        return True

    def generator_ran(self, name, seconds):
        self.generator_s[name] = self.generator_s.get(name, 0.0) + seconds
        self.generator_calls += 1

    def footprint_done(
        self, footprint, generate_seconds, match_seconds, events, alerts,
        frame_no, sim_time,
    ):
        self.match_s += match_seconds
        self.events += events
        self.alerts += alerts

    def frame_done(self, seconds, frame_no, sim_time):
        self.frame_s += seconds


class _DecoderTally:
    __slots__ = ("seconds", "calls", "claims")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.claims = 0


def _timed_decoder(decoder, tally: _DecoderTally):
    @functools.wraps(decoder)
    def wrapped(distiller, payload, common):
        t0 = perf()
        result = decoder(distiller, payload, common)
        tally.seconds += perf() - t0
        tally.calls += 1
        if result is not None and result is not CLAIMED:
            tally.claims += 1
        return result

    return wrapped


def traced_pass(frames, start: int) -> dict:
    hook = LayerHook()
    engine = _engine(metrics_enabled=False, hook=hook)
    tallies: dict[str, _DecoderTally] = {}
    wrapped = []
    for decoder in engine.distiller.decoders:
        tally = tallies.setdefault(
            _DECODER_LAYER.get(decoder.__name__, "other"), _DecoderTally()
        )
        wrapped.append(_timed_decoder(decoder, tally))
    engine.distiller.decoders = tuple(wrapped)
    recorder = engine.forensics
    record_frame = recorder.record_frame
    forensics_s = 0.0

    def timed_record_frame(*args):
        nonlocal forensics_s
        t0 = perf()
        record_frame(*args)
        forensics_s += perf() - t0

    recorder.record_frame = timed_record_frame
    latencies = _timed(engine, frames)

    decode_s = sum(t.seconds for t in tallies.values())
    generators_s = sum(hook.generator_s.values())
    calls = sum(t.calls for t in tallies.values())
    net_self = hook.distill_s - decode_s - forensics_s
    attributed = (
        hook.distill_s + hook.state_s + hook.trail_s + generators_s
        + hook.match_s + hook.housekeep_s
    )
    layers = {
        "net.self_s": net_self,
        "net.us_per_frame": net_self / len(frames) * 1e6,
        **{
            f"distiller.{name}_s": tallies.get(name, _DecoderTally()).seconds
            for name in ("sip", "rtp", "rtcp", "other")
        },
        "distiller.calls": calls,
        "distiller.claim_ratio": (
            sum(t.claims for t in tallies.values()) / calls if calls else 0.0
        ),
        "state.observe_s": hook.state_s,
        "state.calls_held": engine.sip_state.call_count,
        "state.registrations_held": engine.registrations.session_count,
        "trail.push_s": hook.trail_s,
        "trail.sessions_held": engine.trails.session_count,
        **{
            f"generators.{g.name}_s": hook.generator_s.get(g.name, 0.0)
            for g in engine.generators
        },
        "generators.events": hook.events,
        "generators.yield_ratio": (
            hook.events / hook.generator_calls if hook.generator_calls else 0.0
        ),
        "rules.match_s": hook.match_s,
        "rules.alerts": hook.alerts,
        "forensics.record_s": forensics_s,
        "engine.housekeep_s": hook.housekeep_s,
        "engine.self_s": hook.frame_s - attributed,
        "engine.frame_s": hook.frame_s,
    }
    result = _summary(engine, frames, latencies)
    result["layers"] = layers
    return result


PASSES = {
    "dark": dark_pass,
    "obs": obs_pass,
    "traced": traced_pass,
    "memory": memory_pass,
}


def main() -> None:
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    frames, start = pickle.load(stdin)
    while True:
        try:
            kind = pickle.load(stdin)
        except EOFError:
            return
        result = PASSES[kind](frames, start)
        gc.collect()  # the pass's engine is garbage now; free it before the next
        pickle.dump(result, stdout, protocol=pickle.HIGHEST_PROTOCOL)
        stdout.flush()


if __name__ == "__main__":
    main()
