"""End-to-end and per-layer performance benchmark of the SCIDIVE engine and cluster.

Usage (from the repository root; ``python3 -m pytest perfbench`` runs
the benchmark's own tests)::

    python3 perfbench/run.py --workload carrier --seed 42 --seconds 10 --trace 0

A run generates the workload from its seed (``perfbench/spec.py`` names
the scenario file and how many frames a pass measures; ``--seed``
defaults to the scenario's own), then replays a prefix of its frames
offline in a closed loop, each frame fed as soon as the previous one is
taken, through the public entry points:

* ``ScidiveEngine.process_frame``, in one fresh interpreter per run
  (``engine_pass.py``) whose first pass reads resident-memory growth
  before any other pass has warmed its allocator;
* ``ScidiveCluster.submit_frame``/``stop`` with the ``process`` backend
  and one worker per core; this process is the router.

Passes run in interleaved cycles, at least ``MIN_CYCLES`` of them and
until ``--seconds`` of measuring have passed.  The host's interference
only ever slows a pass down, so the engine metrics use each frame's
fastest time over the cycles and ``cluster_fps`` the fastest cluster
pass.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds
the traced pass (a ``FootprintHook`` subclass plus timing wrappers on the
engine's decoders, its forensics recorder and the cluster's sharder) and
a ``tracemalloc`` pass, and prints the per-layer metrics.

Correctness gates fail the run (``"correct": false``, exit status 1):
the alert multiset must be identical across every pass and the cluster,
the trace digest must repeat for the seed, and the traced pass must
attribute all but ``UNATTRIBUTED_MAX`` of frame time to named layers.
The last line of stdout is the JSON result; the line before it records
the host's core count, the worker count and the backend.  Metric names,
units and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENGINE_PASS = HERE / "engine_pass.py"
PASS_TIMEOUT = 170.0

sys.path.insert(0, str(HERE))
import spec  # noqa: E402

perf = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or spec)."""


def load_metric_table() -> dict[str, dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        table = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in table[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _import_repro() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- set-up --------------------------------------------------------------------


def load_spec(workload: str):
    from repro.workload import load_scenario

    path, _ = spec.WORKLOADS[workload]
    if not (ROOT / path).is_file():
        raise BenchError(f"no scenario file {ROOT / path}")
    return load_scenario(str(ROOT / path))


def set_up(scenario, seed: int, workers: int) -> dict:
    """Generate the workload, build an engine and start a cluster,
    ``SETUP_REPEATS`` times.  Returns the last workload and the timings."""
    from repro.cluster import ScidiveCluster
    from repro.core.engine import ScidiveEngine
    from repro.workload import generate_workload, trace_digest

    totals, generate, digests = [], [], []
    for _ in range(spec.SETUP_REPEATS):
        workload = None  # let the previous copy go before generating again
        t0 = perf()
        workload = generate_workload(scenario, seed=seed)
        t1 = perf()
        ScidiveEngine(vantage_ip=None, metrics_enabled=False)
        cluster = ScidiveCluster(
            workers=workers, backend=spec.CLUSTER_BACKEND, vantage_ip=None
        ).start()
        totals.append(perf() - t0)
        generate.append(t1 - t0)
        cluster.stop()
        digests.append(trace_digest(workload.trace))
    return {
        "workload": workload,
        "setup_s": statistics.median(totals),
        "generate_s": statistics.median(generate),
        "digests": digests,
    }


# -- passes --------------------------------------------------------------------


class EnginePasses:
    """The interpreter that runs this run's single-engine passes (see
    engine_pass.py); a context manager that always reaps it."""

    def __init__(self, frames: list, start: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(ENGINE_PASS)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._send((frames, start))

    def _send(self, message) -> None:
        pickle.dump(message, self.proc.stdin, pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()

    def run(self, kind: str) -> dict:
        self._send(kind)
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError(
                f"{kind} pass died (exit status {self.proc.wait(PASS_TIMEOUT)})"
            ) from None

    def __enter__(self) -> "EnginePasses":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(PASS_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cluster_pass(frames: list, workers: int, traced: bool) -> dict:
    """Replay through a started cluster; this process is the router.

    Timed from the first ``submit_frame`` until ``stop()`` returns.  The
    traced variant also times each ``submit_frame`` call and wraps
    ``cluster.sharder.route``."""
    from repro.cluster import ScidiveCluster

    cluster = ScidiveCluster(
        workers=workers, backend=spec.CLUSTER_BACKEND, vantage_ip=None
    ).start()
    submit = cluster.submit_frame
    route_s = submit_s = 0.0
    if traced:
        route = cluster.sharder.route

        def timed_route(frame, timestamp):
            nonlocal route_s
            t0 = perf()
            decisions = route(frame, timestamp)
            route_s += perf() - t0
            return decisions

        cluster.sharder.route = timed_route
    start = perf()
    if traced:
        for frame, ts in frames:
            t0 = perf()
            submit(frame, ts)
            submit_s += perf() - t0
    else:
        for frame, ts in frames:
            submit(frame, ts)
    submitted = perf()
    result = cluster.stop()
    end = perf()
    stats = result.cluster
    busy = [w.busy_seconds for w in result.workers]
    mean_busy = sum(busy) / len(busy)
    return {
        "elapsed": end - start,
        "frames": len(frames),
        "alerts": list(result.alerts),
        "dropped": stats.frames_dropped,
        "layers": {
            "router.submit_s": submit_s,
            "router.cpu_s": stats.router_seconds,
            "router.route_s": route_s,
            "router.replication_ratio": (
                (stats.frames_routed + stats.frames_replicated) / stats.frames_in
            ),
            "router.frames_dropped": stats.frames_dropped,
            "cluster.drain_s": end - submitted,
            "workers.busy_max_s": max(busy),
            "workers.busy_sum_s": sum(busy),
            "workers.shadow_s": sum(w.shadow_stats.cpu_seconds for w in result.workers),
            "workers.skew": max(busy) / mean_busy if mean_busy > 0 else 1.0,
            "cluster.modeled_fps": result.modeled_frames_per_second(),
            "cluster.workers": len(result.workers),
        },
    }


# Passes of one cycle.  Cycles interleave the passes so that a burst of
# host interference lands on every kind of pass alike.
CYCLES = {
    0: ("dark", "obs", "cluster"),
    1: ("dark", "traced", "obs", "cluster"),
}
# Fewest cycles per run, by --trace value.
MIN_CYCLES = {0: 8, 1: 3}


def measure(
    frames: list, start: int, seconds: float, trace: int, workers: int
) -> tuple[list, dict | None]:
    """Run cycles of passes: at least ``MIN_CYCLES``, and until ``seconds``
    of measuring have passed.  The traced run ends with one memory pass."""
    cycles = []
    deadline = perf() + seconds
    with EnginePasses(frames, start) as engine:
        while len(cycles) < MIN_CYCLES[trace] or perf() < deadline:
            cycle = {}
            for kind in CYCLES[trace]:
                if kind == "cluster":
                    cycle[kind] = cluster_pass(frames, workers, traced=bool(trace))
                else:
                    cycle[kind] = engine.run(kind)
            cycles.append(cycle)
        memory = engine.run("memory") if trace else None
    return cycles, memory


# -- scoring and gates -----------------------------------------------------------


def score(alerts: list, truth, end_time: float) -> dict:
    """Score alerts against ground truth.  Only attacks whose detection
    deadline falls inside the replayed frames (or that were already
    detected) count; the rest had no chance to be seen.  With none due,
    recall is 1.0, as in ``SystemQuality.recall``."""
    from repro.experiments.quality import evaluate_alerts

    quality = evaluate_alerts("engine", alerts, truth)
    due = [o for o in quality.outcomes if o.detected or o.label.deadline <= end_time]
    detected = sum(1 for o in due if o.detected)
    return {
        "scored": len(due),
        "missed": len(due) - detected,
        "recall": detected / len(due) if due else 1.0,
        "false_alarms": len(quality.false_alarms),
        "precision": quality.precision,
    }


def gate(passes: dict[str, dict], digests: list[str]) -> list[str]:
    """Every correctness problem of a run; empty when the run is correct.

    ``passes`` maps a pass label to its result; the first is the reference
    whose alert multiset every other pass must reproduce."""
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"trace digest did not repeat for the seed: {digests}")
    results = iter(passes.items())
    _, first = next(results)
    reference = collections.Counter(first["alerts"])
    for label, result in results:
        if collections.Counter(result["alerts"]) != reference:
            problems.append(f"{label} pass alerts differ from the first pass")
    for label, result in passes.items():
        layers = result.get("layers", {})
        if "engine.frame_s" not in layers:
            continue
        negative = sorted(k for k, v in layers.items() if k.endswith("_s") and v < 0)
        if negative:
            problems.append(f"{label}: negative layer times {negative}")
        share = layers["engine.self_s"] / layers["engine.frame_s"]
        if share > spec.UNATTRIBUTED_MAX:
            problems.append(
                f"{label}: layers explain only {1 - share:.1%} of frame time"
            )
    return problems


# -- metrics -----------------------------------------------------------------------


def _median(cycles: list[dict], value) -> float:
    return statistics.median(value(cycle) for cycle in cycles)


def fastest(cycles: list[dict], kind: str) -> list[float]:
    """Each frame's shortest wall-clock ``process_frame`` time over the
    passes of one kind.  The host's interference only ever slows a frame
    down, so the minimum over passes spread across the run's interleaved
    cycles keeps every cost the program itself pays on that frame
    (parsing, housekeeping, collections) and drops most of what other
    tenants add."""
    return [min(times) for times in zip(*(c[kind]["latencies"] for c in cycles))]


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def end_to_end(cycles, setup, quality, n, start, failed, memory) -> dict:
    # Single-engine figures cover the measured frames only (see measured_from).
    dark = fastest(cycles, "dark")[start:]
    return {
        "setup_s": setup["setup_s"],
        "engine_fps": len(dark) / sum(dark),
        "engine_p50_us": _quantile(dark, 0.50) * 1e6,
        "engine_p99_us": _quantile(dark, 0.99) * 1e6,
        "obs_fps": len(dark) / sum(fastest(cycles, "obs")[start:]),
        # The fastest pass, for the same reason as fastest().
        "cluster_fps": max(n / c["cluster"]["elapsed"] for c in cycles),
        # Added by the measured frames, in the first pass: the only one
        # whose allocator no earlier pass warmed.
        "rss_growth_mb": cycles[0]["dark"]["rss_growth"] / 1e6,
        "detection_recall": quality["recall"],
        "alert_precision": quality["precision"],
        "frames_ok_share": 1.0 - failed / n,
    }


def per_layer(cycles, setup, quality, n, start, failed, memory) -> dict:
    workload = setup["workload"]
    layers = {}
    for kind in ("traced", "cluster"):
        for name in cycles[0][kind]["layers"]:
            layers[name] = _median(cycles, lambda c: c[kind]["layers"][name])
    dark = sum(fastest(cycles, "dark"))
    traced = sum(fastest(cycles, "traced"))
    layers.update(
        {
            "workload.generate_s": setup["generate_s"],
            "workload.frames": len(workload.trace),
            "workload.wire_bytes": workload.stats.wire_bytes,
            "segment.frames": n,
            "engine.unattributed_share": _median(
                cycles,
                lambda c: c["traced"]["layers"]["engine.self_s"]
                / c["traced"]["layers"]["engine.frame_s"],
            ),
            "trace.overhead_s": traced - dark,
            "trace.overhead_ratio": traced / dark - 1.0,
            "obs.overhead_s": sum(fastest(cycles, "obs")) - dark,
            "memory.retained_bytes_per_frame": memory["retained_bytes"] / n,
            "host.nproc": os.cpu_count(),
            "quality.attacks_scored": quality["scored"],
            "quality.missed_attacks": quality["missed"],
            "quality.false_alarms": quality["false_alarms"],
            "cluster.frames_failed_share": failed / n,
        }
    )
    return layers


def measured_from(truth) -> int:
    """Index of the first flood frame, 0 when the workload has none.

    The benign lead-in before a flood varies in length from seed to seed
    and its SIP frames cost several flood frames each, so single-engine
    figures of a flood workload leave it out; it is still replayed, so
    the engine meets the flood with the state the lead-in built."""
    from repro.workload import FLOOD_KINDS

    floods = {label.label_id for label in truth.labels if label.kind in FLOOD_KINDS}
    return next((i for i, lid in enumerate(truth.frame_labels) if lid in floods), 0)


def run_benchmark(workload: str, seed: int | None, seconds: float, trace: int) -> dict:
    """One benchmark run: ``{"context": ..., "result": ...}``, where the
    result is the object printed as the last line."""
    _import_repro()
    units = load_metric_table()["per_layer" if trace else "end_to_end"]
    scenario = load_spec(workload)
    seed = scenario.seed if seed is None else seed
    workers = os.cpu_count() or 1
    setup = set_up(scenario, seed, workers)
    start = measured_from(setup["workload"].truth)
    frames = [(r.frame, r.timestamp) for r in setup["workload"].trace]
    frames = frames[: start + spec.WORKLOADS[workload][1]]
    n = len(frames)

    cycles, memory = measure(frames, start, seconds, trace, workers)
    passes = {
        f"cycle {number} {kind}": result
        for number, cycle in enumerate(cycles)
        for kind, result in cycle.items()
    }
    if memory is not None:
        passes["memory"] = memory
    # Alerts are identical across passes (gated below); score the first.
    quality = score(cycles[0]["dark"]["alerts"], setup["workload"].truth, frames[-1][1])
    problems = gate(passes, setup["digests"])
    failed = statistics.median(
        c["cluster"]["dropped"] + c["dark"]["firewall_errors"] for c in cycles
    )
    compute = per_layer if trace else end_to_end
    values = compute(cycles, setup, quality, n, start, failed, memory)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing {sorted(set(units) - set(values))},"
            f" extra {sorted(set(values) - set(units))}"
        )
    return {
        "context": {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "frames_per_pass": n,
            "measured_from": start,
            "cycles": len(cycles),
            "nproc": os.cpu_count(),
            "workers": workers,
            "backend": spec.CLUSTER_BACKEND,
            "digest": setup["digests"][0],
            "problems": problems,
        },
        "result": {
            "correct": not problems,
            "attempted": sum(p["frames"] for p in passes.values()),
            "failed": sum(
                p.get("dropped", 0) + p.get("firewall_errors", 0)
                for p in passes.values()
            ),
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: the spec's own)"
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in run["context"]["problems"]:
        print(f"GATE FAILED: {problem}")
    print(json.dumps({"context": run["context"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
