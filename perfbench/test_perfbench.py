"""Tests of the performance benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  The
smoke runs shrink each workload to a small population and replay every
generated frame, so they check the plumbing, not the numbers.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _small(workload: str) -> dict:
    """Spec overrides for a short, small-population smoke of a workload."""
    run._import_repro()
    scenario = run.load_spec(workload)
    attacks = tuple(
        dataclasses.replace(a, count=min(a.count, 1), packets=min(a.packets, 400))
        for a in scenario.attacks
    )
    return {"subscribers": 12, "duration": 180.0, "attacks": attacks}


def test_benchmark_json_keeps_the_contract(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in bench[kind]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_benchmark_json_and_spec_name_the_same_things(bench):
    run._import_repro()
    from repro.core.engine import ScidiveEngine

    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    for entry in bench["workloads"]:
        path, _ = spec.WORKLOADS[entry["name"]]
        seed = run.load_spec(entry["name"]).seed
        assert entry["why"].startswith(f"{path}, seed {seed}: ")
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [m["name"] for m in bench["per_layer"]] == list(spec.MOVES)
    engine = ScidiveEngine(metrics_enabled=False)
    assert tuple(g.name for g in engine.generators) == spec.GENERATORS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(
    workload, trace, bench, capsys, monkeypatch
):
    small = _small(workload)
    monkeypatch.setattr(
        run, "load_spec", lambda name: _load_small(name, small)
    )
    status = run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status == 0 and result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and value == value, name
        assert any(line.split()[:1] == [name] for line in lines), name
    context = json.loads(lines[-2])["context"]
    assert context["backend"] == "process" and context["workers"] >= 1
    assert context["nproc"] >= 1


def _load_small(name, small):
    from repro.workload import load_scenario

    return load_scenario(str(run.ROOT / spec.WORKLOADS[name][0])).with_overrides(
        **small
    )


def test_tampered_alert_list_fails_the_run(capsys, monkeypatch):
    run._import_repro()
    from repro.core.alerts import Alert, Severity

    small = _small("carrier")
    monkeypatch.setattr(
        run, "load_spec", lambda name: _load_small(name, small)
    )
    honest = run.cluster_pass

    def tampered(frames, workers, traced):
        result = honest(frames, workers, traced)
        result["alerts"].append(
            Alert("FAKE-001", "tampered", 0.0, "", Severity.LOW, "none", "")
        )
        return result

    monkeypatch.setattr(run, "cluster_pass", tampered)
    status = run.main(["--workload", "carrier", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    assert status == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "cluster pass alerts differ" in out


def test_gate_catches_a_digest_that_does_not_repeat():
    passes = {"cycle 0 dark": {"alerts": []}, "cycle 0 obs": {"alerts": []}}
    assert run.gate(passes, ["a", "a"]) == []
    assert run.gate(passes, ["a", "b"])


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "carrier",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fastest_takes_each_frames_minimum():
    cycles = [{"dark": {"latencies": [3.0, 1.0]}}, {"dark": {"latencies": [2.0, 4.0]}}]
    assert run.fastest(cycles, "dark") == [2.0, 1.0]
