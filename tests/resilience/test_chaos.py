"""The chaos harness: invariants hold, runs are reproducible."""

from __future__ import annotations

import pytest

from repro.resilience import ChaosConfig, format_report, run_chaos


class TestChaosRun:
    def test_single_attack_engine_mode(self):
        report = run_chaos(ChaosConfig(
            seed=7, attacks=("bye-attack",),
            synth_sip=8, fragment_bombs=8, skew_frames=5,
        ))
        assert report.ok, report.violations
        (outcome,) = report.outcomes
        assert outcome.detected
        assert outcome.exceptions == []
        assert outcome.mutants > 0
        # The skew tail's forward jump must have swept the bombs out.
        assert outcome.reassembly_pending <= 8

    def test_cluster_mode_with_crashes(self):
        report = run_chaos(ChaosConfig(
            seed=7, attacks=("fake-im",), workers=2, backend="threads",
            synth_sip=4, fragment_bombs=4, skew_frames=3,
        ))
        assert report.ok, report.violations
        (outcome,) = report.outcomes
        assert outcome.worker_restarts >= 1
        assert outcome.checkpoints >= 1

    def test_deterministic_for_same_seed(self):
        config = ChaosConfig(seed=11, attacks=("fake-im",),
                             synth_sip=4, fragment_bombs=4, skew_frames=3)
        first = run_chaos(config).as_dict()
        second = run_chaos(config).as_dict()
        assert first == second

    def test_report_render(self):
        report = run_chaos(ChaosConfig(
            seed=7, attacks=("fake-im",),
            synth_sip=2, fragment_bombs=2, skew_frames=2,
        ))
        text = format_report(report)
        assert "fake-im" in text
        assert "PASS" in text


class TestChaosFlood:
    def test_flood_sheds_without_losing_detection(self):
        report = run_chaos(ChaosConfig(
            seed=7, attacks=("bye-attack",), workers=2, backend="threads",
            inject_crashes=False, flood_frames=6000,
        ))
        assert report.ok, report.violations
        (outcome,) = report.outcomes
        assert outcome.flood == 6000
        # The paper attack's alert survived the flood (degraded-mode
        # detection guarantee) while the controller reached shed.
        assert outcome.detected
        transitions = outcome.overload["transitions_total"]
        assert any(key.endswith("->shed") for key in transitions), transitions
        assert "10.66.66.99" in outcome.overload["shed_by_source"]

    def test_flood_run_is_deterministic(self):
        """The seeded parts — stream construction, mutation, routing,
        detection — replay identically.  The controller's dynamics race
        with worker drain timing (instantaneous queue-fill gauges, and
        through the transition ticks the count of SELF-OVERLOAD-*
        transition alerts), so they are excluded; each run's shed/detect invariants are still
        enforced by the judge (``report.ok``)."""
        config = ChaosConfig(
            seed=11, attacks=("fake-im",), workers=2, backend="threads",
            inject_crashes=False, flood_frames=4000,
        )

        def stable(report):
            data = report.as_dict()
            for outcome in data["attacks"]:
                outcome.pop("overload")
                outcome.pop("alerts")
            return data

        first, second = run_chaos(config), run_chaos(config)
        assert first.ok and second.ok
        assert stable(first) == stable(second)


class TestChaosConfig:
    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError, match="unknown attacks"):
            ChaosConfig(attacks=("nope",)).validate()

    def test_bad_mutation_rate_rejected(self):
        with pytest.raises(ValueError, match="mutation_rate"):
            ChaosConfig(mutation_rate=1.5).validate()

    def test_negative_flood_rejected(self):
        with pytest.raises(ValueError, match="flood_frames"):
            ChaosConfig(flood_frames=-1).validate()
