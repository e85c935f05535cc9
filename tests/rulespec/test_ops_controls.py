"""Per-rule ops controls: enable/disable, shadow, suppress, and reset.

Shadow and suppress sit *after* evaluation — the rule keeps accumulating
detection state so flipping back to enforce never desynchronises a
threshold bucket or an armed sequence; only the emission changes.
Disabling removes the rule from dispatch entirely.
"""

from __future__ import annotations

import collections
from pathlib import Path

import pytest

from repro.core.engine import ScidiveEngine
from repro.experiments.harness import run_bye_attack, run_rtp_attack
from repro.rulespec import load_pack, shipped_pack
from repro.voip.testbed import CLIENT_A_IP

SHIPPED = Path(shipped_pack().source_path)

ATTACKS = {
    "bye-attack": (run_bye_attack, "BYE-001"),
    "rtp-attack": (run_rtp_attack, "RTP-003"),
}

_TRACES: dict[str, object] = {}


def _attack_trace(name: str):
    if name not in _TRACES:
        runner, _ = ATTACKS[name]
        _TRACES[name] = runner(seed=7).testbed.ids_tap.trace
    return _TRACES[name]


def _engine() -> ScidiveEngine:
    return ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=str(SHIPPED))


def _rule_row(engine: ScidiveEngine, rule_id: str) -> dict:
    (row,) = [r for r in engine.ruleset.rule_stats() if r["rule_id"] == rule_id]
    return row


@pytest.mark.parametrize("name", sorted(ATTACKS))
class TestModes:
    def test_shadow_counts_without_emitting(self, name):
        runner, rule_id = ATTACKS[name]
        trace = _attack_trace(name)
        baseline = _engine()
        baseline.process_trace(trace)
        hits = sum(1 for a in baseline.alerts if a.rule_id == rule_id)
        assert hits > 0

        shadowed = _engine()
        shadowed.ruleset.set_mode(rule_id, "shadow")
        shadowed.process_trace(trace)
        assert not [a for a in shadowed.alerts if a.rule_id == rule_id]
        row = _rule_row(shadowed, rule_id)
        assert row["mode"] == "shadow"
        # Every withheld emission is accounted for, one for one.
        assert row["shadow_matches"] == hits
        assert row["suppressed_alerts"] == 0

    def test_suppress_counts_separately(self, name):
        runner, rule_id = ATTACKS[name]
        trace = _attack_trace(name)
        engine = _engine()
        engine.ruleset.set_mode(rule_id, "suppress")
        engine.process_trace(trace)
        assert not [a for a in engine.alerts if a.rule_id == rule_id]
        row = _rule_row(engine, rule_id)
        assert row["suppressed_alerts"] > 0
        assert row["shadow_matches"] == 0

    def test_disabled_rule_leaves_dispatch(self, name):
        runner, rule_id = ATTACKS[name]
        trace = _attack_trace(name)
        engine = _engine()
        engine.ruleset.set_enabled(rule_id, False)
        engine.process_trace(trace)
        assert not [a for a in engine.alerts if a.rule_id == rule_id]
        row = _rule_row(engine, rule_id)
        assert row["enabled"] is False
        # Disabled means not evaluated at all — no shadow/suppress tallies.
        assert row["shadow_matches"] == 0
        assert row["suppressed_alerts"] == 0

    def test_other_rules_unaffected(self, name):
        runner, rule_id = ATTACKS[name]
        trace = _attack_trace(name)
        baseline = _engine()
        baseline.process_trace(trace)
        others_expected = collections.Counter(
            a for a in baseline.alerts if a.rule_id != rule_id
        )
        engine = _engine()
        engine.ruleset.set_mode(rule_id, "suppress")
        engine.process_trace(trace)
        assert collections.Counter(engine.alerts) == others_expected


class TestGuards:
    def test_unknown_rule_id_raises(self):
        engine = _engine()
        with pytest.raises(KeyError):
            engine.ruleset.set_mode("NO-SUCH-RULE", "shadow")
        with pytest.raises(KeyError):
            engine.ruleset.set_enabled("NO-SUCH-RULE", False)

    def test_bad_mode_rejected(self):
        engine = _engine()
        with pytest.raises(ValueError):
            engine.ruleset.set_mode("BYE-001", "audit")


class TestReset:
    def test_reset_clears_shadow_scratch_and_windows(self):
        # The phase-reset regression: detection state (threshold buckets,
        # cooldowns) and the shadow/suppress scratch counters from phase
        # 1 must not leak into phase 2 — a carried cooldown timestamp
        # would silently swallow phase-2 alerts.
        trace = _attack_trace("bye-attack")
        engine = _engine()
        engine.ruleset.set_mode("BYE-001", "shadow")
        engine.process_trace(trace)
        assert _rule_row(engine, "BYE-001")["shadow_matches"] > 0

        engine.ruleset.set_mode("BYE-001", "enforce")
        engine.reset_detection_state()
        row = _rule_row(engine, "BYE-001")
        assert row["shadow_matches"] == 0
        assert row["suppressed_alerts"] == 0

        # Every rule must be back to its pristine detection state — a
        # leaked cooldown timestamp or armed sequence step from phase 1
        # would silently swallow or fabricate phase-2 alerts.
        pristine = {r.rule_id: r.checkpoint_state() for r in _engine().ruleset.rules}
        for rule in engine.ruleset.rules:
            assert rule.checkpoint_state() == pristine[rule.rule_id], rule.rule_id
        assert not engine.alerts

    def test_mode_and_enabled_survive_reset(self):
        # reset clears *state*, not *policy*: an operator's shadow/disable
        # decisions hold across phase boundaries.
        engine = _engine()
        engine.ruleset.set_mode("BYE-001", "shadow")
        engine.ruleset.set_enabled("RTP-003", False)
        engine.reset_detection_state()
        assert _rule_row(engine, "BYE-001")["mode"] == "shadow"
        assert _rule_row(engine, "RTP-003")["enabled"] is False
