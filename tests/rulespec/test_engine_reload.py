"""Engine-level hot reload: atomic swap, state carry, checkpoint gating.

``load_rulepack`` rebinds the ruleset between footprints, carries
per-rule state to same-id same-shape rules, and never disturbs protocol
state.  Checkpoints are stamped with the pack label; restoring under a
different pack is refused unless forced.
"""

from __future__ import annotations

import collections
from pathlib import Path

import pytest

from repro.core.engine import ScidiveEngine
from repro.experiments.harness import run_bye_attack, run_call_hijack
from repro.resilience.checkpoint import RulePackMismatch
from repro.core.rules import RuleSet
from repro.rulespec import (
    RulePackError,
    compile_rule,
    load_pack,
    parse_pack,
    shipped_pack,
)
from repro.voip.testbed import CLIENT_A_IP

SHIPPED = Path(shipped_pack().source_path)

_TRACES: dict[str, object] = {}


def _attack_trace(name: str):
    if name not in _TRACES:
        runner = {"bye-attack": run_bye_attack, "call-hijack": run_call_hijack}
        _TRACES[name] = runner[name](seed=7).testbed.ids_tap.trace
    return _TRACES[name]


def _engine() -> ScidiveEngine:
    return ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=str(SHIPPED))


def _class_built_engine() -> ScidiveEngine:
    """The shipped rules built without a pack: no pack identity."""
    rules = [compile_rule(rdef) for rdef in shipped_pack().rules]
    return ScidiveEngine(vantage_ip=CLIENT_A_IP, ruleset=RuleSet(rules))


def _bumped_pack():
    text = SHIPPED.read_text(encoding="utf-8")
    pack, _ = parse_pack(
        text.replace("version = 1.0.0", "version = 9.9.9"), "<bumped>"
    )
    return pack


class TestHotReload:
    @pytest.mark.parametrize("name", ["bye-attack", "call-hijack"])
    def test_mid_trace_reload_is_alert_neutral(self, name):
        # Swapping in the *same* pack mid-trace must be invisible: the
        # armed sequence/threshold state carries to the same-id rules,
        # so the second half still detects exactly what an undisturbed
        # engine would.
        trace = _attack_trace(name)
        records = list(trace.records)
        engine = _engine()
        half = len(records) // 2
        for record in records[:half]:
            engine.process_frame(record.frame, record.timestamp)
        engine.load_rulepack(load_pack(str(SHIPPED)))
        for record in records[half:]:
            engine.process_frame(record.frame, record.timestamp)

        undisturbed = _engine()
        undisturbed.process_trace(trace)
        assert collections.Counter(engine.alerts) == collections.Counter(
            undisturbed.alerts
        )
        assert engine.rulepack_reloads == 1

    def test_reload_updates_pack_identity(self):
        engine = _engine()
        original = engine.rulepack.label
        engine.load_rulepack(_bumped_pack())
        assert engine.rulepack.label != original
        assert engine.rulepack.version == "9.9.9"
        assert engine.rulepack_reloads == 1

    def test_failed_load_leaves_engine_untouched(self, tmp_path):
        broken = tmp_path / "broken.rules"
        broken.write_text("[pack]\nname = x\nversion = 1.0\n", encoding="utf-8")
        engine = _engine()
        before = engine.ruleset
        with pytest.raises(RulePackError):
            engine.load_rulepack(str(broken))
        assert engine.ruleset is before
        assert engine.rulepack_reloads == 0

    def test_carry_state_false_starts_cold(self):
        trace = _attack_trace("bye-attack")
        engine = _engine()
        engine.process_trace(trace)
        engine.load_rulepack(load_pack(str(SHIPPED)), carry_state=False)
        pristine = {
            r.rule_id: r.checkpoint_state() for r in _engine().ruleset.rules
        }
        for rule in engine.ruleset.rules:
            assert rule.checkpoint_state() == pristine[rule.rule_id]


class TestCheckpointGate:
    def test_restore_under_same_pack_succeeds(self):
        trace = _attack_trace("bye-attack")
        donor = _engine()
        donor.process_trace(trace)
        blob = donor.checkpoint()
        heir = _engine()
        heir.restore(blob)
        assert collections.Counter(heir.alerts) == collections.Counter(
            donor.alerts
        )

    def test_restore_under_other_pack_is_refused(self):
        donor = _engine()
        donor.process_trace(_attack_trace("bye-attack"))
        blob = donor.checkpoint()
        heir = ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=_bumped_pack())
        with pytest.raises(RulePackMismatch):
            heir.restore(blob)

    def test_force_overrides_the_version_gate(self):
        donor = _engine()
        donor.process_trace(_attack_trace("bye-attack"))
        blob = donor.checkpoint()
        heir = ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=_bumped_pack())
        heir.restore(blob, force=True)
        assert collections.Counter(heir.alerts) == collections.Counter(
            donor.alerts
        )

    def test_gate_is_symmetric_around_class_built_rules(self):
        # "No pack" (class-built rules) is a pack identity too: a
        # packless snapshot must not slide into a compiled-pack engine,
        # nor a pack snapshot into a packless engine.
        trace = _attack_trace("bye-attack")
        packless = _class_built_engine()
        packless.process_trace(trace)
        packless_blob = packless.checkpoint()
        with pytest.raises(RulePackMismatch):
            _engine().restore(packless_blob)

        donor = _engine()
        donor.process_trace(trace)
        with pytest.raises(RulePackMismatch):
            _class_built_engine().restore(donor.checkpoint())

        # Same identity on both sides (None == None) still restores.
        heir = _class_built_engine()
        heir.restore(packless_blob)
        assert collections.Counter(heir.alerts) == collections.Counter(
            packless.alerts
        )
