"""Tests for deployment configuration and engine state housekeeping."""

from __future__ import annotations

import pytest

from repro.attacks import ByeAttack
from repro.core.config import ScidiveConfig
from repro.core.engine import ScidiveEngine
from repro.core.rules_library import RULE_BYE_ATTACK, RULE_REGISTER_DOS, RULE_RTP_SEQ
from repro.rulespec import parse_pack, shipped_pack
from repro.voip.scenarios import normal_call
from repro.voip.testbed import CLIENT_A_IP, Testbed, TestbedConfig


def _edited_pack(old: str, new: str):
    """The shipped pack edited the way an operator tunes rules: copy the
    text, rewrite some keys, bump the version."""
    text = shipped_pack().source_text
    assert text.count(old) == 1
    text = text.replace(old, new).replace("version = 1.0.0", "version = 1.0.1")
    pack, issues = parse_pack(text, "<edited>")
    assert pack is not None, issues
    return pack


class TestScidiveConfig:
    def test_defaults_match_paper(self):
        config = ScidiveConfig()
        assert config.seq_jump_threshold == 100
        assert config.monitoring_window == 0.5
        assert shipped_pack().rule(RULE_REGISTER_DOS).threshold == 5

    def test_roundtrip_dict(self):
        config = ScidiveConfig(vantage_ip="10.0.0.10", seq_jump_threshold=250)
        again = ScidiveConfig.from_dict(config.to_dict())
        assert again == config

    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "scidive.json"
        config = ScidiveConfig(mobility_window=9.0)
        config.save(path)
        assert ScidiveConfig.load(path) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ScidiveConfig.from_dict({"vantage_ip": None, "bogus": 1})
        # Rule tuning moved to rule packs; the old keys are unknown now.
        for key in ("dos_threshold", "disabled_rules"):
            with pytest.raises(ValueError, match=key):
                ScidiveConfig.from_dict({key: 1})

    def test_built_engine_detects(self):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveConfig(vantage_ip=CLIENT_A_IP).build_engine()
        engine.attach(testbed.ids_tap)
        attack = ByeAttack(testbed)
        testbed.register_all()
        testbed.phone_a.call("sip:bob@example.com")
        testbed.run_for(1.5)
        attack.launch_now()
        testbed.run_for(1.5)
        assert engine.alerts_for_rule(RULE_BYE_ATTACK)

    def test_built_engine_dispatches_default_generators(self):
        # Same generators, same order, for every protocol: the config
        # builds the stock modules' generators, not a list of its own.
        from repro.core.footprint import Protocol

        built = ScidiveConfig().build_engine()
        default = ScidiveEngine()
        names = lambda gens: [g.name for g in gens]  # noqa: E731
        assert names(built.generators) == names(default.generators)
        for protocol in Protocol:
            assert names(built.generators_for(protocol)) == names(
                default.generators_for(protocol)
            )

    def test_reregistration_window_reaches_im_generator(self):
        from repro.core.event_generators import ImSourceGenerator

        engine = ScidiveConfig(reregistration_window=7.0).build_engine()
        (im,) = [g for g in engine.generators if isinstance(g, ImSourceGenerator)]
        assert im.reregistration_window == 7.0

    def test_disabled_rule_never_fires(self):
        from repro.attacks import RtpAttack

        testbed = Testbed(TestbedConfig(seed=7))
        muted = _edited_pack("[rule RTP-001]\n", "[rule RTP-001]\nenabled = false\n")
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=muted)
        engine.attach(testbed.ids_tap)
        attack = RtpAttack(testbed, packets=30)
        testbed.register_all()
        testbed.phone_a.call("sip:bob@example.com")
        testbed.run_for(1.5)
        attack.launch_now()
        testbed.run_for(1.5)
        assert engine.alerts_for_rule(RULE_RTP_SEQ) == []
        # Other media rules still cover the attack.
        assert engine.alerts

    def test_threshold_knob_propagates(self):
        pack = _edited_pack(
            "threshold = 5\nwindow = 10.0\n", "threshold = 2\nwindow = 99.0\n"
        )
        engine = ScidiveEngine(rulepack=pack)
        rule = next(r for r in engine.ruleset.rules if r.rule_id == RULE_REGISTER_DOS)
        assert rule.threshold == 2
        assert rule.window == 99.0


class TestHousekeeping:
    def _engine_after_calls(self, n_calls: int, housekeep_at: float | None):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveConfig(vantage_ip=CLIENT_A_IP).build_engine()
        engine.attach(testbed.ids_tap)
        testbed.register_all()
        for __ in range(n_calls):
            normal_call(testbed, talk_seconds=0.5, settle=0.3)
        if housekeep_at is not None:
            engine.state_idle_timeout = housekeep_at
            engine.housekeep(testbed.now())
        return testbed, engine

    def test_expire_reclaims_dead_sessions(self):
        __, engine = self._engine_after_calls(3, housekeep_at=0.1)
        assert engine.trails.trail_count == 0
        assert engine.trails.session_count == 0
        assert engine.sip_state.calls == {}

    def test_expire_keeps_recent_state(self):
        __, engine = self._engine_after_calls(3, housekeep_at=3600.0)
        assert engine.trails.trail_count > 0
        assert engine.trails.session_count >= 3

    def test_automatic_housekeeping_counter(self):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveConfig(vantage_ip=CLIENT_A_IP).build_engine()
        engine.housekeeping_every = 50  # very eager
        engine.state_idle_timeout = 0.2
        engine.attach(testbed.ids_tap)
        testbed.register_all()
        for __ in range(3):
            normal_call(testbed, talk_seconds=0.5, settle=0.3)
        assert engine.expired_trails > 0

    def test_detection_unharmed_by_housekeeping(self):
        testbed = Testbed(TestbedConfig(seed=7))
        engine = ScidiveConfig(vantage_ip=CLIENT_A_IP).build_engine()
        engine.housekeeping_every = 50
        engine.state_idle_timeout = 30.0  # generous: live calls survive
        engine.attach(testbed.ids_tap)
        attack = ByeAttack(testbed)
        testbed.register_all()
        normal_call(testbed, talk_seconds=0.5)
        testbed.phone_a.call("sip:bob@example.com")
        testbed.run_for(1.5)
        attack.launch_now()
        testbed.run_for(1.5)
        assert engine.alerts_for_rule(RULE_BYE_ATTACK)

    def test_media_index_cleaned(self):
        from repro.net.addr import Endpoint

        testbed, engine = self._engine_after_calls(1, housekeep_at=0.1)
        assert engine.trails.media_owner(Endpoint.parse("10.0.0.10:40000")) is None


class TestOptionsHandling:
    def test_options_answered_with_allow(self, testbed):
        from repro.net.addr import Endpoint
        from repro.sip.message import SipResponse, parse_message

        testbed.register_all()
        got: list = []

        def on_datagram(payload, src, now):
            got.append(parse_message(payload))

        sock = testbed.stack_b.bind(5099, on_datagram)
        request = (
            b"OPTIONS sip:alice@10.0.0.10 SIP/2.0\r\n"
            b"Via: SIP/2.0/UDP 10.0.0.20:5099;branch=z9hG4bK-opt\r\n"
            b"Max-Forwards: 70\r\n"
            b"From: <sip:bob@example.com>;tag=o1\r\n"
            b"To: <sip:alice@example.com>\r\n"
            b"Call-ID: opt-1\r\nCSeq: 1 OPTIONS\r\nContent-Length: 0\r\n\r\n"
        )
        sock.send_to(Endpoint.parse("10.0.0.10:5060"), request)
        testbed.run_for(0.5)
        assert got and isinstance(got[0], SipResponse)
        assert got[0].status == 200
        assert "INVITE" in (got[0].headers.get("Allow") or "")
