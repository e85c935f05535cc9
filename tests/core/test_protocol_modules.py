"""Protocol modules, dispatch tables and the rule index.

A :class:`ProtocolModule` bundles one protocol's decoder and generators;
its rules come from a rule pack.  The engine builds per-protocol
generator dispatch tables from the generators' declared ``protocols``
and the RuleSet builds a trigger-event → rules index from each rule's
``trigger_events``.  These tests pin down the stock module set, the
flattened views over it, both indexes' semantics (including
invalidation), and that a brand-new protocol registers end-to-end —
module plus pack — without touching engine code.
"""

from __future__ import annotations

from repro.core.alerts import AlertLog
from repro.core.distiller import CLAIMED, DEFAULT_DECODERS, Distiller
from repro.core.engine import ScidiveEngine
from repro.core.event_generators import default_generators
from repro.core.events import Event, EventGenerator
from repro.core.footprint import Footprint, Protocol
from repro.core.protocols import (
    ProtocolModule,
    default_modules,
    distiller_from,
    generators_from,
)
from repro.core.rules import RuleSet, SingleEventRule
from repro.core.trail import TrailManager
from repro.net.addr import IPv4Address, MacAddress
from repro.net.packet import build_udp_frame
from repro.rulespec import RulePack, compile_pack, parse_pack, shipped_pack

SRC_MAC = MacAddress("02:00:00:00:00:01")
DST_MAC = MacAddress("02:00:00:00:00:02")
A = IPv4Address.parse("10.0.0.10")
B = IPv4Address.parse("10.0.0.20")


def _event(name: str, time: float = 1.0, session: str = "s") -> Event:
    return Event(name=name, time=time, session=session)


class TestDefaultModules:
    def test_stock_module_set(self):
        modules = default_modules()
        assert [m.name for m in modules] == ["sip", "rtp", "rtcp", "h323", "accounting"]
        assert all(m.decoder is not None for m in modules)
        assert all(m.description for m in modules)

    def test_decode_priorities_put_rtp_last(self):
        # RTP owns the media-port garbage fallback; anything after it in
        # the chain would never see a media-port payload.
        chain = sorted(default_modules(), key=lambda m: m.decode_priority)
        assert chain[-1].name == "rtp"
        priorities = [m.decode_priority for m in chain]
        assert priorities == sorted(set(priorities)), "priorities must be distinct"

    def test_generators_from_matches_default_generators(self):
        flat = generators_from(default_modules())
        legacy = default_generators()
        assert [g.name for g in flat] == [g.name for g in legacy]
        assert all(g.protocols is not None for g in flat), \
            "stock generators must declare their protocols"

    def test_default_ruleset_is_the_shipped_pack(self):
        engine = ScidiveEngine(modules=default_modules())
        assert engine.rulepack is shipped_pack()
        assert [r.rule_id for r in engine.ruleset.rules] == [
            rdef.rule_id for rdef in shipped_pack().rules
        ]
        assert all(r.trigger_events for r in engine.ruleset.rules), \
            "stock rules must declare their trigger events"

    def test_distiller_from_restores_stock_chain(self):
        distiller = distiller_from(default_modules())
        assert distiller.decoders == DEFAULT_DECODERS

    def test_distiller_from_passes_overrides(self):
        distiller = distiller_from(default_modules(), accounting_port=1234)
        assert distiller.accounting_port == 1234

    def test_module_parameters_reach_generators(self):
        generators = generators_from(default_modules(monitoring_window=9.0))
        orphan = next(g for g in generators if g.name == "orphan-rtp")
        assert orphan.monitoring_window == 9.0


class TestGeneratorDispatchTables:
    def test_sip_table_contains_only_sip_consumers(self):
        engine = ScidiveEngine()
        names = [g.name for g in engine.generators_for(Protocol.SIP)]
        assert names == ["dialog", "orphan-rtp", "im-source", "auth",
                         "malformed-sip", "accounting"]

    def test_rtp_table_excludes_pure_sip_generators(self):
        engine = ScidiveEngine()
        names = {g.name for g in engine.generators_for(Protocol.RTP)}
        assert "dialog" not in names and "auth" not in names
        assert {"orphan-rtp", "rtp-stream"} <= names

    def test_tables_preserve_registration_order(self):
        engine = ScidiveEngine()
        order = {g.name: i for i, g in enumerate(engine.generators)}
        for protocol in Protocol:
            positions = [order[g.name] for g in engine.generators_for(protocol)]
            assert positions == sorted(positions)

    def test_wildcard_generator_in_every_table(self):
        class Tap(EventGenerator):
            name = "tap"
            protocols = None  # broadcast

            def on_footprint(self, footprint, trail, ctx):
                return []

        engine = ScidiveEngine()
        engine.generators = engine.generators + [Tap()]
        for protocol in Protocol:
            assert "tap" in {g.name for g in engine.generators_for(protocol)}

    def test_reassigning_generators_invalidates_tables(self):
        engine = ScidiveEngine()
        assert engine.generators_for(Protocol.SIP)  # build tables
        engine.generators = [g for g in engine.generators if g.name != "dialog"]
        assert "dialog" not in {g.name for g in engine.generators_for(Protocol.SIP)}

    def test_broadcast_mode_dispatches_everything_everywhere(self):
        engine = ScidiveEngine(indexed_dispatch=False)
        for protocol in Protocol:
            assert engine.generators_for(protocol) == tuple(engine.generators)


class TestRuleIndex:
    def test_candidates_preserve_ruleset_order(self):
        ruleset = compile_pack(shipped_pack())
        order = {r.rule_id: i for i, r in enumerate(ruleset.rules)}
        for name in ("OrphanRtpAfterBye", "RtpSourceMismatch", "AccountingMismatch"):
            positions = [order[r.rule_id] for r in ruleset.candidates_for(name)]
            assert positions == sorted(positions)

    def test_unknown_event_gets_only_wildcards(self):
        ruleset = compile_pack(shipped_pack())
        assert ruleset.candidates_for("NoSuchEvent") == ()
        wildcard = SingleEventRule("W", "w", "X")
        wildcard.trigger_events = None
        ruleset.add(wildcard)
        assert ruleset.candidates_for("NoSuchEvent") == (wildcard,)

    def test_add_and_remove_invalidate_index(self):
        ruleset = RuleSet([SingleEventRule("A", "a", "EventA")])
        assert [r.rule_id for r in ruleset.candidates_for("EventA")] == ["A"]
        ruleset.add(SingleEventRule("B", "b", "EventA"))
        assert [r.rule_id for r in ruleset.candidates_for("EventA")] == ["A", "B"]
        ruleset.remove("A")
        assert [r.rule_id for r in ruleset.candidates_for("EventA")] == ["B"]

    def test_rebuild_index_after_in_place_mutation(self):
        rule = SingleEventRule("A", "a", "EventA")
        ruleset = RuleSet([rule])
        assert ruleset.candidates_for("EventB") == ()
        rule.trigger_events = frozenset({"EventA", "EventB"})
        ruleset.rebuild_index()
        assert ruleset.candidates_for("EventB") == (rule,)

    def test_dispatch_skipped_counts_avoided_evaluations(self):
        ruleset = RuleSet([SingleEventRule("A", "a", "EventA"),
                           SingleEventRule("B", "b", "EventB")])
        trails, log = TrailManager(), AlertLog()
        ruleset.match(_event("EventA"), trails, log)
        assert ruleset.dispatch_skipped == 1  # B never consulted
        assert ruleset.rules[0].matches_attempted == 1
        assert ruleset.rules[1].matches_attempted == 0

    def test_broadcast_counts_every_rule_as_attempted(self):
        ruleset = RuleSet([SingleEventRule("A", "a", "EventA"),
                           SingleEventRule("B", "b", "EventB")],
                          indexed=False)
        ruleset.match(_event("EventA"), TrailManager(), AlertLog())
        assert ruleset.dispatch_skipped == 0
        assert all(r.matches_attempted == 1 for r in ruleset.rules)

    def test_reset_zeroes_dispatch_skipped(self):
        ruleset = RuleSet([SingleEventRule("A", "a", "EventA"),
                           SingleEventRule("B", "b", "EventB")])
        ruleset.match(_event("EventA"), TrailManager(), AlertLog())
        ruleset.reset()
        assert ruleset.dispatch_skipped == 0
        assert all(r.matches_attempted == 0 for r in ruleset.rules)


# -- a brand-new protocol, registered end-to-end ----------------------------


def _toy_decoder(distiller: Distiller, payload: bytes, common: dict):
    if not payload.startswith(b"TOY"):
        return None
    if payload.startswith(b"TOY IGNORE"):
        return CLAIMED
    return Footprint(**common)  # base footprint: Protocol.OTHER


class _ToyGenerator(EventGenerator):
    name = "toy"
    protocols = frozenset({Protocol.OTHER})

    def on_footprint(self, footprint, trail, ctx):
        return [Event(name="ToyPing", time=footprint.timestamp,
                      session=f"{footprint.src}")]


def _toy_module() -> ProtocolModule:
    return ProtocolModule(
        name="toy",
        protocols=frozenset({Protocol.OTHER}),
        decoder=_toy_decoder,
        decode_priority=5,  # before SIP: "TOY" is not valid SIP anyway
        generators=lambda: [_ToyGenerator()],
        description="end-to-end registration exercise",
    )


def _toy_pack() -> RulePack:
    """The shipped pack plus TOY-001, which fires on the toy module's
    ``ToyPing`` — an event the pack must whitelist in ``extra_events``."""
    shipped = shipped_pack()
    head = f"version = {shipped.version}\n"
    text = shipped.describe().replace(
        head, head + "extra_events = ToyPing\n", 1
    ) + "\n[rule TOY-001]\ntype = single\nname = toy ping\nevent = ToyPing\n"
    pack, issues = parse_pack(text, "<toy>")
    assert pack is not None, issues
    return pack


def _toy_engine() -> ScidiveEngine:
    return ScidiveEngine(
        modules=default_modules() + [_toy_module()], rulepack=_toy_pack()
    )


def _toy_frame(payload: bytes) -> bytes:
    return build_udp_frame(SRC_MAC, DST_MAC, A, B, 7777, 7777, payload)


class TestToyProtocolEndToEnd:
    def test_frame_to_alert_through_registered_module(self):
        engine = _toy_engine()
        alerts = engine.process_frame(_toy_frame(b"TOY hello"), 1.0)
        assert [a.rule_id for a in alerts] == ["TOY-001"]
        assert engine.stats.footprints == 1
        # OTHER footprints reach only the toy generator.
        assert [g.name for g in engine.generators_for(Protocol.OTHER)] == ["toy"]

    def test_claimed_payload_consumed_without_footprint(self):
        engine = _toy_engine()
        assert engine.process_frame(_toy_frame(b"TOY IGNORE"), 1.0) == []
        assert engine.stats.footprints == 0
        assert engine.distiller.stats.ignored == 1

    def test_stock_protocols_unaffected_by_extra_module(self):
        stock = ScidiveEngine()
        extended = _toy_engine()
        assert ([g.name for g in extended.generators_for(Protocol.SIP)]
                == [g.name for g in stock.generators_for(Protocol.SIP)])
        assert ([r.rule_id for r in extended.ruleset.rules][:-1]
                == [r.rule_id for r in stock.ruleset.rules])
