"""The shipped pack is the detection policy: pinned against a golden.

``tests/rulespec/golden/default-alerts.json`` holds the alerts the
paper's rules raised on the ten harness scenarios (seed 7), replayed
at each scenario's own vantage.  It was captured from the Python rule
library the pack replaced, so it is an independent reference: the
default engine, the broadcast-dispatch oracle and a 2-worker cluster on
every backend must all raise exactly those alerts.  Alert identity
excludes the provenance fields (``pack_version``/``rule_source``).
"""

from __future__ import annotations

import collections
import json
from pathlib import Path

import pytest

from repro.cluster import ScidiveCluster
from repro.core import rules_library
from repro.core.config import ScidiveConfig
from repro.core.engine import ScidiveEngine
from repro.experiments.harness import (
    run_benign,
    run_billing_fraud,
    run_bye_attack,
    run_call_hijack,
    run_fake_im,
    run_password_guess,
    run_register_dos,
    run_rtcp_bye_attack,
    run_rtp_attack,
    run_ssrc_spoof,
)
from repro.rulespec import compile_pack, parse_pack, shipped_pack
from repro.voip.testbed import CLIENT_A_IP

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "default-alerts.json").read_text(
        encoding="utf-8"
    )
)

SCENARIOS = {
    "benign": run_benign,
    "billing-fraud": run_billing_fraud,
    "bye-attack": run_bye_attack,
    "call-hijack": run_call_hijack,
    "fake-im": run_fake_im,
    "password-guess": run_password_guess,
    "register-dos": run_register_dos,
    "rtcp-bye-attack": run_rtcp_bye_attack,
    "rtp-attack": run_rtp_attack,
    "ssrc-spoof": run_ssrc_spoof,
}

_TRACES: dict[str, object] = {}


def _scenario_trace(name: str):
    """Capture each scenario once per test session; replays are cheap."""
    if name not in _TRACES:
        _TRACES[name] = SCENARIOS[name](seed=7).testbed.ids_tap.trace
    return _TRACES[name]


def _signature(alert) -> list:
    return [alert.rule_id, alert.rule_name, alert.time, alert.session,
            alert.severity.name, alert.attack_class, alert.message]


def _engine_signatures(name: str, **engine_kwargs) -> list[list]:
    engine = ScidiveEngine(vantage_ip=GOLDEN[name]["vantage_ip"], **engine_kwargs)
    engine.process_trace(_scenario_trace(name))
    return [_signature(a) for a in engine.alerts]


def _alerts(trace, rulepack=None) -> collections.Counter:
    engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=rulepack)
    engine.process_trace(trace)
    return collections.Counter(engine.alerts)


@pytest.fixture(scope="module")
def pack():
    return shipped_pack()


class TestScenarioEquivalence:
    def test_golden_covers_every_scenario(self):
        assert sorted(GOLDEN) == sorted(SCENARIOS)
        assert sum(len(entry["alerts"]) for entry in GOLDEN.values()) == 19

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pack_matches_rule_classes(self, name):
        # Same alerts in the same order, under indexed and broadcast
        # dispatch alike.
        expected = GOLDEN[name]["alerts"]
        assert _engine_signatures(name) == expected
        assert _engine_signatures(name, indexed_dispatch=False) == expected

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_config_built_engine_matches_golden(self, name):
        config = ScidiveConfig(vantage_ip=GOLDEN[name]["vantage_ip"])
        engine = config.build_engine()
        engine.process_trace(_scenario_trace(name))
        got = collections.Counter(tuple(_signature(a)) for a in engine.alerts)
        assert got == collections.Counter(map(tuple, GOLDEN[name]["alerts"]))

    @pytest.mark.parametrize("backend", ["serial", "threads", "process"])
    def test_two_worker_cluster_matches_golden(self, backend):
        for name, entry in sorted(GOLDEN.items()):
            result = ScidiveCluster(
                workers=2, backend=backend, vantage_ip=entry["vantage_ip"]
            ).process_trace(_scenario_trace(name))
            got = collections.Counter(tuple(_signature(a)) for a in result.alerts)
            assert got == collections.Counter(map(tuple, entry["alerts"])), name

    def test_benign_traffic_stays_silent(self, pack):
        assert not _alerts(_scenario_trace("benign"), rulepack=pack)

    def test_dsl_alerts_carry_provenance(self, pack):
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        engine.process_trace(_scenario_trace("bye-attack"))
        assert engine.alerts
        for alert in engine.alerts:
            assert alert.pack_version == pack.label
            assert alert.rule_source
            payload = alert.to_dict()
            assert payload["pack_version"] == pack.label
            assert payload["rule_source"] == alert.rule_source


class TestCompileShape:
    def test_same_rule_ids_as_rule_constants(self, pack):
        # The RULE_* ids the code base imports name exactly the pack's
        # rules, and compiling keeps the pack's order.
        constants = {
            value for key, value in vars(rules_library).items()
            if key.startswith("RULE_")
        }
        assert [r.rule_id for r in compile_pack(pack).rules] == [
            rdef.rule_id for rdef in pack.rules
        ]
        assert {rdef.rule_id for rdef in pack.rules} == constants

    def test_compiled_ruleset_is_indexed(self, pack):
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        engine.process_trace(_scenario_trace("rtp-attack"))
        # The compiled pack must land in the indexed dispatch path, not
        # silently fall back to broadcast.
        assert engine.ruleset.dispatch_skipped > 0

    def test_rule_stats_surface_pack_provenance(self, pack):
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, rulepack=pack)
        for row in engine.ruleset.rule_stats():
            assert row["pack_version"] == pack.label
            assert str(row["source_location"]).startswith(pack.source_path)

    def test_recompiling_canonical_form_is_identical(self, pack):
        reparsed, _ = parse_pack(pack.describe(), "<describe>")
        trace = _scenario_trace("call-hijack")
        assert _alerts(trace, rulepack=reparsed) == _alerts(trace, rulepack=pack)
