"""SCIDIVE core: Distiller, Trails, Event Generators, Rule Matching
Engine — the paper's primary contribution."""

from repro.core.alerts import Alert, AlertLog, Severity
from repro.core.config import ScidiveConfig
from repro.core.correlation import CorrelationHub
from repro.core.response import Action, Firewall, ResponseEngine, ResponsePolicy
from repro.core.export import alert_to_dict, event_to_dict, read_alerts_jsonl, write_alerts_jsonl
from repro.core.distiller import CLAIMED, Distiller, DistillerStats
from repro.core.engine import EngineStats, ScidiveEngine
from repro.core.hooks import FootprintHook
from repro.core.protocols import (
    ProtocolModule,
    accounting_module,
    default_modules,
    distiller_from,
    generators_from,
    h323_module,
    rtcp_module,
    rtp_module,
    sip_module,
)
from repro.core.event_generators import (
    AccountingGenerator,
    AuthEventGenerator,
    DialogEventGenerator,
    ImSourceGenerator,
    MalformedSipGenerator,
    OrphanRtpGenerator,
    RtpStreamGenerator,
    default_generators,
)
from repro.core.events import Event, EventGenerator, GeneratorContext
from repro.core.footprint import (
    AccountingFootprint,
    Footprint,
    MalformedFootprint,
    Protocol,
    RtcpFootprint,
    RtpFootprint,
    SipFootprint,
)
from repro.core.rules import (
    ConjunctionRule,
    Rule,
    RuleSet,
    SequenceRule,
    SingleEventRule,
    ThresholdRule,
)
from repro.core.rtcp_generators import RtcpByeGenerator, SsrcTrackGenerator
from repro.core.rules_library import (
    RULE_BILLING_FRAUD,
    RULE_BYE_ATTACK,
    RULE_RTCP_BYE_ORPHAN,
    RULE_SSRC_COLLISION,
    RULE_CALL_HIJACK,
    RULE_FAKE_IM,
    RULE_PASSWORD_GUESS,
    RULE_REGISTER_DOS,
    RULE_RTP_MALFORMED,
    RULE_RTP_SEQ,
    RULE_RTP_SOURCE,
)
from repro.core.state import RegistrationTracker, SipStateTracker
from repro.core.trail import Session, Trail, TrailManager

__all__ = [
    "AccountingFootprint",
    "AccountingGenerator",
    "Alert",
    "AlertLog",
    "AuthEventGenerator",
    "Action",
    "CLAIMED",
    "CorrelationHub",
    "Firewall",
    "FootprintHook",
    "ProtocolModule",
    "ResponseEngine",
    "ResponsePolicy",
    "ConjunctionRule",
    "DialogEventGenerator",
    "Distiller",
    "DistillerStats",
    "EngineStats",
    "Event",
    "EventGenerator",
    "Footprint",
    "GeneratorContext",
    "ImSourceGenerator",
    "MalformedFootprint",
    "MalformedSipGenerator",
    "OrphanRtpGenerator",
    "Protocol",
    "RULE_BILLING_FRAUD",
    "RULE_BYE_ATTACK",
    "RULE_CALL_HIJACK",
    "RULE_FAKE_IM",
    "RULE_PASSWORD_GUESS",
    "RULE_REGISTER_DOS",
    "RULE_RTP_MALFORMED",
    "RULE_RTP_SEQ",
    "RULE_RTP_SOURCE",
    "RULE_RTCP_BYE_ORPHAN",
    "RULE_SSRC_COLLISION",
    "RegistrationTracker",
    "RtcpByeGenerator",
    "ScidiveConfig",
    "SsrcTrackGenerator",
    "Rule",
    "RuleSet",
    "RtcpFootprint",
    "RtpFootprint",
    "RtpStreamGenerator",
    "ScidiveEngine",
    "SequenceRule",
    "Session",
    "Severity",
    "SingleEventRule",
    "SipFootprint",
    "SipStateTracker",
    "ThresholdRule",
    "Trail",
    "TrailManager",
    "accounting_module",
    "alert_to_dict",
    "default_generators",
    "default_modules",
    "distiller_from",
    "event_to_dict",
    "generators_from",
    "h323_module",
    "read_alerts_jsonl",
    "rtcp_module",
    "rtp_module",
    "sip_module",
    "write_alerts_jsonl",
]
