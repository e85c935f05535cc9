"""Protocol modules: the registration unit of the detection pipeline.

A :class:`ProtocolModule` bundles the mechanism the engine needs to
speak one protocol: the Distiller decoder that produces its footprints
and the event generators that consume them.  The stock pipeline is five
modules — SIP, RTP, RTCP, H.323 and accounting — and
``default_generators()`` is a flattened view over :func:`default_modules`.

Detection *policy* is not part of a module: every rule lives in a rule
pack (:mod:`repro.rulespec`; the shipped one is
:func:`~repro.rulespec.shipped_pack`).  Adding a protocol end-to-end
therefore means writing one module:

* a decoder ``(distiller, payload, common) -> footprint | None | CLAIMED``
  (see :mod:`repro.core.distiller`),
* generators declaring ``protocols`` so indexed dispatch routes only
  the footprints they consume,

registering it — ``ScidiveEngine(modules=default_modules() + [mine],
rulepack=pack)`` — and giving ``pack`` the rules for the new events
(listing them under ``extra_events`` in its ``[pack]`` section).

Generator factories are callables so one module instance can stamp out
fresh (stateful) pipelines for many engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.distiller import (
    Distiller,
    decode_accounting,
    decode_h323,
    decode_rtcp,
    decode_rtp,
    decode_sip,
)
from repro.core.events import EventGenerator
from repro.core.footprint import Protocol

GeneratorFactory = Callable[[], list[EventGenerator]]

# Decode-priority bands for the stock chain; custom modules slot
# anywhere (lower runs earlier).  RTP must stay last: it owns the
# media-port garbage fallback that claims anything undecodable.
DECODE_SIP = 10
DECODE_H323 = 20
DECODE_ACCOUNTING = 30
DECODE_RTCP = 40
DECODE_RTP = 50


def _no_generators() -> list[EventGenerator]:
    return []


@dataclass(frozen=True)
class ProtocolModule:
    """One protocol's decoder + generators, as a unit.

    ``protocols`` lists the :class:`Protocol` values the module's
    footprints carry (dispatch keys); ``decoder`` may be None for a
    module that only consumes footprints other modules decode.
    """

    name: str
    protocols: frozenset[Protocol]
    decoder: Callable | None = None
    decode_priority: int = 100
    generators: GeneratorFactory = field(default=_no_generators)
    description: str = ""


# -- the stock modules ------------------------------------------------------


def sip_module(
    monitoring_window: float = 0.5,
    mobility_window: float = 60.0,
) -> ProtocolModule:
    """SIP signalling: dialogs, orphan-RTP arming, IM, auth, malformed."""
    from repro.core.event_generators import (
        AuthEventGenerator,
        DialogEventGenerator,
        ImSourceGenerator,
        MalformedSipGenerator,
        OrphanRtpGenerator,
    )

    return ProtocolModule(
        name="sip",
        protocols=frozenset({Protocol.SIP}),
        decoder=decode_sip,
        decode_priority=DECODE_SIP,
        generators=lambda: [
            DialogEventGenerator(),
            OrphanRtpGenerator(monitoring_window=monitoring_window),
            ImSourceGenerator(mobility_window=mobility_window),
            AuthEventGenerator(),
            MalformedSipGenerator(),
        ],
        description="SIP dialogs, teardown watches, IM identity, REGISTER auth",
    )


def rtp_module(seq_jump_threshold: int = 100) -> ProtocolModule:
    """RTP media: sequence/jitter/rogue-source sanity and garbage frames."""
    from repro.core.event_generators import RtpStreamGenerator

    return ProtocolModule(
        name="rtp",
        protocols=frozenset({Protocol.RTP}),
        decoder=decode_rtp,
        decode_priority=DECODE_RTP,
        generators=lambda: [RtpStreamGenerator(seq_jump_threshold=seq_jump_threshold)],
        description="RTP stream continuity, rogue sources, media-port garbage",
    )


def rtcp_module(monitoring_window: float = 0.5) -> ProtocolModule:
    """RTCP control: forged-BYE orphans and SSRC impersonation."""
    from repro.core.rtcp_generators import RtcpByeGenerator, SsrcTrackGenerator

    return ProtocolModule(
        name="rtcp",
        protocols=frozenset({Protocol.RTCP}),
        decoder=decode_rtcp,
        decode_priority=DECODE_RTCP,
        generators=lambda: [
            RtcpByeGenerator(monitoring_window=monitoring_window),
            SsrcTrackGenerator(),
        ],
        description="RTCP BYE watches, SSRC ownership tracking",
    )


def h323_module(monitoring_window: float = 0.5) -> ProtocolModule:
    """The H.323 CMP: H.225 call state and forged RELEASE COMPLETE."""
    from repro.core.h323_generators import H323OrphanGenerator

    return ProtocolModule(
        name="h323",
        protocols=frozenset({Protocol.H225}),
        decoder=decode_h323,
        decode_priority=DECODE_H323,
        generators=lambda: [H323OrphanGenerator(monitoring_window=monitoring_window)],
        description="H.225 call signalling and forged-release detection",
    )


def accounting_module() -> ProtocolModule:
    """The billing line protocol: transactions vs observed call setups."""
    from repro.core.event_generators import AccountingGenerator

    return ProtocolModule(
        name="accounting",
        protocols=frozenset({Protocol.ACCOUNTING}),
        decoder=decode_accounting,
        decode_priority=DECODE_ACCOUNTING,
        generators=lambda: [AccountingGenerator()],
        description="Billing transactions vs observed call setups",
    )


def default_modules(
    monitoring_window: float = 0.5,
    seq_jump_threshold: int = 100,
    mobility_window: float = 60.0,
) -> list[ProtocolModule]:
    """The five stock modules, in the pipeline's canonical order."""
    return [
        sip_module(
            monitoring_window=monitoring_window, mobility_window=mobility_window
        ),
        rtp_module(seq_jump_threshold=seq_jump_threshold),
        rtcp_module(monitoring_window=monitoring_window),
        h323_module(monitoring_window=monitoring_window),
        accounting_module(),
    ]


# -- assembling a pipeline from modules -------------------------------------


def generators_from(modules: Iterable[ProtocolModule]) -> list[EventGenerator]:
    """Instantiate every module's generators, in module order."""
    generators: list[EventGenerator] = []
    for module in modules:
        generators.extend(module.generators())
    return generators


def distiller_from(modules: Iterable[ProtocolModule], **overrides) -> Distiller:
    """A Distiller whose chain is the modules' decoders, priority-sorted.

    ``overrides`` pass through to the Distiller constructor (ports etc.).
    """
    decoders = tuple(
        module.decoder
        for module in sorted(modules, key=lambda m: m.decode_priority)
        if module.decoder is not None
    )
    return Distiller(decoders=decoders, **overrides)
