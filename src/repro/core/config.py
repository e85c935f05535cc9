"""Deployment configuration: the event generators' tunables.

The paper positions SCIDIVE among IDSs that "can be customized with
detection rules specific to the environment in which they are
deployed".  That customisation has two halves:

* :class:`ScidiveConfig` gathers the knobs the event generators expose
  — monitoring windows, the sequence-jump bound, mobility allowances —
  and round-trips through plain dicts (JSON-friendly);
* rule thresholds, windows and on/off toggles are detection policy and
  live in a rule pack (:mod:`repro.rulespec`): edit a copy of the
  shipped pack and pass it as ``ScidiveEngine(rulepack=...)`` or
  ``repro replay --rules``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

from repro.core.engine import ScidiveEngine
from repro.core.event_generators import (
    AccountingGenerator,
    AuthEventGenerator,
    DialogEventGenerator,
    ImSourceGenerator,
    MalformedSipGenerator,
    OrphanRtpGenerator,
    RtpStreamGenerator,
)
from repro.core.h323_generators import H323OrphanGenerator
from repro.core.rtcp_generators import RtcpByeGenerator, SsrcTrackGenerator


@dataclass(slots=True)
class ScidiveConfig:
    """Every generator tunable in one place; defaults match the paper."""

    # Deployment.
    vantage_ip: str | None = None
    vantage_mac: str | None = None
    name: str = "scidive"

    # §4.3: the orphan-flow monitoring window m (seconds).
    monitoring_window: float = 0.5
    # §4.2.4: the empirical sequence-jump bound (paper: 100).
    seq_jump_threshold: int = 100
    # §4.2.2: how quickly a user can plausibly change IP (seconds).
    mobility_window: float = 60.0
    # How long a re-registration legitimises a new source (seconds).
    reregistration_window: float = 120.0

    # -- construction -----------------------------------------------------

    def build_generators(self) -> list:
        return [
            DialogEventGenerator(),
            OrphanRtpGenerator(monitoring_window=self.monitoring_window),
            RtpStreamGenerator(seq_jump_threshold=self.seq_jump_threshold),
            ImSourceGenerator(
                mobility_window=self.mobility_window,
                reregistration_window=self.reregistration_window,
            ),
            AuthEventGenerator(),
            MalformedSipGenerator(),
            AccountingGenerator(),
            RtcpByeGenerator(monitoring_window=self.monitoring_window),
            SsrcTrackGenerator(),
            H323OrphanGenerator(monitoring_window=self.monitoring_window),
        ]

    def build_engine(self) -> ScidiveEngine:
        return ScidiveEngine(
            vantage_ip=self.vantage_ip,
            vantage_mac=self.vantage_mac,
            generators=self.build_generators(),
            name=self.name,
        )

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScidiveConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ScidiveConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))
