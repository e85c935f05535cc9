"""Compile a :class:`~repro.rulespec.model.RulePack` onto the engine's rules.

The DSL deliberately has no runtime of its own: every shape lowers onto
one of the existing rule classes (``SingleEventRule`` / ``ThresholdRule``
/ ``SequenceRule`` / ``ConjunctionRule``), so the compiled pack inherits
trigger-event indexing, cooldown suppression, LRU group caps, the
exception firewall and per-rule checkpointing without any new code
paths.  A key the pack omits takes the class constructor's default
(the per-shape tables below mirror them).

``group_by`` / ``correlate`` key specs:

=================  ======================================================
``session``        the event's session id (the class default)
``attr:NAME``      ``event.attrs[NAME]``, falling back to the session
``const:VALUE``    a fixed key — all events share one group (the
                   billing-fraud correlation)
``builtin:NAME``   a named Python key function from
                   :data:`BUILTIN_GROUP_KEYS` (e.g. ``media_src``,
                   which packs Endpoint objects into C-hashable tuples)
=================  ======================================================

``where`` clauses are ``ATTR OP VALUE`` comparisons over ``event.attrs``
(ANDed when repeated); a missing attribute or a type-incompatible
comparison makes the clause false.
"""

from __future__ import annotations

from typing import Callable

from repro.core.alerts import Severity
from repro.core.events import Event
from repro.core.rules import (
    ConjunctionRule,
    Rule,
    RuleSet,
    SequenceRule,
    SingleEventRule,
    ThresholdRule,
)
from repro.net.addr import Endpoint
from repro.rulespec.model import RuleDef, RulePack
from repro.rulespec.parser import WHERE_RE, RulePackError


def _media_src_key(event: Event):
    """Group media events by source endpoint.

    Endpoint attrs are reduced to packed address ints — the threshold
    bucket is touched once per flood packet, and int tuples hash in C
    where Endpoint would recurse through dataclass __hash__.  String
    sources (from hand-built events in tests) group by value.
    """
    src = event.attrs.get("src")
    if isinstance(src, Endpoint):
        return (src.ip.packed, src.port)
    return src if src is not None else event.session


# Named Python group-key functions a pack can reference as
# ``builtin:NAME`` — for keys that need real code (packing an Endpoint
# into a hashable tuple is not expressible as an attr lookup).
BUILTIN_GROUP_KEYS: dict[str, Callable[[Event], object]] = {
    "media_src": _media_src_key,
}

_SEVERITY_BY_NAME = {
    "info": Severity.INFO,
    "low": Severity.LOW,
    "medium": Severity.MEDIUM,
    "high": Severity.HIGH,
    "critical": Severity.CRITICAL,
}

# Per-shape defaults mirror the class constructors exactly, so a pack
# that omits a key compiles to the same rule the class default builds.
_DEFAULT_SEVERITY = {
    "single": Severity.HIGH,
    "threshold": Severity.MEDIUM,
    "sequence": Severity.HIGH,
    "watch": Severity.HIGH,
    "conjunction": Severity.CRITICAL,
}
_DEFAULT_COOLDOWN = {
    "single": 0.0,
    "threshold": 5.0,
    "sequence": 0.0,
    "watch": 0.0,
    "conjunction": 10.0,
}

_MISSING = object()


def _literal(text: str):
    """A where-clause RHS: int, then float, then (possibly quoted) string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    return text


_OPS: dict[str, Callable[[object, object], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
}


def compile_where(clauses: tuple[str, ...]) -> Callable[[Event], bool] | None:
    """AND the clauses into one predicate (None when there are none)."""
    if not clauses:
        return None
    compiled = []
    for clause in clauses:
        match = WHERE_RE.match(clause)
        if match is None:
            raise ValueError(f"malformed where clause: {clause!r}")
        attr, op, value = match.group(1), match.group(2), _literal(match.group(3).strip())
        compiled.append((attr, _OPS[op], value))

    def predicate(event: Event) -> bool:
        attrs = event.attrs
        for attr, op, value in compiled:
            actual = attrs.get(attr, _MISSING)
            if actual is _MISSING:
                return False
            try:
                if not op(actual, value):
                    return False
            except TypeError:
                return False
        return True

    return predicate


def compile_key(spec: str | None) -> Callable[[Event], object] | None:
    """A ``group_by`` / ``correlate`` spec as a key function (None keeps
    the class default, i.e. the session id)."""
    if spec is None or spec == "session":
        return None
    if spec.startswith("attr:"):
        name = spec.split(":", 1)[1]
        return lambda e: e.attrs.get(name, e.session)
    if spec.startswith("const:"):
        value = spec.split(":", 1)[1]
        return lambda e: value
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        try:
            return BUILTIN_GROUP_KEYS[name]
        except KeyError:
            raise ValueError(f"unknown builtin group key: {name!r}") from None
    raise ValueError(f"malformed key spec: {spec!r}")


def compile_rule(rdef: RuleDef, pack: RulePack | None = None) -> Rule:
    """Lower one definition onto its rule class."""
    severity = (
        _SEVERITY_BY_NAME[rdef.severity]
        if rdef.severity
        else _DEFAULT_SEVERITY[rdef.shape]
    )
    cooldown = (
        rdef.cooldown if rdef.cooldown is not None else _DEFAULT_COOLDOWN[rdef.shape]
    )
    name = rdef.name or rdef.rule_id
    predicate = compile_where(rdef.where)
    if rdef.shape == "single":
        rule: Rule = SingleEventRule(
            rule_id=rdef.rule_id,
            name=name,
            event_name=rdef.event,
            severity=severity,
            attack_class=rdef.attack_class,
            predicate=predicate,
            message=rdef.message,
            cooldown=cooldown,
        )
    elif rdef.shape == "threshold":
        rule = ThresholdRule(
            rule_id=rdef.rule_id,
            name=name,
            event_name=rdef.event,
            threshold=rdef.threshold,
            window=rdef.window,
            severity=severity,
            attack_class=rdef.attack_class,
            group_by=compile_key(rdef.group_by),
            predicate=predicate,
            message=rdef.message,
            cooldown=cooldown,
        )
    elif rdef.shape in ("sequence", "watch"):
        # A watch is sugar for the two-step sequence arm -> fire.
        rule = SequenceRule(
            rule_id=rdef.rule_id,
            name=name,
            sequence=tuple(rdef.events),
            window=rdef.window,
            severity=severity,
            attack_class=rdef.attack_class,
            message=rdef.message,
            cooldown=cooldown,
        )
    elif rdef.shape == "conjunction":
        rule = ConjunctionRule(
            rule_id=rdef.rule_id,
            name=name,
            required=tuple(rdef.events),
            window=rdef.window,
            severity=severity,
            attack_class=rdef.attack_class,
            correlate=compile_key(rdef.correlate),
            message=rdef.message,
            cooldown=cooldown,
        )
    else:  # pragma: no cover - the parser rejects unknown shapes
        raise ValueError(f"unknown rule shape: {rdef.shape!r}")
    rule.enabled = rdef.enabled
    rule.mode = rdef.mode
    if pack is not None:
        rule.pack_version = pack.label
        rule.source_location = f"{pack.source_path}:{rdef.line}"
    return rule


def compile_pack(pack: RulePack, indexed: bool = True) -> RuleSet:
    """Compile a whole pack into an (indexed) RuleSet.

    Every compiled rule carries the pack's identity label and its own
    source location, which flow into alerts, checkpoints and evidence
    bundles; the RuleSet itself keeps the pack on ``.pack`` so the
    engine, ``/healthz`` and ``repro stats`` can report what is loaded.
    """
    try:
        rules = [compile_rule(rdef, pack) for rdef in pack.rules]
    except ValueError as exc:
        from repro.rulespec.parser import LintIssue

        raise RulePackError([
            LintIssue(0, "compile-error", str(exc), path=pack.source_path)
        ]) from exc
    ruleset = RuleSet(rules=rules, indexed=indexed)
    ruleset.pack = pack
    return ruleset
