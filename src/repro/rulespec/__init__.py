"""``repro.rulespec``: the declarative rule DSL.

SCIDIVE's detection policy — which event patterns constitute an
intrusion — is data, not code.  This package separates policy from
mechanism the way SecSip's VeTo language does for its SIP inspection
engine: rules ship as ``*.rules`` pack files, and the engine compiles
them into an indexed :class:`~repro.core.rules.RuleSet`.

Three layers:

* :mod:`repro.rulespec.model` — :class:`RuleDef` (one parsed rule,
  primitives only) and :class:`RulePack` (a versioned, content-hashed
  collection with a canonical ``describe()`` form).
* :mod:`repro.rulespec.parser` — the line-oriented pack parser and
  linter; every diagnostic is anchored to a 1-based source line.
* :mod:`repro.rulespec.compiler` — ``compile_pack()`` lowers a pack
  onto the rule classes (``SingleEventRule``/``ThresholdRule``/
  ``SequenceRule``/``ConjunctionRule``), so trigger-event indexing,
  cooldowns, LRU group caps and checkpointing all work unchanged.

The paper's rules (Table 1 plus the §3 scenarios) live in one place:
the ``scidive-core.rules`` pack shipped as package data next to this
module and returned by :func:`shipped_pack`.  It is the single source
of detection policy — every engine and cluster worker built without an
explicit ruleset or pack compiles it.  To tune a rule, edit a copy of
the pack (or ``dataclasses.replace`` one :class:`RuleDef`) and pass it
as ``rulepack=`` / ``--rules``, or hot-reload it.
"""

import functools
from importlib import resources

from repro.rulespec.compiler import compile_pack, compile_rule
from repro.rulespec.model import RuleDef, RulePack
from repro.rulespec.parser import (
    LintIssue,
    RulePackError,
    known_event_names,
    lint_path,
    lint_text,
    load_pack,
    parse_pack,
)

__all__ = [
    "LintIssue",
    "RuleDef",
    "RulePack",
    "RulePackError",
    "compile_pack",
    "compile_rule",
    "known_event_names",
    "lint_path",
    "lint_text",
    "load_pack",
    "parse_pack",
    "shipped_pack",
]

@functools.cache
def shipped_pack() -> RulePack:
    """The shipped detection policy, parsed once per process.

    A :class:`RulePack` is immutable, so every caller can share the
    cached object; compiling it still gives each engine fresh rules.
    """
    return load_pack(str(resources.files(__name__) / "scidive-core.rules"))
