"""Check results and deterministic report rendering.

A check yields pass, fail (with exact witnesses) or inconclusive, and every
law reaches its verdict through `CheckResult.law`.  Inconclusive comes from
an indicator search that hit its cap or a partial window (`local_units`,
`quasi_unitary`, `env_product_law`), from `regular` on a partial window,
and from a coenvelope's `unital_specialization` with no unit.
Reports render to canonical JSON: same scenario and seed means
byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .vectors import FinVec, format_token

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

REPORT_SCHEMA = 1


def render_value(value):
    """Canonical string/structure for witness payloads."""
    if isinstance(value, FinVec):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [render_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): render_value(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return format_token(value)


class CheckResult(NamedTuple):
    name: str
    outcome: str
    witnesses: list
    details: dict

    @staticmethod
    def law(name, witnesses, unresolved=(), **details):
        """The verdict of one law, the only way a battery reaches one.

        Fail with exactly the given witnesses and no details; otherwise
        inconclusive with `unresolved` as its reason; otherwise pass with
        `details`.  Witness caps and early exits belong to the caller."""
        if witnesses:
            return CheckResult(name, FAIL, list(witnesses), {})
        if unresolved:
            return CheckResult.inconclusive(name, unresolved)
        return CheckResult(name, PASS, [], details)

    @staticmethod
    def inconclusive(name, reason, **details):
        details = dict(details)
        details["reason"] = reason
        return CheckResult(name, INCONCLUSIVE, [], details)

    def ok(self) -> bool:
        return self.outcome == PASS

    def to_dict(self):
        return {
            "name": self.name,
            "outcome": self.outcome,
            "witnesses": [render_value(w) for w in self.witnesses],
            "details": render_value(self.details),
        }


class Report(NamedTuple):
    scenario: str
    seed: int
    window: int
    checks: list

    def outcome(self) -> str:
        outcomes = [c.outcome for c in self.checks]
        if FAIL in outcomes:
            return FAIL
        if INCONCLUSIVE in outcomes:
            return INCONCLUSIVE
        return PASS

    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}[self.outcome()]

    def to_dict(self):
        return {
            "schema": REPORT_SCHEMA,
            "scenario": self.scenario,
            "seed": self.seed,
            "window": self.window,
            "outcome": self.outcome(),
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario} (seed={self.seed}, window={self.window})"]
        for c in self.checks:
            lines.append(f"  [{c.outcome.upper():>12}] {c.name}")
            for w in c.witnesses[:3]:
                lines.append(f"      witness: {render_value(w)}")
            if c.details:
                reason = c.details.get("reason")
                if reason:
                    lines.append(f"      reason: {reason}")
        lines.append(f"overall: {self.outcome()}")
        return "\n".join(lines) + "\n"
