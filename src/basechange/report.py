"""The report model shared by every check: a named Check with a status and
an optional counterexample, and a Report of checks whose JSON form is
byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

_STATUSES = ("pass", "fail", "skipped")


@dataclass
class Check:
    name: str
    status: str
    details: str
    counterexample: str | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError("unknown check status: %r" % self.status)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "details": self.details,
            "counterexample": self.counterexample,
        }


@dataclass
class Report:
    suite: str
    params: dict
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "checks": [c.to_dict() for c in self.checks],
        }


def report_to_json(report: Report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _bulk_check(name: str, failures: list, detail_ok: str) -> Check:
    if not failures:
        return Check(name=name, status="pass", details=detail_ok)
    return Check(
        name=name,
        status="fail",
        details="%s; %d failures" % (detail_ok, len(failures)),
        counterexample=repr(failures[0]),
    )


def counterexample_check(name: str, bad, details: str) -> Check:
    """A check that passes when no counterexample was found (bad is None)
    and otherwise fails with repr(bad) as its counterexample."""
    return Check(
        name=name,
        status="pass" if bad is None else "fail",
        details=details,
        counterexample=None if bad is None else repr(bad),
    )
