"""The report model shared by every check: a named Check with a status and
an optional counterexample, and a Report of checks whose JSON form is
byte-identical across runs.  Plain classes: a cold start skips ``dataclasses``.
"""

from __future__ import annotations

_STATUSES = ("pass", "fail", "skipped")


class Check:
    """A named check; equal checks agree field by field."""

    def __init__(self, name: str, status: str, details: str, counterexample: str | None = None):
        if status not in _STATUSES:
            raise ValueError("unknown check status: %r" % status)
        self.name = name
        self.status = status
        self.details = details
        self.counterexample = counterexample

    def __eq__(self, other):
        if not isinstance(other, Check):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        return "Check(%s)" % ", ".join("%s=%r" % item for item in self.to_dict().items())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "details": self.details,
            "counterexample": self.counterexample,
        }


class Report:
    """A suite's name, its parameters and its checks in run order."""

    def __init__(self, suite: str, params: dict, checks: list[Check]):
        self.suite = suite
        self.params = params
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "checks": [c.to_dict() for c in self.checks],
        }


def report_to_json(obj) -> str:
    """A Report or a JSON-ready value as sorted JSON: the one JSON writer.
    ``json`` is imported here, so a CSV export never loads it."""
    import json

    obj = obj.to_dict() if isinstance(obj, Report) else obj
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
