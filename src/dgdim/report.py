"""Check results and verification reports, with byte-stable JSON emission.

A report is deterministic given (input, seed, engine version): wall time is
shown in the text rendering only and never enters the JSON bytes, and every
JSON document is dumped with sorted keys and fixed separators.
"""
import hashlib
import json
from typing import Dict, List, Optional

from . import __version__

SCHEMA = "dgdim-report/1"

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"
INDETERMINATE = "indeterminate"

_OUTCOMES = (PASS, FAIL, SKIP, INDETERMINATE)


def canonical_json_bytes(payload) -> bytes:
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)
        + "\n"
    ).encode("utf-8")


def digest_of(payload) -> str:
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()[:16]


class CheckResult:
    """One verified claim: outcome plus the certificate that backs it."""

    def __init__(
        self,
        check_id: str,
        claim: str,
        outcome: str,
        details: Optional[dict] = None,
        reproduce: Optional[dict] = None,
    ):
        if outcome not in _OUTCOMES:
            raise ValueError("unknown outcome %r" % outcome)
        self.check_id = check_id
        self.claim = claim
        self.outcome = outcome
        self.details = {} if details is None else details
        self.reproduce = reproduce

    @property
    def digest(self) -> str:
        return digest_of(self.details)

    def to_json(self) -> dict:
        out = {
            "id": self.check_id,
            "claim": self.claim,
            "outcome": self.outcome,
            "details": self.details,
            "digest": self.digest,
        }
        if self.reproduce is not None:
            out["reproduce"] = self.reproduce
        return out


class VerificationReport:
    def __init__(
        self,
        title: str,
        options: Optional[dict] = None,
        results: Optional[List[CheckResult]] = None,
        wall_time: float = 0.0,
    ):
        self.title = title
        self.options = {} if options is None else options
        self.results = [] if results is None else results
        self.wall_time = wall_time

    def add(self, result: CheckResult) -> CheckResult:
        self.results.append(result)
        return result

    def counts(self) -> Dict[str, int]:
        out = {k: 0 for k in _OUTCOMES}
        for r in self.results:
            out[r.outcome] += 1
        return out

    def exit_code(self) -> int:
        c = self.counts()
        if c[FAIL]:
            return 1
        if c[INDETERMINATE]:
            return 2
        return 0

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "engine": {"name": "dgdim", "version": __version__},
            "title": self.title,
            "options": self.options,
            "summary": self.counts(),
            "results": [r.to_json() for r in self.results],
        }


def _text_lines(report: VerificationReport) -> List[str]:
    lines = [
        "%s  (dgdim %s)" % (report.title, __version__),
    ]
    if report.options:
        opts = ", ".join(
            "%s=%s" % (k, v) for k, v in sorted(report.options.items())
        )
        lines.append("options: " + opts)
    lines.append("")
    for r in report.results:
        lines.append("%-13s %s  %s" % (r.outcome.upper(), r.check_id, r.claim))
        if r.outcome in (FAIL, INDETERMINATE):
            for k in sorted(r.details):
                lines.append("    %s: %s" % (k, r.details[k]))
            if r.reproduce is not None:
                lines.append("    reproduce: %s" % json.dumps(
                    r.reproduce, sort_keys=True))
    c = report.counts()
    lines.append("")
    lines.append(
        "%d pass, %d fail, %d skipped, %d indeterminate in %.2f s"
        % (c[PASS], c[FAIL], c[SKIP], c[INDETERMINATE], report.wall_time)
    )
    return lines


def emit_report(report: VerificationReport, fmt: str) -> bytes:
    if fmt == "json":
        return canonical_json_bytes(report.to_json())
    if fmt == "text":
        return ("\n".join(_text_lines(report)) + "\n").encode("utf-8")
    raise ValueError("unknown report format %r" % fmt)
