"""Certification reports: stable JSON schema plus a human-readable table."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__
from .verify import CaseResult

EXIT_ALL_PASS = 0
EXIT_FAILURES = 1
EXIT_BUDGET = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as shells report a reader that went away

ORDER_NOTE = (
    "elimination lex t > x_N > y_N > z_N > ... > x_1 > y_1 > z_1; "
    "squeeze suite uses lex x_1 > ... > x_N > y_1 > ... > z_N; "
    "knutson pairs use the rotated index-descending lex orders"
)


@dataclass
class CertReport:
    suite: str
    n_max: int
    signatures: str
    step_budget: int
    workers: int
    cases: list[CaseResult] = field(default_factory=list)

    def sorted_cases(self) -> list[CaseResult]:
        return sorted(self.cases, key=lambda c: c.case_id)

    def summary(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "budget": 0}
        for case in self.cases:
            counts[case.status] = counts.get(case.status, 0) + 1
        counts["total"] = len(self.cases)
        return counts

    def exit_code(self) -> int:
        counts = self.summary()
        if counts.get("error"):
            return EXIT_INTERNAL
        if counts.get("fail"):
            return EXIT_FAILURES
        if counts.get("budget"):
            return EXIT_BUDGET
        return EXIT_ALL_PASS

    def to_dict(self) -> dict:
        return {
            "tool": "tensorcert",
            "version": __version__,
            "suite": self.suite,
            "n_max": self.n_max,
            "signatures": self.signatures,
            "order": ORDER_NOTE,
            "step_budget": self.step_budget,
            "workers": self.workers,
            "summary": self.summary(),
            "cases": [c.to_dict() for c in self.sorted_cases()],
        }


def emit_report(report: CertReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2)
    if fmt == "text":
        return _text_report(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _text_report(report: CertReport) -> str:
    lines = [
        f"tensorcert {__version__} -- suite {report.suite} "
        f"(N <= {report.n_max}, signatures {report.signatures})",
        f"order: {ORDER_NOTE}",
        f"step budget: {report.step_budget}",
        "",
    ]
    width = max((len(c.case_id) for c in report.cases), default=10)
    for case in report.sorted_cases():
        mark = {"pass": "ok", "fail": "FAIL", "budget": "BUDGET", "error": "ERROR"}[case.status]
        lines.append(f"  {case.case_id:<{width}}  {mark:>6}  {case.wall_time_ms:>8} ms")
        if case.status in ("fail", "error"):
            for w in case.witnesses[:3]:
                lines.append(f"      witness: {w}")
    counts = report.summary()
    lines.append("")
    errors = f", {counts['error']} error" if "error" in counts else ""
    lines.append(
        f"{counts['total']} cases: {counts['pass']} pass, "
        f"{counts['fail']} fail, {counts['budget']} budget-exhausted{errors}"
    )
    return "\n".join(lines)
