"""The verdicts of a check suite: one CheckResult per row, in a Report."""

from __future__ import annotations

from typing import List, Optional


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail


class Report:
    __slots__ = ("suite", "results")

    def __init__(self, suite: str, results: Optional[List[CheckResult]] = None):
        self.suite = suite
        self.results = [] if results is None else results

    @property
    def passed(self) -> bool:
        """True when at least one check ran and every check passed."""
        return bool(self.results) and all(r.passed for r in self.results)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.results.append(CheckResult(name, passed, detail))

    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.passed]
