"""Verification reports returned by every identity checker."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

from .exactnum import Record

__all__ = ["MAX_FAILURES", "VerificationReport", "first_failures"]

MAX_FAILURES = 3  # a report carries the first few mismatches, not all of them


def first_failures(mismatches: Iterable[str]) -> list[str]:
    """The first MAX_FAILURES messages of a lazy stream of mismatches.

    The stream is not consumed further, so a verifier stops checking once
    the cap is reached.
    """
    return list(islice(mismatches, MAX_FAILURES))


class VerificationReport(Record):
    """Outcome of one verification suite.

    `depth` describes what was actually checked and never overstates the
    truncation-reliability bound computed by the verifier.  On failure,
    `failures` carries the first offending indices with both exact values.
    A skipped report (e.g. a symmetry check whose det-G precondition does
    not hold) is neither a pass nor a failure.
    """

    __slots__ = ("suite", "passed", "depth", "skipped", "failures", "notes", "bound")
    __hash__ = None  # mutable, so unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        suite: str,
        passed: bool,
        depth: str,
        skipped: bool = False,
        failures: list[str] | None = None,
        notes: str = "",
        bound: int | None = None,  # numeric reliability bound, when one applies
    ) -> None:
        self.suite = suite
        self.passed = passed
        self.depth = depth
        self.skipped = skipped
        self.failures = [] if failures is None else failures
        self.notes = notes
        self.bound = bound

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        msg = f"{self.suite}: {status} ({self.depth})"
        if self.notes:
            msg += f" -- {self.notes}"
        for f in self.failures[:MAX_FAILURES]:
            msg += f"\n  first failure: {f}"
        return msg
