"""Verification reports returned by every identity checker."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

from .exactnum import Record, _setattr

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
    not hold) is neither a pass nor a failure.  The verdict is derived, not
    stated: a report passes when it is not skipped and has no failures, so
    no report can print PASS beside a failure or FAIL with none.
    """

    __slots__ = ("suite", "depth", "skipped", "failures", "notes")

    def __init__(
        self,
        suite: str,
        depth: str,
        skipped: bool = False,
        failures: list[str] | None = None,
        notes: str = "",
    ) -> None:
        _setattr(self, "suite", suite)
        _setattr(self, "depth", depth)
        _setattr(self, "skipped", skipped)
        _setattr(self, "failures", [] if failures is None else failures)
        _setattr(self, "notes", notes)

    @property
    def passed(self) -> bool:
        return not self.skipped and not self.failures

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        msg = f"{self.suite}: {status} ({self.depth})"
        if self.notes:
            msg += f" -- {self.notes}"
        for f in self.failures[:MAX_FAILURES]:
            msg += f"\n  first failure: {f}"
        return msg
