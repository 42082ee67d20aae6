"""Report objects returned by check-style operations.

Checks never raise on a mathematical failure; they return a report carrying
the lexicographically first witness so that output is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .exactlin import ZERO, Matrix, scalar_str
from .multilin import term_defect


@dataclass(frozen=True)
class Violation:
    """A single failed identity: which axiom, on which basis tuple, with what defect."""

    kind: str
    where: tuple
    defect: tuple[Fraction, ...]

    def describe(self) -> str:
        loc = ",".join(str(i + 1) for i in self.where)
        vals = ", ".join(scalar_str(c) for c in self.defect)
        return f"{self.kind} fails at ({loc}): defect ({vals})"


@dataclass(frozen=True)
class CheckReport:
    """Verdict of a single check, with the first violation if it failed."""

    ok: bool
    violation: Optional[Violation] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class EquationReport:
    """Verdict of a check made of several named identities."""

    equations: tuple[tuple[str, CheckReport], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(rep.ok for _, rep in self.equations)

    def __bool__(self) -> bool:
        return self.ok

    def verdicts(self) -> dict[str, bool]:
        return {name: rep.ok for name, rep in self.equations}

    def first_violation(self) -> Violation:
        """The witness of the first failing identity; the report must have failed."""
        for _, rep in self.equations:
            if not rep.ok:
                return rep.violation
        raise ValueError("report has no violation")

    def __getitem__(self, name: str) -> CheckReport:
        for key, rep in self.equations:
            if key == name:
                return rep
        raise KeyError(name)


def passed() -> CheckReport:
    return CheckReport(True)


def failed(kind: str, where: tuple, defect) -> CheckReport:
    return CheckReport(False, Violation(kind, tuple(where), tuple(defect)))


def vanishes(kind: str, m: Matrix) -> CheckReport:
    """A whole-matrix identity: passed when every entry of m is zero, else failed at () with every entry."""
    return passed() if m.is_zero() else failed(kind, (), m.entries)


def first_failure(
    kind: str, cases: Iterable[tuple], defect: Callable[..., Sequence[Fraction]]
) -> CheckReport:
    """Scan basis tuples in the given (lexicographic) order for a nonzero defect.

    `defect` takes the entries of a case as arguments; the first case whose
    defect has a nonzero entry is the witness of the failed identity `kind`.
    A compiled defect (`multilin.term_defect`) and the hand-written ones
    return one tuple of the shared `ZERO` on every passing case, which
    `count` finds by identity in C, so a pass forms no Fraction and calls
    no Fraction method; any other entry is still compared with zero by
    value, so an int 0 or another Fraction equal to zero counts as zero.
    """
    for where in cases:
        values = defect(*where)
        if values.count(ZERO) != len(values):
            return failed(kind, where, values)
    return passed()


def identity_reports(identities: Iterable[tuple[str, str, Iterable[tuple], object]]) -> tuple[tuple[str, CheckReport], ...]:
    """(name, first-failure report) of each identity given as (name, kind, basis tuples, identity), the
    identity signed terms or one compiled once and bound to its maps (`multilin.bind`)."""
    return tuple((name, first_failure(kind, cases, term_defect(identity))) for name, kind, cases, identity in identities)
