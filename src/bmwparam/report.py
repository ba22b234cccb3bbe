"""Check reports: named pass flags plus a reproducible first-failure witness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Witness:
    """The first failing equation of a check: where, and both sides."""

    check: str
    index: object
    lhs: object
    rhs: object

    def equation(self) -> str:
        return (f"{self.check} at {self.index}: "
                f"lhs = {self.lhs} != rhs = {self.rhs}")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of one or more named criteria.

    A passing report carries no witness; a failing one carries the first
    failure found, so it can be reproduced independently.
    """

    checks: Tuple[Tuple[str, bool], ...]
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise ValueError("passing report must not carry a witness")
        if not self.passed and self.witness is None:
            raise ValueError("failing report must carry a witness")

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def flag(self, name: str) -> bool:
        for tag, ok in self.checks:
            if tag == name:
                return ok
        raise KeyError(name)

    def combined_with(self, other: "AdmissibilityReport") -> "AdmissibilityReport":
        witness = self.witness if self.witness is not None else other.witness
        return AdmissibilityReport(self.checks + other.checks, witness)

    def summary(self) -> str:
        parts = ", ".join(f"{tag}: {'pass' if ok else 'FAIL'}"
                          for tag, ok in self.checks)
        if self.witness is not None:
            parts += f"  [{self.witness.equation()}]"
        return parts


def single(name: str, witness: Optional[Witness] = None) -> AdmissibilityReport:
    """One named check: passed unless a witness of its failure is given."""
    return AdmissibilityReport(((name, witness is None),), witness)


def first_difference(name: str, lhs, rhs, index=None) -> AdmissibilityReport:
    """Pass, or fail witnessed at the first position where the sequences
    lhs and rhs differ on their shared length; ``index`` labels the
    positions (0, 1, ... by default)."""
    for i, (left, right) in enumerate(zip(lhs, rhs)):
        if left != right:
            return single(name, Witness(name, i if index is None else index[i],
                                        left, right))
    return single(name)


def series_report(name: str, lhs, rhs) -> AdmissibilityReport:
    """Pass, or fail at the first index where two series differ."""
    return first_difference(name, lhs.coeffs, rhs.coeffs)


def ratfunc_report(name: str, lhs, rhs, order: int) -> AdmissibilityReport:
    """Exact comparison of two rational functions.  A failure is witnessed
    by the first disagreement of their expansions to the given order, or by
    the two functions themselves when the expansions agree that far."""
    if lhs == rhs:
        return single(name)
    report = series_report(name, lhs.series_at_infinity(order),
                           rhs.series_at_infinity(order))
    if report.passed:
        return single(name, Witness(name, f"beyond order {order}", lhs, rhs))
    return report
