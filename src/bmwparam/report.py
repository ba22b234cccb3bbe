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


def single(name: str, ok: bool, witness: Optional[Witness] = None) -> AdmissibilityReport:
    return AdmissibilityReport(((name, ok),), None if ok else witness)
