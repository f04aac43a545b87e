"""Outcome record for a single adjudicated claim, and its three constructors."""

from __future__ import annotations

from dataclasses import dataclass, field

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class ClaimVerdict:
    """Result of checking one claim over a range of instances.

    A REFUTED verdict always carries a counterexample with enough data to
    re-run the oracle on it; a CONFIRMED verdict lists every instance tested.
    """

    claim_id: str
    n_tested: tuple[int, ...]
    status: str
    counterexample: dict | None = None
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.status not in (CONFIRMED, REFUTED, SKIPPED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == REFUTED and not self.counterexample:
            raise ValueError("a refutation requires a counterexample")
        if self.status == CONFIRMED and not self.n_tested:
            raise ValueError("a confirmation requires at least one tested instance")

    def as_dict(self) -> dict:
        out: dict = {
            "id": self.claim_id,
            "n_tested": list(self.n_tested),
            "status": self.status,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        out["notes"] = list(self.notes)
        return out


def _skipped(claim_id: str, note: str) -> ClaimVerdict:
    return ClaimVerdict(claim_id, (), SKIPPED, notes=(note,))


def _confirmed(claim_id: str, ns, notes=()) -> ClaimVerdict:
    return ClaimVerdict(claim_id, tuple(ns), CONFIRMED, notes=tuple(notes))


def _refuted(claim_id: str, ns, counterexample: dict, notes=()) -> ClaimVerdict:
    return ClaimVerdict(claim_id, tuple(ns), REFUTED, counterexample, tuple(notes))
