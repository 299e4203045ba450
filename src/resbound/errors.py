"""Exception types shared across the engine.

Every error carries a short machine-parseable ``code`` so the CLI can emit
stable reason codes on stderr.
"""

from __future__ import annotations


class ResboundError(Exception):
    code = "error"


class DimensionMismatch(ResboundError):
    code = "dimension-mismatch"


class StatementSyntaxError(ResboundError):
    code = "statement-syntax"


class UnknownProcedure(ResboundError):
    code = "unknown-procedure"


class UnknownEquipment(ResboundError):
    code = "unknown-equipment"


class UnknownSubject(ResboundError):
    code = "unknown-subject"


class InsufficientResources(ResboundError):
    code = "insufficient-resources"


class NoStrategy(ResboundError):
    code = "no-strategy"


class UncoveredAtom(ResboundError):
    code = "uncovered-atom"


class StatementTooLong(ResboundError):
    code = "statement-too-long"


class MalformedCode(ResboundError):
    code = "malformed-code"


class BudgetNotLarger(ResboundError):
    code = "budget-not-larger"


class AxiomRejected(ResboundError):
    code = "axiom-rejected"


class EmptyKnowledge(ResboundError):
    code = "empty-knowledge"


class ScenarioError(ResboundError):
    """Raised when a scenario file fails validation; carries all messages."""

    code = "scenario-invalid"

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class SearchTooLarge(ResboundError):
    code = "search-too-large"
