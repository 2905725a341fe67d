"""Error taxonomy shared by every module in the package."""

from __future__ import annotations


class FairConsensusError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FairConsensusError):
    """An input file could not be parsed; the message names row/field."""


class UnknownAttribute(FairConsensusError):
    """A referenced attribute is not declared in the candidate table."""


class InconsistentCandidateSet(FairConsensusError):
    """A ranking is not a permutation of the expected candidate set."""


class DegenerateGroup(FairConsensusError):
    """A group is empty or contains every candidate (no mixed pairs)."""


class DegenerateAttribute(DegenerateGroup):
    """An attribute has fewer than two non-empty groups."""


class DegenerateIntersection(DegenerateGroup):
    """The intersection is absent or has fewer than two non-empty groups."""


class Infeasible(FairConsensusError):
    """No permutation satisfies the fairness thresholds."""


class BudgetExceeded(FairConsensusError):
    """A time or node budget ran out before any usable result was found."""


class InstanceTooLarge(FairConsensusError):
    """The instance exceeds the configured exact-solve size bound."""


class RepairStalled(FairConsensusError):
    """Swap repair hit its cap or ran out of legal swaps while unsatisfied."""


class ScenarioUnreachable(FairConsensusError):
    """No ranking within the target windows was found within the budget."""
