"""Exception types shared across the package.

Everything derives from PersetsError so the CLI can catch one class and
turn it into exit code 1.
"""
from __future__ import annotations


class PersetsError(Exception):
    pass


class NotSquare(PersetsError):
    """Input array is not a square 2-D matrix."""


class NonFinite(PersetsError):
    """Input contains NaN or infinite entries."""


class AxiomViolation(PersetsError):
    """Pseudo-metric axioms are violated.

    ``violations`` is a list of ``(kind, indices, amount)`` tuples where
    kind is one of "negative", "diagonal", "asymmetry", "triangle";
    ``count`` is the number of violations, which exceeds the length of
    the list when only the first broken triangles are listed.
    """

    def __init__(self, violations, count=None):
        self.violations = list(violations)
        self.count = len(self.violations) if count is None else count
        head = ", ".join(f"{k} at {idx}" for k, idx, _ in self.violations[:4])
        more = "" if self.count <= 4 else f" (+{self.count - 4} more)"
        super().__init__(f"{self.count} axiom violation(s): {head}{more}")


class MalformedFile(PersetsError):
    """An input file does not parse: bad header, ragged row, missing key, not a number."""


class IndexOutOfRange(PersetsError):
    pass


class TooFewPoints(PersetsError):
    pass


class SizeMismatch(PersetsError):
    pass


class TooLarge(PersetsError):
    pass


class NonMonotoneFiltration(PersetsError):
    pass


class PointNotOnModel(PersetsError):
    pass


class InvalidPoint(PersetsError):
    pass


class InvalidDescriptor(PersetsError):
    pass


class UnsupportedCombination(PersetsError):
    pass


class EmptySample(PersetsError):
    pass


class RegionMismatch(PersetsError):
    pass


class InfiniteDeath(PersetsError):
    pass


class EmptyInput(PersetsError):
    pass


class NotPrincipal41(PersetsError):
    pass
