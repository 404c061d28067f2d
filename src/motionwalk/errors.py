"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "NotAGroupTable",
    "NotAHomomorphism",
    "NotInvertible",
    "GroupMismatch",
    "NotProbability",
    "NoConvergence",
    "Overflow",
    "EmptySupport",
    "ParseError",
]


class NotAGroupTable(ValueError):
    """The supplied multiplication table violates the group axioms."""


class NotAHomomorphism(ValueError):
    """The action matrices do not compose along the multiplication table."""


class NotInvertible(ValueError):
    """An action matrix has determinant not coprime to the modulus."""


class GroupMismatch(ValueError):
    """Two measures live on different groups."""


class NotProbability(ValueError):
    """Weights are not a probability distribution within tolerance."""


class NoConvergence(RuntimeError):
    """Dense eigenvalue iteration failed to converge."""


class Overflow(ArithmeticError):
    """Log-scale tracking in the power iteration produced non-finite values."""


class EmptySupport(ValueError):
    """Operation requires a measure with nonempty support."""


class ParseError(ValueError):
    """Input file failed to parse or violated the schema."""
