"""Shared small types and exceptions."""

from __future__ import annotations

from dataclasses import dataclass


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class InfeasibleConstraintError(ValueError):
    """Interpolation data not attainable by any admissible self-map."""


class DegenerateCaseError(InfeasibleConstraintError):
    """A degenerate (radius-zero) case where the requested quantity is forced."""


class WrongRegimeError(ValueError):
    """A closed form was requested outside the regime where it applies."""


@dataclass(frozen=True)
class ClosedDisk:
    """Closed disk {w : |w - center| <= radius}."""

    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise DomainError("disk radius must be nonnegative")

    def excess(self, w: complex) -> float:
        """Signed distance of w past the rim (<= 0 means inside)."""
        return abs(w - self.center) - self.radius
