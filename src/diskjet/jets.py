"""Degree-3 complex jets, Moebius transformations and Blaschke products.

A :class:`Jet3` carries the Taylor coefficients ``(a0, a1, a2, a3)`` of an
analytic function at a fixed base point, so the k-th derivative is
``k! * a_k`` exactly by construction.  Jets are fixed at degree 3; that is
all the disk machinery ever needs and it keeps exhaustive testing cheap.

Products and quotients run as kernels on plain 4-tuples of builtin complex
numbers, shared by :class:`Jet3` and the Moebius and Blaschke jets.  There
is one backend, pure Python; the audits run the same kernels on tuples of
:class:`diskjet.carray.CArray`, which round as builtin complex numbers do.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .common import DomainError

#: the one compute backend; kept as a name for environment stamps
BACKEND: str = "python"


# --------------------------------------------------------------------------
# kernels on (a0, a1, a2, a3) tuples

def _jet_mul(x, y):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0,
        x0 * y1 + x1 * y0,
        x0 * y2 + x1 * y1 + x2 * y0,
        x0 * y3 + x1 * y2 + x2 * y1 + x3 * y0,
    )


def _jet_recip(y):
    y0, y1, y2, y3 = y
    if y0 == 0:
        raise ZeroDivisionError("reciprocal of a jet with zero constant term")
    r0 = 1.0 / y0
    r1 = -(y1 * r0) * r0
    r2 = -(y1 * r1 + y2 * r0) * r0
    r3 = -(y1 * r2 + y2 * r1 + y3 * r0) * r0
    return (r0, r1, r2, r3)


def _jet_div(x, y):
    return _jet_mul(x, _jet_recip(y))


class Jet3(NamedTuple):
    """Degree-3 truncated Taylor expansion: value and first three derivatives."""

    a0: complex
    a1: complex
    a2: complex
    a3: complex

    @staticmethod
    def identity(z0: complex) -> "Jet3":
        """Jet of z -> z at z0."""
        return Jet3(complex(z0), 1.0 + 0j, 0j, 0j)

    @staticmethod
    def constant(c: complex) -> "Jet3":
        return Jet3(complex(c), 0j, 0j, 0j)

    def derivative(self, k: int) -> complex:
        """k-th derivative, k in 0..3."""
        return math.factorial(k) * self[k]

    def scale(self, c: complex) -> "Jet3":
        return Jet3(c * self[0], c * self[1], c * self[2], c * self[3])

    def __add__(self, other):  # type: ignore[override]
        if isinstance(other, Jet3):
            return Jet3(self[0] + other[0], self[1] + other[1], self[2] + other[2],
                        self[3] + other[3])
        return Jet3(self[0] + other, self[1], self[2], self[3])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet3) else -complex(other))

    def __mul__(self, other):  # type: ignore[override]
        if isinstance(other, Jet3):
            return Jet3(*_jet_mul(self, other))
        return self.scale(complex(other))

    def __rmul__(self, other):
        return self.scale(complex(other))

    def __truediv__(self, other):
        if not isinstance(other, Jet3):
            return self.scale(1.0 / complex(other))
        try:
            return Jet3(*_jet_div(self, other))
        except ZeroDivisionError as exc:
            raise DomainError(str(exc)) from exc

    def compose(self, inner: "Jet3") -> "Jet3":
        """Jet of self∘inner; self must be expanded at inner.a0.

        Faa di Bruno truncated at order 3.
        """
        f0, f1, f2, f3 = self
        d1, d2, d3 = inner[1], inner[2], inner[3]
        return Jet3(f0, f1 * d1, f1 * d2 + f2 * d1 * d1,
                    f1 * d3 + 2.0 * f2 * d1 * d2 + f3 * d1 * d1 * d1)


@dataclass(frozen=True)
class BlaschkeSpec:
    """Finite Blaschke product e^{i phase} prod (z - z_j)/(1 - conj(z_j) z)."""

    phase: float = 0.0
    zeros: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        for z in self.zeros:
            if not abs(z) < 1.0:
                raise DomainError(f"Blaschke zero must lie in the open unit disk, got |z|={abs(z)}")

    @property
    def degree(self) -> int:
        return len(self.zeros)


def moebius_value(a, z: complex) -> complex:
    a, z = complex(a), complex(z)
    return (z + a) / (1.0 + a.conjugate() * z)


def moebius_jet(a, z: Jet3) -> Jet3:
    """Jet of T_a along the inner jet z.

    Raises DomainError when the denominator 1 + conj(a) z vanishes at the
    base point (pole crossing).
    """
    av = complex(a)
    ac = av.conjugate()
    if abs(1.0 + ac * z.a0) == 0.0:
        raise DomainError("Moebius denominator vanishes at the base point")
    num = (z[0] + av, z[1], z[2], z[3])
    den = (1.0 + ac * z[0], ac * z[1], ac * z[2], ac * z[3])
    return Jet3(*_jet_div(num, den))


def blaschke_value(b: BlaschkeSpec, z: complex) -> complex:
    z = complex(z)
    acc = cmath.exp(1j * b.phase)
    for zj in b.zeros:
        acc *= (z - zj) / (1.0 - zj.conjugate() * z)
    return acc


def blaschke_jet(b: BlaschkeSpec, z0: complex) -> Jet3:
    """Jet of the Blaschke product at an interior point z0."""
    if not abs(z0) < 1.0:
        raise DomainError(f"base point must lie in the open unit disk, got |z0|={abs(z0)}")
    z0 = complex(z0)
    acc = (cmath.exp(1j * b.phase), 0j, 0j, 0j)
    for zj in b.zeros:
        zjc = zj.conjugate()
        num = (z0 - zj, 1.0 + 0j, 0j, 0j)
        den = (1.0 - zjc * z0, -zjc, 0j, 0j)
        acc = _jet_mul(acc, _jet_div(num, den))
    return Jet3(*acc)
