"""Complex numbers as pairs of float arrays, rounded as CPython rounds them.

A :class:`CArray` holds the real and imaginary parts of many complex
numbers in two numpy float arrays and gives each element the bits that
the same expression on builtin ``complex`` numbers gives.  The audits use
it to run the scalar jet and disk formulas on whole blocks of samples and
still match, row by row, the public functions that a call-by-call replay
uses.

numpy's own complex arithmetic does not promise that, so CArray spells out
the rules of CPython's ``complex`` type (3.10 to 3.13):

* a float or int operand is the complex number (x, 0.0), so
  ``float * complex`` is a full complex product and ``float - complex``
  has the imaginary part ``0.0 - im``;
* a product is (ar br - ai bi, ar bi + ai br);
* a quotient takes one of two branches (``_quot``): the ratio bi/br when
  |br| >= |bi|, else br/bi;
* ``abs`` is libm ``hypot``, which ``np.hypot`` calls (``math.hypot``
  rounds differently);
* ``z ** n`` for an int n > 0 is binary powering that starts from 1 + 0j.

Float additions, products and quotients on arrays round as they do on
Python floats.  Functions that libm computes and numpy may compute its
own way (``cos``, ``sin``, float ``**``) are left to the callers, which
evaluate them on Python floats.
"""

from __future__ import annotations

import numpy as np


def _parts(x):
    """(re, im) of a CArray, a real array, or a Python number."""
    if isinstance(x, CArray):
        return x.re, x.im
    if isinstance(x, np.ndarray):
        return x, 0.0
    x = complex(x)
    return x.real, x.imag


def _quot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) on float arrays, by both branches of
    CPython's complex division (the second only when some row takes it).
    The branch not taken can divide by zero, and rows with a zero divisor
    (where Python raises) hold inf or nan, so numpy's floating-point
    warnings are off."""
    br, bi = np.asarray(br, dtype=float), np.asarray(bi, dtype=float)
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):
        ratio = bi / br
        denom = br + bi * ratio
        re, im = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
        if wide.all():
            return re, im
        ratio = br / bi
        denom = br * ratio + bi
        return (np.where(wide, re, (ar * ratio + ai) / denom),
                np.where(wide, im, (ai * ratio - ar) / denom))


class CArray:
    """Complex numbers as (re, im) float arrays with builtin complex rounding."""

    __slots__ = ("re", "im")
    # ndarray operands defer to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __complex__(self):
        return complex(self.re, self.im)

    def numpy(self) -> np.ndarray:
        """The numbers as one numpy complex array, part for part."""
        out = np.empty(np.broadcast_shapes(np.shape(self.re), np.shape(self.im)), dtype=complex)
        out.real, out.imag = self.re, self.im
        return out

    def __getitem__(self, index):
        return CArray(self.re[index], self.im[index])

    def conjugate(self):
        return CArray(self.re, -self.im)

    def __neg__(self):
        return CArray(-self.re, -self.im)

    def __abs__(self):
        return np.hypot(self.re, self.im)

    def __add__(self, other):
        br, bi = _parts(other)
        return CArray(self.re + br, self.im + bi)

    def __radd__(self, other):
        ar, ai = _parts(other)
        return CArray(ar + self.re, ai + self.im)

    def __sub__(self, other):
        br, bi = _parts(other)
        return CArray(self.re - br, self.im - bi)

    def __rsub__(self, other):
        ar, ai = _parts(other)
        return CArray(ar - self.re, ai - self.im)

    def __mul__(self, other):
        ar, ai = self.re, self.im
        br, bi = _parts(other)
        return CArray(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return CArray(*_quot(self.re, self.im, *_parts(other)))

    def __rtruediv__(self, other):
        return CArray(*_quot(*_parts(other), self.re, self.im))

    def __pow__(self, n: int):
        """CPython's complex ** int for 0 < n <= 100: binary powering from 1 + 0j."""
        if not 0 < n <= 100:
            raise ValueError("CArray powers are ints in 1..100")
        out, square = 1.0 + 0j, self
        while True:
            if n & 1:
                out = square * out
            n >>= 1
            if not n:
                return out
            square = square * square


def where(mask, x, y) -> CArray:
    """Elementwise ``x if mask else y`` of complex operands."""
    xr, xi = _parts(x)
    yr, yi = _parts(y)
    return CArray(np.where(mask, xr, yr), np.where(mask, xi, yi))
