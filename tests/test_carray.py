"""CArray arithmetic against CPython's complex arithmetic, bit for bit."""

import itertools
import operator

import numpy as np
import pytest

from diskjet.carray import CArray, where

from conftest import rng

#: parts that meet every branch: signed zeros, equal moduli, and ratios
#: from 1e-300 to 1e300 between real and imaginary parts
EDGE = (0.0, -0.0, 1.0, -1.0, 0.75, -3.0, 2.0 ** 1000, -(2.0 ** -1000), 1e300, -1e-300,
        5e-324, 7.5e-310)


def _values():
    gen = rng(17)
    edge = [complex(x, y) for x, y in itertools.product(EDGE, EDGE)]
    sign = gen.choice([-1.0, 1.0], (4000, 2))
    wide = [complex(*p) for p in (sign * 10.0 ** gen.uniform(-300.0, 300.0, (4000, 2))).tolist()]
    near = [complex(*p) for p in gen.uniform(-2.0, 2.0, (4000, 2)).tolist()]
    return edge + wide + near + [complex(z.imag, z.real) for z in near[:500]] + [
        complex(z.real, z.real) for z in near[500:1000]] + [
        complex(z.real, -z.real) for z in near[1000:1500]]


VALUES = _values()
PAIRS = list(itertools.product(VALUES[:144], VALUES[:144])) + [
    (a, b) for a, b in zip(VALUES, VALUES[::-1])]


def _carray(values):
    c = np.array(values, dtype=complex)
    return CArray(c.real.copy(), c.imag.copy())


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _check(got, want):
    """Rows of got equal the complex (or float) numbers in want, by hex of
    both parts; a None in want (Python raised) matches any row."""
    for i, w in enumerate(want):
        if w is None:
            continue
        if isinstance(w, complex):
            assert _hex(complex(got.re[i], got.im[i])) == _hex(w), i
        else:
            assert float(got[i]).hex() == w.hex(), i


def _python(op, pairs):
    out = []
    for a, b in pairs:
        try:
            out.append(op(a, b))
        except (ZeroDivisionError, OverflowError):
            out.append(None)
    return out


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
@np.errstate(over="ignore", invalid="ignore")  # Python's complex overflows to inf silently
def test_binary_ops_match_python_complex(op):
    a, b = zip(*PAIRS)
    _check(op(_carray(a), _carray(b)), _python(op, PAIRS))
    # a float operand is the complex number (x, 0.0), on either side
    x = np.array([z.real for z in b])
    _check(op(_carray(a), x), _python(lambda p, q: op(p, q.real), PAIRS))
    _check(op(x, _carray(a)), _python(lambda p, q: op(q.real, p), PAIRS))
    # a Python scalar operand, as the jet kernels pass their constants
    for c in (0j, 1.0 + 0j, 2.0, -0.5 - 0.25j):
        _check(op(_carray(a), c), _python(lambda p, q: op(p, c), PAIRS))
        _check(op(c, _carray(a)), _python(lambda p, q: op(c, p), PAIRS))


def test_quotient_takes_both_branches():
    # the rows above meet both branches of the division, and the tie
    b = np.array([z for _, z in PAIRS])
    assert (abs(b.real) > abs(b.imag)).any() and (abs(b.real) < abs(b.imag)).any()
    assert ((abs(b.real) == abs(b.imag)) & (b != 0)).any()


@np.errstate(over="ignore", invalid="ignore")
def test_unary_ops_and_powers_match_python_complex():
    c = _carray(VALUES)
    _check(abs(c), [abs(z) for z in VALUES])
    _check(-c, [-z for z in VALUES])
    _check(c.conjugate(), [z.conjugate() for z in VALUES])
    for n in (1, 2, 3, 4, 5, 7, 100):
        _check(c ** n, _python(lambda z, k: z ** k, [(z, n) for z in VALUES]))
    with pytest.raises(ValueError):
        c ** 0


def test_where_and_rows():
    c = _carray([1 + 2j, -3 - 4j])
    picked = where(np.array([True, False]), c, 0j)
    assert complex(picked[0]) == 1 + 2j and _hex(complex(picked[1])) == _hex(0j)
    assert complex(c[1]) == -3 - 4j
