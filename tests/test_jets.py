"""Jet arithmetic against polynomial and pointwise oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskjet import (BACKEND, BlaschkeSpec, DomainError, Jet3, blaschke_jet,
                     blaschke_value, moebius_jet)
from diskjet.verify import fd_jet

from conftest import random_blaschke, random_jet, rng


def poly_jet(coeffs, z0):
    """Jet of a polynomial at z0 via numpy derivative arithmetic (oracle)."""
    p = np.polynomial.Polynomial(coeffs)
    return Jet3(*(complex(p.deriv(k)(z0)) / math.factorial(k) for k in range(4)))


def jets_close(a, b, tol=1e-12):
    scale = max(1.0, *(abs(x) for x in a))
    return all(abs(x - y) <= tol * scale for x, y in zip(a, b))


def test_backend_reported():
    assert BACKEND == "python"


def test_identity_and_constant():
    z = Jet3.identity(0.3 + 0.1j)
    assert z.a0 == 0.3 + 0.1j and z.a1 == 1.0 and z.a2 == 0 and z.a3 == 0
    c = Jet3.constant(2.0 - 1.0j)
    assert c.a0 == 2.0 - 1.0j and c.a1 == 0

    assert z.derivative(0) == z.a0
    assert z.derivative(1) == 1.0


def test_mul_matches_polynomial_product():
    z0 = 0.4 - 0.2j
    p, q = [1.0, 2.0, -1.5, 0.5], [0.3, -1.0, 0.0, 2.0]
    pq = (np.polynomial.Polynomial(p) * np.polynomial.Polynomial(q)).coef
    assert jets_close(poly_jet(p, z0) * poly_jet(q, z0), poly_jet(pq, z0))


def test_add_sub_scalar_ops():
    z0 = 0.1 + 0.7j
    a = poly_jet([1.0, 1.0, 1.0, 1.0], z0)
    b = poly_jet([0.0, 2.0, 0.0, -1.0], z0)
    assert jets_close(a + b, poly_jet([1.0, 3.0, 1.0, 0.0], z0))
    assert jets_close(a - b, poly_jet([1.0, -1.0, 1.0, 2.0], z0))
    assert jets_close(2.0 * a, poly_jet([2.0, 2.0, 2.0, 2.0], z0))
    assert jets_close(a + 1.0, poly_jet([2.0, 1.0, 1.0, 1.0], z0))
    assert jets_close(1.0 + a, poly_jet([2.0, 1.0, 1.0, 1.0], z0))
    assert jets_close(a / 2.0, poly_jet([0.5, 0.5, 0.5, 0.5], z0))


def test_recip_geometric_series():
    # 1/(1 - z) at z0: k-th Taylor coefficient is 1/(1-z0)^{k+1}
    z0 = 0.3
    one = Jet3.constant(1.0)
    g = one / (one - Jet3.identity(z0))
    for k in range(4):
        assert abs(g[k] - 1.0 / (1.0 - z0) ** (k + 1)) < 1e-14


def test_div_by_zero_constant_term():
    with pytest.raises(DomainError):
        Jet3.identity(0.5) / Jet3.identity(0.0)


def test_div_roundtrip():
    gen = rng(3)
    for _ in range(20):
        a, b = random_jet(gen), random_jet(gen)
        if abs(b.a0) < 1e-3:
            continue
        assert jets_close((a / b) * b, a, 1e-10)


def test_compose_chain_rule():
    # (p o q) jet equals compose of jets; oracle via polynomial composition
    z0 = 0.2 + 0.1j
    p = np.polynomial.Polynomial([1.0, -2.0, 0.5, 1.0])
    q = np.polynomial.Polynomial([0.3, 1.0, -1.0, 0.25])
    inner = poly_jet(q.coef, z0)
    outer = poly_jet(p.coef, inner.a0)
    direct = poly_jet(p(q).coef, z0)
    assert jets_close(outer.compose(inner), direct)


def moebius_jet_oracle(a, z0):
    """Symbolic derivatives of T_a at a scalar point."""
    ac = a.conjugate()
    d = 1.0 + ac * z0
    gap = 1.0 - abs(a) ** 2
    return Jet3((z0 + a) / d, gap / d ** 2, -ac * gap / d ** 3, ac * ac * gap / d ** 4)


def test_moebius_jet_symbolic():
    a = 0.3 + 0.4j
    z0 = 0.2 - 0.5j
    got = moebius_jet(a, Jet3.identity(z0))
    assert jets_close(got, moebius_jet_oracle(a, z0), 1e-14)


def test_moebius_inverse_composition():
    a = 0.6 - 0.25j
    z0 = -0.4 + 0.3j
    back = moebius_jet(-a, moebius_jet(a, Jet3.identity(z0)))
    assert jets_close(back, Jet3.identity(z0), 1e-12)


def test_moebius_pole_raises():
    a = 0.5 + 0j
    with pytest.raises(DomainError):
        moebius_jet(a, Jet3.identity(-1.0 / a.conjugate()))


def test_blaschke_spec_validation():
    with pytest.raises(DomainError):
        BlaschkeSpec(zeros=(1.2 + 0j,))
    b = BlaschkeSpec(phase=0.5, zeros=(0.1, 0.2j))
    assert b.degree == 2
    with pytest.raises(DomainError):
        blaschke_jet(b, 1.5)


def test_blaschke_jet_vs_pointwise():
    gen = rng(11)
    for _ in range(10):
        b = random_blaschke(gen, int(gen.integers(1, 5)))
        z0 = 0.4 * cmath.exp(1j * gen.uniform(0.0, 2.0 * math.pi))
        jet = blaschke_jet(b, z0)
        num = fd_jet(lambda z: blaschke_value(b, z), z0)
        assert jets_close(jet, num, 1e-9)


def test_blaschke_degree_zero():
    b = BlaschkeSpec(phase=1.0)
    assert abs(blaschke_value(b, 0.3) - cmath.exp(1j)) < 1e-15
    assert jets_close(blaschke_jet(b, 0.3), Jet3.constant(cmath.exp(1j)), 1e-15)


unit = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(unit, unit, st.floats(0.0, 2.0 * math.pi))
def test_blaschke_modulus_bounded(z, zero, phase):
    b = BlaschkeSpec(phase=phase, zeros=(zero,))
    assert abs(blaschke_value(b, z)) < 1.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
def test_mul_commutes_add_associates(s1, s2):
    g1, g2 = rng(s1), rng(s2)
    a, b, c = random_jet(g1), random_jet(g2), random_jet(g1)
    assert jets_close(a * b, b * a, 1e-13)
    assert jets_close((a + b) + c, a + (b + c), 1e-13)
    assert jets_close(a * (b + c), a * b + a * c, 1e-12)
