"""Support points of the circle-family union: roots, branches, regimes."""

import cmath
import math

import pytest

from diskjet import (ClosedDisk, DomainError, EnvelopeConfig, WrongRegimeError,
                     circle_family, classify_regime, critical_angles,
                     support_point)
from diskjet.envelope import BRANCH_TOL, _gap, _wrap, support_arrays

from conftest import random_disk_point, rng

CFG_I = EnvelopeConfig(t=0.3, eta=0.1 + 0.05j)          # t + |eta| <= 1/2
CFG_II = EnvelopeConfig(t=0.8, eta=0.1 - 0.07j)         # t - |eta| >= 1/2
CFG_III = EnvelopeConfig(t=0.52, eta=0.2j)              # mixed
EDGE_CFGS = (
    EnvelopeConfig(t=0.3, eta=0j),                                   # eta = 0
    EnvelopeConfig(t=0.2 * (1.0 + 1e-12), eta=0.2j),                 # t -> |eta|
    # at theta = -arg eta the root collapses onto |eta|
    EnvelopeConfig(t=0.3 * (1.0 + 1e-12), eta=0.3 * cmath.exp(0.4j)),
)


def grid(n=360):
    return [-math.pi + 2.0 * math.pi * (k + 1) / n for k in range(n)]


def test_config_validation():
    with pytest.raises(DomainError):
        EnvelopeConfig(t=0.0)
    with pytest.raises(DomainError):
        EnvelopeConfig(t=0.1, eta=0.2 + 0j)


def test_circle_family_endpoints():
    d0 = circle_family(CFG_I, 0j)
    assert d0 == ClosedDisk(0j, CFG_I.t)
    z = cmath.exp(0.3j)
    d1 = circle_family(CFG_I, z)
    assert d1.radius == 0.0
    assert abs(d1.center - z * (1.0 - CFG_I.eta * z)) < 1e-15
    with pytest.raises(DomainError):
        circle_family(CFG_I, 2.0 + 0j)


def test_classify_regime():
    assert classify_regime(CFG_I) == "i"
    assert classify_regime(CFG_II) == "ii"
    assert classify_regime(CFG_III) == "iii"
    assert classify_regime(EnvelopeConfig(t=0.6, eta=0j)) == "ii"
    # boundary tie t + |eta| = t - |eta| = 1/2 resolves to regime i
    assert classify_regime(EnvelopeConfig(t=0.5, eta=0j)) == "i"


def test_root_branch_residual_and_unimodularity():
    for cfg in (CFG_I, CFG_III) + EDGE_CFGS:
        for th in grid(73) + [-cmath.phase(cfg.eta)]:
            gap = _gap(cfg, th)
            if gap < -BRANCH_TOL:
                continue
            sp = support_point(cfg, th)
            tt = sp.t_theta
            ae = abs(cfg.eta)
            assert tt > ae
            res = abs(tt * cmath.exp(1j * th) - cfg.eta.conjugate()) \
                - 2.0 * (tt * tt - ae * ae)
            assert abs(res) < 1e-12
            # inside the tolerance band the root has collapsed onto |eta| and
            # zeta is not unimodular
            if gap >= 0.0:
                assert abs(abs(sp.zeta_theta) - 1.0) < 1e-12


def _bisection_root(cfg, th):
    """Reference root of 2 (x^2 - |eta|^2) = |x e^{i theta} - conj(eta)| by
    plain bisection on [|eta|, |eta| + 1/2]."""
    ae = abs(cfg.eta)
    w = cmath.exp(1j * th)
    lo, hi = ae, ae + 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * (mid * mid - ae * ae) - abs(mid * w - cfg.eta.conjugate()) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_newton_root_matches_bisection_reference():
    for cfg in (CFG_I, CFG_III) + EDGE_CFGS[:2]:
        thetas = [th for th in grid(97) if _gap(cfg, th) >= 0.0]
        t_batch = support_arrays(cfg, thetas)[1]
        for th, tt in zip(thetas, t_batch):
            assert abs(tt - _bisection_root(cfg, th)) < 1e-14


def test_strict_branch_returns_t():
    for th in grid(73):
        if _gap(CFG_II, th) < -1e-6:
            assert support_point(CFG_II, th).t_theta == CFG_II.t


def test_support_property():
    # v_theta dominates every member disk in direction theta
    gen = rng(53)
    for cfg in (CFG_I, CFG_II, CFG_III):
        zetas = [random_disk_point(gen, cap=0.999) for _ in range(150)]
        zetas += [cmath.exp(1j * gen.uniform(0.0, 2.0 * math.pi)) for _ in range(50)]
        for th in grid(24):
            sp = support_point(cfg, th)
            e = cmath.exp(-1j * th)
            hmax = (e * sp.v_theta).real
            for z in zetas:
                d = circle_family(cfg, z)
                h = (e * d.center).real + d.radius
                assert h <= hmax + 1e-9


def test_branch_tags_by_regime():
    assert all(support_point(CFG_I, th).regime_branch == "disk-point" for th in grid(36))
    assert all(support_point(CFG_II, th).regime_branch == "full-point" for th in grid(36))
    tags = {support_point(CFG_III, th).regime_branch for th in grid(90)}
    assert tags == {"disk-point", "full-point"}


def test_support_point_continuity_across_switch():
    th1, th2 = critical_angles(CFG_III)
    for tc in (th1, th2):
        lo = support_point(CFG_III, tc - 1e-7)
        hi = support_point(CFG_III, tc + 1e-7)
        assert abs(lo.v_theta - hi.v_theta) < 1e-5


def test_critical_angles():
    th1, th2 = critical_angles(CFG_III)
    assert -math.pi < th1 < th2 <= math.pi
    for tc in (th1, th2):
        assert abs(_gap(CFG_III, tc)) < 1e-10
    for cfg in (CFG_I, CFG_II):
        with pytest.raises(WrongRegimeError):
            critical_angles(cfg)


def test_eta_zero_root_collapses_to_half():
    # eta = 0: root equation 2 x^2 = x, so x = 1/2 and v = e^{i theta}/2... no:
    # zeta = e^{i theta}, v = zeta, the boundary is the unit circle
    cfg = EnvelopeConfig(t=0.3, eta=0j)
    for th in grid(17):
        sp = support_point(cfg, th)
        assert abs(sp.t_theta - 0.5) < 1e-12
        assert abs(sp.v_theta - cmath.exp(1j * th)) < 1e-12


def test_wrap():
    assert _wrap(math.pi) == pytest.approx(math.pi)
    assert _wrap(-math.pi) == pytest.approx(math.pi)
    assert _wrap(3.0 * math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert _wrap(0.4) == pytest.approx(0.4)
