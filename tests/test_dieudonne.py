"""Variability disks, parameter extraction, normalization, extremals."""

import cmath
import itertools
import json
import math

import pytest

from diskjet import (DegenerateCaseError, DomainError, ExtremalSpec,
                     InfeasibleConstraintError, InterpolationData, Jet3, NormalizedConfig,
                     blaschke_jet, disk_order1, disk_order2, disk_order3,
                     disk_order3_params, eval_extremal, extremal_spec, lambda_from_w1,
                     moebius_jet, moebius_value, mu_from_w2, normalize, region_spec,
                     sharp_bound_lambda1)
from diskjet.cli import fmt, fmt_complex, main
from diskjet.dieudonne import CASE1_TOL, case
from diskjet.jets import BlaschkeSpec

from conftest import random_disk_point, rng


def w1_of(z0, w0, lam):
    r, s = abs(z0), abs(w0)
    return w0 / z0 + (r * r - s * s) / (z0 * (1.0 - r * r)) * lam


def w2_of(z0, w0, lam, mu):
    r, s = abs(z0), abs(w0)
    return 2.0 * (r * r - s * s) / (z0 ** 2 * (1.0 - r * r) ** 2) * (
        lam * (1.0 - w0.conjugate() * lam) + z0 * mu * (1.0 - abs(lam) ** 2))


# --------------------------------------------------------------------------
# order 1 and 2

def test_order1_rational_example():
    d = disk_order1(0.5, 0.25)
    assert d.center == 0.5
    assert d.radius == 0.5


def test_order1_radius_attained():
    # f(z) = z (z - z0)/(1 - conj(z0) z) sends z0 to 0 with
    # f'(z0) = z0/(1 - r^2); any smaller radius formula is falsified by it
    for z0 in (0.5, 0.3 + 0.4j, -0.7j):
        r = abs(z0)
        fp = z0 * (1.0 - r * r) / (1.0 - r * r) ** 2
        d = disk_order1(z0, 0.0)
        assert abs(abs(fp - d.center) - d.radius) < 1e-14


def test_order1_validation():
    with pytest.raises(DomainError):
        disk_order1(0.0, 0.0)
    with pytest.raises(DomainError):
        disk_order1(1.5, 0.0)
    with pytest.raises(InfeasibleConstraintError):
        disk_order1(0.5, 0.6)


def test_order2_pinned_center_zero():
    # beta = 0 pins f'(z0) = w0/z0; the second derivative then fills a
    # disk centered at 0 of radius 2 (r^2 - s^2) / (r (1 - r^2)^2)
    z0, w0 = 0.5, 0.2
    d = disk_order2(z0, w0, 0.0)
    assert abs(d.center) < 1e-15
    assert abs(d.radius - 2.0 * (0.25 - 0.04) / (0.5 * 0.75 ** 2)) < 1e-15


def test_order2_unimodular_beta_degenerate():
    d = disk_order2(0.5, 0.2, cmath.exp(0.7j))
    assert d.radius < 1e-15


def test_order2_beta_overshoot():
    with pytest.raises(InfeasibleConstraintError):
        disk_order2(0.5, 0.2, 1.0 + 1e-6)
    clamped = disk_order2(0.5, 0.2, 1.0 + 1e-12)
    assert clamped.radius < 1e-15


# --------------------------------------------------------------------------
# parameter extraction

def test_lambda_mu_roundtrip():
    gen = rng(31)
    for _ in range(30):
        z0 = random_disk_point(gen, cap=0.9)
        if abs(z0) < 0.05:
            continue
        w0 = abs(z0) * 0.9 * random_disk_point(gen, cap=1.0)
        lam = random_disk_point(gen, cap=0.95)
        mu = random_disk_point(gen, cap=0.95)
        w1 = w1_of(z0, w0, lam)
        w2 = w2_of(z0, w0, lam, mu)
        lam_back = lambda_from_w1(z0, w0, w1)
        mu_back = mu_from_w2(z0, w0, w2, lam_back)
        assert abs(lam_back - lam) < 1e-12
        assert abs(mu_back - mu) < 1e-11


def test_lambda_infeasible_w1():
    z0, w0 = 0.5, 0.2
    w1 = w1_of(z0, w0, 1.5 + 0j)
    with pytest.raises(InfeasibleConstraintError):
        lambda_from_w1(z0, w0, w1)
    with pytest.raises(InfeasibleConstraintError):
        InterpolationData(z0, w0, w1)


def test_mu_degenerate_when_lambda_unimodular():
    with pytest.raises(DegenerateCaseError):
        mu_from_w2(0.5, 0.2, 0.0, cmath.exp(0.3j))


def test_interpolation_data_validation():
    with pytest.raises(DomainError):
        InterpolationData(0.0, 0.0)
    with pytest.raises(DomainError):
        InterpolationData(1.2, 0.1)
    with pytest.raises(InfeasibleConstraintError):
        InterpolationData(0.4, 0.5)
    d = InterpolationData(0.5 + 0j, 0.1 + 0.1j)
    assert d.r == 0.5 and d.s == pytest.approx(abs(0.1 + 0.1j))


def test_interpolation_data_extracts_lambda_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return lambda_from_w1(*args)

    monkeypatch.setattr("diskjet.dieudonne.lambda_from_w1", counted)
    z0, w0, lam, mu = 0.4 + 0.3j, 0.2 - 0.1j, 0.3 - 0.2j, -0.4 + 0.5j
    data = InterpolationData(z0, w0, w1_of(z0, w0, lam), w2_of(z0, w0, lam, mu))
    assert repr(data.lam) == repr(lambda_from_w1(z0, w0, data.w1))
    assert disk_order3(data) == disk_order3_params(z0, w0, data.lam,
                                                   mu_from_w2(z0, w0, data.w2, data.lam))
    assert len(calls) == 1
    # case 1: lambda on the rim, no w2
    calls.clear()
    disk_order3(InterpolationData(z0, w0, w1_of(z0, w0, cmath.exp(0.4j))))
    assert len(calls) == 1
    assert InterpolationData(z0, w0).lam is None
    # lam is derived: not an argument, not compared, not shown
    assert data == InterpolationData(z0, w0, data.w1, data.w2)
    assert "lam" not in repr(data)
    with pytest.raises(TypeError):
        InterpolationData(z0, w0, data.w1, data.w2, lam)


# --------------------------------------------------------------------------
# order-3 disk

def test_order3_requires_mu_when_interior():
    with pytest.raises(DomainError):
        disk_order3_params(0.5, 0.2, 0.3)
    with pytest.raises(DomainError):
        disk_order3(InterpolationData(0.5, 0.2))


def test_order3_cases_degenerate():
    z0, w0 = 0.5, 0.2
    lam1 = cmath.exp(0.4j)
    assert disk_order3_params(z0, w0, lam1).radius == 0.0
    mu1 = cmath.exp(-1.1j)
    assert disk_order3_params(z0, w0, 0.3 + 0.1j, mu1).radius == 0.0


def test_order3_lambda_zero_circle():
    # lambda = 0 centers every mu-disk so that the union boundary is the
    # exact circle of radius 6 (r^2 - s^2)(1 + r^2) / (r^2 (1 - r^2)^3)
    r, s = 0.5, 0.25
    d = disk_order3_params(complex(r), complex(s), 0.0, cmath.exp(0.9j))
    scale = 6.0 * (r * r - s * s) / (r ** 3 * (1.0 - r * r) ** 3)
    # |mu| = 1 value: center modulus r (1 + r^2) * scale / ... spelled out:
    expected = 6.0 * (r * r - s * s) * (1.0 + r * r) / (r * r * (1.0 - r * r) ** 3)
    assert abs(abs(d.center) - expected) < 1e-12 * expected
    assert scale > 0


def test_order3_from_data_matches_params():
    z0 = 0.4 + 0.3j
    w0 = 0.2 - 0.1j
    lam, mu = 0.3 - 0.2j, -0.4 + 0.5j
    data = InterpolationData(z0, w0, w1_of(z0, w0, lam), w2_of(z0, w0, lam, mu))
    d1 = disk_order3(data)
    d2 = disk_order3_params(z0, w0, lam, mu)
    assert abs(d1.center - d2.center) < 1e-10 * (1.0 + abs(d2.center))
    assert abs(d1.radius - d2.radius) < 1e-10 * (1.0 + d2.radius)


def test_membership_concrete_map():
    # f = z * B for a fixed degree-2 Blaschke product must land inside
    z0 = 0.35 + 0.2j
    spec = BlaschkeSpec(phase=0.3, zeros=(0.2 - 0.1j, -0.4j))
    fj = Jet3.identity(z0) * blaschke_jet(spec, z0)
    lam = lambda_from_w1(z0, fj.a0, fj.a1)
    mu = mu_from_w2(z0, fj.a0, 2.0 * fj.a2, lam)
    d = disk_order3_params(z0, fj.a0, lam, mu)
    assert d.excess(6.0 * fj.a3) <= 1e-9 * (1.0 + d.radius)


# --------------------------------------------------------------------------
# normalization

def test_normalize_identity_frame():
    data = InterpolationData(0.5, 0.25, w1_of(0.5 + 0j, 0.25 + 0j, 0.3 + 0.2j))
    cfg = normalize(data)
    assert cfg.phi == 0.0 and cfg.xi == 0.0
    assert abs(cfg.lam - (0.3 + 0.2j)) < 1e-13


def test_normalize_equivariance():
    gen = rng(37)
    for _ in range(20):
        z0 = random_disk_point(gen, cap=0.85)
        if abs(z0) < 0.1:
            continue
        w0 = 0.8 * abs(z0) * random_disk_point(gen, cap=1.0)
        lam = random_disk_point(gen, cap=0.9)
        mu = random_disk_point(gen, cap=0.9)
        data = InterpolationData(z0, w0, w1_of(z0, w0, lam), w2_of(z0, w0, lam, mu))
        cfg = normalize(data)
        d_orig = disk_order3(data)
        d_norm = disk_order3_params(complex(cfg.r), complex(cfg.s), cfg.lam, cfg.mu)
        rot = cmath.exp(-1j * (3.0 * cfg.phi - cfg.xi))
        assert abs(d_orig.center - rot * d_norm.center) < 1e-11 * (1.0 + abs(d_norm.center))
        assert abs(d_orig.radius - d_norm.radius) < 1e-11 * (1.0 + d_norm.radius)


def test_normalized_config_validation():
    with pytest.raises(DomainError):
        NormalizedConfig(r=0.3, s=0.4, lam=0j)
    with pytest.raises(InfeasibleConstraintError):
        NormalizedConfig(r=0.5, s=0.2, lam=1.5 + 0j)
    cfg = NormalizedConfig(r=0.5, s=0.2, lam=0j, phi=0.4, xi=0.1)
    assert abs(cfg.rotation(3) - cmath.exp(1j * (1.2 - 0.1))) < 1e-15
    # an overshoot within FEAS_TOL is clamped onto the circle, as in lambda_from_w1
    cfg = NormalizedConfig(r=0.5, s=0.2, lam=(1.0 + 5e-10) * cmath.exp(0.7j),
                           mu=(1.0 + 5e-10) * cmath.exp(-0.8j))
    assert abs(cfg.lam) <= 1.0 and abs(cfg.mu) <= 1.0


# --------------------------------------------------------------------------
# extremal maps

def _interp_checks(spec, z0, w0, lam, mu=None):
    jet = eval_extremal(spec)
    assert abs(jet.a0 - w0) < 1e-12
    lam_back = lambda_from_w1(z0, jet.a0, jet.a1)
    assert abs(lam_back - lam) < 1e-10
    if mu is not None and case(lam) != 1:
        mu_back = mu_from_w2(z0, jet.a0, 2.0 * jet.a2, lam_back)
        assert abs(mu_back - mu) < 1e-9
    return jet


def test_depth1_forced_value():
    r, s = 0.5, 0.25
    lam = cmath.exp(2.1j)
    cfg = NormalizedConfig(r=r, s=s, lam=lam)
    spec = extremal_spec(cfg, 1)
    jet = _interp_checks(spec, complex(r), complex(s), lam)
    d = disk_order3_params(complex(r), complex(s), lam)
    assert abs(6.0 * jet.a3 - d.center) < 1e-10 * (1.0 + abs(d.center))


def test_depth2_forced_value_and_interpolation():
    r, s = 0.6, 0.3
    lam, mu = 0.2 - 0.3j, cmath.exp(-0.8j)
    cfg = NormalizedConfig(r=r, s=s, lam=lam, mu=mu)
    jet = _interp_checks(extremal_spec(cfg, 2), complex(r), complex(s), lam, mu)
    d = disk_order3_params(complex(r), complex(s), lam, mu)
    assert abs(6.0 * jet.a3 - d.center) < 1e-9 * (1.0 + abs(d.center))


def test_depth3_boundary_attainment():
    r, s = 0.5, 0.25
    lam, mu = 0.3 + 0.2j, 0.4 - 0.3j
    cfg = NormalizedConfig(r=r, s=s, lam=lam, mu=mu)
    d = disk_order3_params(complex(r), complex(s), lam, mu)
    for k in range(12):
        theta = 2.0 * math.pi * k / 12.0
        jet = _interp_checks(extremal_spec(cfg, 3, theta), complex(r), complex(s), lam, mu)
        assert abs(abs(6.0 * jet.a3 - d.center) - d.radius) < 1e-9 * (1.0 + d.radius)


def test_depth3_rotated_frame():
    # attainment survives rotation out of the real normalized frame
    z0 = 0.5 * cmath.exp(0.7j)
    w0 = 0.25 * cmath.exp(-0.4j)
    lam, mu = 0.3 + 0.2j, 0.4 - 0.3j
    data = InterpolationData(z0, w0, w1_of(z0, w0, lam), w2_of(z0, w0, lam, mu))
    cfg = normalize(data)
    d = disk_order3(data)
    jet = eval_extremal(extremal_spec(cfg, 3, 0.9))
    assert abs(jet.a0 - w0) < 1e-12
    assert abs(jet.a1 - data.w1) < 1e-12
    assert abs(2.0 * jet.a2 - data.w2) < 1e-11
    assert abs(abs(6.0 * jet.a3 - d.center) - d.radius) < 1e-9 * (1.0 + d.radius)


def test_overshoot_extremals_hit_forced_value(capsys):
    # |lambda| or |mu| in (1, 1 + FEAS_TOL] is clamped before the extremal map
    # is built, so the depth-1 and depth-2 maps still hit the forced w3
    over = 1.0 + 5e-10
    for r, s, lam, mu, depth in ((0.5, 0.25, over * cmath.exp(0.7j), None, 1),
                                 (0.6, 0.3, 0.3 + 0.2j, over * cmath.exp(-0.8j), 2)):
        d = disk_order3_params(complex(r), complex(s), lam, mu)
        assert d.radius == 0.0
        jet = eval_extremal(extremal_spec(NormalizedConfig(r=r, s=s, lam=lam, mu=mu), depth))
        assert abs(6.0 * jet.a3 - d.center) < 1e-14 * (1.0 + abs(d.center))
        argv = ["extremal", "--z0", fmt(r), "--w0", fmt(s), "--lambda", fmt_complex(lam)]
        if mu is not None:
            argv += ["--mu", fmt_complex(mu)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["depth"] == depth
        assert payload["boundary_angle_check"] < 1e-14 * (1.0 + abs(d.center))


def test_disks_accurate_at_edges():
    # s -> r and r -> 1 cancel in r^2 - s^2 and 1 - r^2 unless factored;
    # the reference evaluates the same float inputs in 50 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    beta = lam = 0.3 + 0.2j
    mu = 0.4 - 0.3j
    for r, s in ((0.5, 0.5 * (1.0 - 1e-10)), (1.0 - 1e-8, 0.3),
                 (1e-120, 0.0), (1e-200, 0.5e-200), (1e-300, 0.5e-300)):
        R, S = mp.mpf(r), mp.mpf(s)
        B, L, M = mp.mpc(beta), mp.mpc(lam), mp.mpc(mu)
        q, g = R * R - S * S, 1 - R * R
        k2, k3 = 2 * q / (R * g) ** 2, 6 * q / (R * g) ** 3
        gap_l = 1 - abs(L) ** 2
        cubic = S * S * L ** 3 - S * (1 + R * R) * L ** 2 + R * R * L
        want = [
            (disk_order1(complex(r), complex(s)), S / R, q / (R * g)),
            (disk_order2(complex(r), complex(s), beta),
             k2 * B * (1 - S * B), k2 * R * (1 - abs(B) ** 2)),
            (disk_order3_params(complex(r), complex(s), lam, mu),
             k3 * (cubic + R * M * gap_l * (1 + R * R - 2 * S * L - R * mp.conj(L) * M)),
             k3 * R * R * gap_l * (1 - abs(M) ** 2)),
        ]
        for disk, center, radius in want:
            assert abs(mp.mpc(disk.center) - center) <= 1e-13 * abs(center)
            assert abs(disk.radius - radius) <= 1e-13 * radius


def _preimage(f, target, x0):
    """A float x near x0 with f(x) == target exactly, or None."""
    lo = hi = x0
    for _ in range(64):
        for x in (lo, hi):
            if f(x) == target:
                return x
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return None


def _exact_inputs(extract, of, targets):
    """A base point z0 = r (w0 = 0) and real inputs x, one per target, with
    extract(z0, x) == target exactly; the search starts at x = of(z0, target)."""
    for r in (k / 100.0 for k in range(30, 90)):
        z0 = complex(r)
        xs = [_preimage(lambda x: extract(z0, complex(x)), t, of(z0, t).real)
              for t in targets]
        if None not in xs:
            return r, xs
    raise AssertionError("no base point extracts the threshold values exactly")


def _cli_depth(capsys, r, lam, mu):
    assert main(["extremal", "--z0", fmt(r), "--w0", "0", "--lambda", fmt(lam),
                 "--mu", fmt(mu)]) == 0
    return json.loads(capsys.readouterr().out)["depth"]


def _depths(r, lam, mu):
    """The depths extremal_spec accepts."""
    cfg = NormalizedConfig(r=r, s=0.0, lam=lam, mu=mu)
    ok = set()
    for depth in (1, 2, 3):
        try:
            extremal_spec(cfg, depth)
        except DomainError:
            continue
        ok.add(depth)
    return ok


def test_case_threshold_shared_by_every_consumer(capsys):
    # |lambda| (|mu|) = 1 - CASE1_TOL is case 1 (2); the next float below is
    # case 3.  Every consumer must agree with dieudonne.case on both sides.
    edge = 1.0 - CASE1_TOL
    sides = (edge, math.nextafter(edge, 0.0))
    r, w1s = _exact_inputs(lambda z0, w1: lambda_from_w1(z0, 0j, w1),
                           lambda z0, lam: w1_of(z0, 0j, lam), sides)
    z0 = complex(r)
    for lam, w1 in zip(sides, w1s):
        k = case(lam)
        assert k == (1 if lam == edge else 3)
        w2 = w2_of(z0, 0j, lam, 0j)
        data = InterpolationData(z0, 0j, complex(w1), w2)
        assert (disk_order3_params(z0, 0j, lam, 0j).radius == 0.0) == (k == 1)
        assert (normalize(data).mu is None) == (k == 1)
        try:
            region_spec(r, 0.0, lam)
            rejected = False
        except DomainError:
            rejected = True
        assert rejected == (k == 1)
        assert _depths(r, lam, 0j) == {k}
        assert _cli_depth(capsys, r, lam, 0.0) == k
        code = main(["boundary", "--z0", fmt(r), "--w0", "0", "--w1", fmt(w1), "--n", "16"])
        capsys.readouterr()
        assert code == (2 if k == 1 else 0)
        # the dispatch of the membership audit
        assert (disk_order3(data).radius == 0.0) == (k == 1)
    r, w2s = _exact_inputs(lambda z0, w2: mu_from_w2(z0, 0j, w2, 0j),
                           lambda z0, mu: w2_of(z0, 0j, 0j, mu), sides)
    z0 = complex(r)
    for mu, w2 in zip(sides, w2s):
        k = case(0j, mu)
        assert k == (2 if mu == edge else 3)
        assert (disk_order3_params(z0, 0j, 0j, mu).radius == 0.0) == (k == 2)
        assert _depths(r, 0j, mu) == {k}
        assert _cli_depth(capsys, r, 0.0, mu) == k
        assert (disk_order3(InterpolationData(z0, 0j, 0j, complex(w2))).radius == 0.0) == (k == 2)


def test_base_data_rule_shared_by_every_consumer(capsys):
    # 0 < |z0| < 1 (DomainError) and |w0| < |z0| (InfeasibleConstraintError)
    # are checked by one rule; every consumer of complex base data and every
    # command reaching one must apply it, the commands with exit code 2
    consumers = (
        lambda z0, w0: InterpolationData(z0, w0),
        lambda z0, w0: NormalizedConfig.from_params(z0, w0, 0.3, 0.2),
        disk_order1,
        lambda z0, w0: disk_order2(z0, w0, 0.3),
        lambda z0, w0: disk_order3_params(z0, w0, 0.3, 0.2),
        lambda z0, w0: lambda_from_w1(z0, w0, 0.1),
        lambda z0, w0: mu_from_w2(z0, w0, 0.1, 0.3),
    )
    commands = (
        ["disk", "--order", "1"],
        ["disk", "--order", "2", "--beta", "0.3"],
        ["disk", "--order", "3", "--lambda", "0.3", "--mu", "0.2"],
        ["extremal", "--lambda", "0.3", "--mu", "0.2"],
        ["boundary", "--w1", "0.1", "--n", "16"],
    )
    z0 = 0.5 * cmath.exp(0.7j)
    bad = [(complex(z), 0j, DomainError) for z in (0.0, math.nan, 1.0, 1.5, cmath.exp(0.3j))]
    bad += [(z0, w0, InfeasibleConstraintError) for w0 in (z0, 1.1 * z0)]
    for z, w, error in bad:
        for consumer in consumers:
            with pytest.raises(error):
                consumer(z, w)
        for argv in commands:
            assert main(argv + ["--z0", fmt_complex(z), "--w0", fmt_complex(w)]) == 2
            assert capsys.readouterr().err.startswith("infeasible: ")


def test_extremal_spec_depth_errors():
    cfg_int = NormalizedConfig(r=0.5, s=0.2, lam=0.1 + 0j, mu=0.2 + 0j)
    cfg_uni = NormalizedConfig(r=0.5, s=0.2, lam=cmath.exp(0.2j))
    with pytest.raises(DomainError):
        extremal_spec(cfg_int, 1)
    with pytest.raises(DomainError):
        extremal_spec(cfg_uni, 3)
    with pytest.raises(DomainError):
        extremal_spec(cfg_int, 2)       # needs |mu| = 1
    with pytest.raises(DomainError):
        extremal_spec(NormalizedConfig(r=0.5, s=0.2, lam=0.1 + 0j), 3)
    with pytest.raises(DomainError):
        extremal_spec(cfg_int, 4)


def _branch_eval(z0, u0, depth, v0, tau=None, eta_ext=None, theta=0.0, z=None):
    """The extremal jet with one hand-written branch per depth: the oracle
    of eval_extremal's Schur-chain loop."""
    at = z0 if z is None else complex(z)
    zj = Jet3.identity(at)
    m = moebius_jet(-z0, zj)
    if depth == 1:
        inner = m.scale(v0)
    elif depth == 2:
        inner = m * moebius_jet(v0, m.scale(tau))
    else:
        rot = cmath.exp(1j * theta)
        inner = m * moebius_jet(v0, m * moebius_jet(eta_ext, m.scale(rot)))
    return zj * moebius_jet(u0, inner)


def test_extremal_chain_matches_branches():
    gen = rng(43)
    for _ in range(100):
        z0 = random_disk_point(gen)
        u0, v0, eta = (random_disk_point(gen) for _ in range(3))
        tau = cmath.exp(1j * gen.uniform(0.0, 2.0 * math.pi))
        theta = gen.uniform(0.0, 2.0 * math.pi)
        z = random_disk_point(gen, cap=0.99)
        # a rotated frame and the real normalized one
        for base, at in itertools.product((z0, complex(abs(z0))), (None, z)):
            for links, branch in (((u0, tau), dict(depth=1, v0=tau)),
                                  ((u0, v0, tau), dict(depth=2, v0=v0, tau=tau)),
                                  ((u0, v0, eta, cmath.exp(1j * theta)),
                                   dict(depth=3, v0=v0, eta_ext=eta, theta=theta))):
                want = _branch_eval(base, u0, z=at, **branch)
                assert repr(eval_extremal(ExtremalSpec(base, links), at)) == repr(want)


def test_extremal_is_self_map():
    # spot check |f| < 1 on the disk and f(0) = 0
    cfg = NormalizedConfig(r=0.5, s=0.25, lam=0.3 + 0.2j, mu=0.4 - 0.3j)
    spec = extremal_spec(cfg, 3, 1.3)
    assert abs(eval_extremal(spec, 0j).a0) < 1e-15
    gen = rng(41)
    for _ in range(50):
        z = random_disk_point(gen, cap=0.99)
        assert abs(eval_extremal(spec, z).a0) < 1.0


# --------------------------------------------------------------------------
# sharp bound on the degenerate family

def test_sharp_bound_formula_and_attainment():
    for r, s in ((0.5, 0.25), (0.8, 0.3)):
        bound, a = sharp_bound_lambda1(r, s)
        grid_max, arg = 0.0, 0.0
        for k in range(512):
            alpha = -math.pi + 2.0 * math.pi * (k + 1) / 512.0
            c = abs(disk_order3_params(complex(r), complex(s), cmath.exp(1j * alpha)).center)
            if c > grid_max:
                grid_max, arg = c, alpha
        assert abs(grid_max - bound) < 1e-9 * bound
        assert abs(abs(arg) - math.pi) < 2.0 * math.pi / 512.0 + 1e-12

        # the attaining map is the depth-1 extremal at lambda = -1; at the
        # base point it reduces to z0 * T_{s/r}(0) = s
        cfg = NormalizedConfig(r=r, s=s, lam=-1.0 + 0j)
        jet = eval_extremal(extremal_spec(cfg, 1))
        assert abs(abs(6.0 * jet.a3) - bound) < 1e-9 * bound
        assert abs(jet.a0 / r - moebius_value(s / r, 0j)) < 1e-14
        assert 0.0 < a < 1.0


def test_sharp_bound_validation():
    with pytest.raises(DomainError):
        sharp_bound_lambda1(0.3, 0.4)
