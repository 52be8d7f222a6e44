"""Region boundary: dual paths, convexity, containment, attainment."""

import cmath
import math

import pytest

from diskjet import (DomainError, InterpolationData, NormalizedConfig,
                     WrongRegimeError, abstract_region, closed_form_cap,
                     closed_form_circle, disk_order3_params, eval_extremal,
                     extremal_spec, gamma, normalize, region_spec, sample_boundary)
from diskjet.boundary import contains, denormalize, gamma_point
from diskjet.envelope import _gap, support_point

from conftest import random_disk_point, rng


def grid(n=360):
    return [-math.pi + 2.0 * math.pi * (k + 1) / n for k in range(n)]


SPEC_ADM = region_spec(0.5, 0.25, 0.3 + 0.2j)            # admissible, regime iii
SPEC_I = region_spec(0.3, 0.1, 0.2 + 0j)                 # admissible, regime i
SPEC_II = abstract_region(0.8, 0.1 - 0.07j)              # regime ii (abstract only)
SPEC_III = abstract_region(0.52, 0.2j, B=2.0 - 1.0j, C=1.4 + 0.6j)


def test_region_spec_validation():
    with pytest.raises(DomainError):
        region_spec(0.3, 0.4, 0j)
    with pytest.raises(DomainError):
        region_spec(0.5, 0.2, 1.0 + 0j)
    # |lambda| within CASE1_TOL of 1 is the one-point case (1) of the disk API;
    # the trace there is not convex
    with pytest.raises(DomainError):
        region_spec(0.5, 0.25, 1.0 - 1e-13)
    assert sample_boundary(region_spec(0.5, 0.25, 1.0 - 1e-11), 360).is_convex()
    assert SPEC_I.regime == "i"
    assert SPEC_ADM.regime == "iii"


def test_push_pull_inverse():
    for spec in (SPEC_ADM, SPEC_III):
        w = 1.3 - 0.4j
        assert abs(spec.pull(spec.push(w)) - w) < 1e-13


def test_envelope_constants_consistent():
    # t and eta of an admissible spec come from one shared denominator
    r, s, lam = 0.5, 0.25, 0.3 + 0.2j
    denom = 1.0 + r * r - 2.0 * s * lam
    assert abs(SPEC_ADM.env.t - r / abs(denom)) < 1e-15
    assert abs(SPEC_ADM.env.eta - r * lam.conjugate() / denom) < 1e-15
    assert SPEC_ADM.env.t > abs(SPEC_ADM.env.eta)


def test_dual_path_regime_i():
    for th in grid():
        v1 = gamma(SPEC_I, th)
        v2 = closed_form_cap(SPEC_I, support_point(SPEC_I.env, th).zeta_theta)
        assert abs(v1 - v2) < 1e-10 * (1.0 + abs(v1))


def test_dual_path_regime_ii():
    for th in grid():
        v1 = gamma(SPEC_II, th)
        v2 = closed_form_circle(SPEC_II, th)
        assert abs(v1 - v2) < 1e-10 * (1.0 + abs(v1))


def test_dual_path_regime_iii_both_branches():
    for spec in (SPEC_ADM, SPEC_III):
        for th in grid():
            v1 = gamma(spec, th)
            if _gap(spec.env, th) < -1e-9:
                v2 = closed_form_circle(spec, th)
            elif _gap(spec.env, th) > 1e-9:
                v2 = closed_form_cap(spec, support_point(spec.env, th).zeta_theta)
            else:
                continue
            assert abs(v1 - v2) < 1e-10 * (1.0 + abs(v1))


def test_closed_form_regime_guards():
    with pytest.raises(WrongRegimeError):
        closed_form_circle(SPEC_I, 0.0)
    with pytest.raises(WrongRegimeError):
        closed_form_cap(SPEC_II, 1.0 + 0j)
    with pytest.raises(DomainError):
        closed_form_cap(SPEC_I, 0.5 + 0j)
    # regime iii: each closed form rejects the other branch's inputs
    cap_thetas = [th for th in grid(180) if _gap(SPEC_ADM.env, th) > 1e-6]
    assert cap_thetas
    with pytest.raises(WrongRegimeError):
        closed_form_circle(SPEC_ADM, cap_thetas[0])
    hits = 0
    for alpha in grid(180):
        try:
            closed_form_cap(SPEC_ADM, cmath.exp(1j * alpha))
        except WrongRegimeError:
            hits += 1
    assert hits > 0     # part of the unit circle lies outside the cap subarc


def test_lambda_zero_exact_circle():
    for r, s in ((0.5, 0.25), (0.7, 0.1), (0.9, 0.5)):
        spec = region_spec(r, s, 0j)
        expected = 6.0 * (r * r - s * s) * (1.0 + r * r) / (r * r * (1.0 - r * r) ** 3)
        for p in sample_boundary(spec, 90).points:
            assert abs(abs(p.value) - expected) < 1e-10 * expected


def test_sample_boundary_shape_and_tags():
    with pytest.raises(DomainError):
        sample_boundary(SPEC_I, 8)
    curve = sample_boundary(SPEC_I, 64)
    assert len(curve.points) == 64
    assert all(p.branch == "cap" for p in curve.points)
    curve2 = sample_boundary(SPEC_II, 64)
    assert all(p.branch == "arc" for p in curve2.points)
    curve3 = sample_boundary(SPEC_ADM, 64)
    assert len(curve3.points) > 64          # refined near the switches
    assert {p.branch for p in curve3.points} == {"arc", "cap"}


def test_sampled_curves_convex():
    for spec in (SPEC_ADM, SPEC_I, SPEC_II, SPEC_III):
        assert sample_boundary(spec, 180).is_convex()


def test_containment_inner_points():
    gen = rng(61)
    from diskjet.envelope import circle_family
    for spec in (SPEC_ADM, SPEC_I, SPEC_III):
        ws = []
        for _ in range(200):
            zeta = random_disk_point(gen, cap=1.0)
            d = circle_family(spec.env, zeta)
            w = d.center + d.radius * random_disk_point(gen, cap=1.0)
            ws.append(spec.push(w))
        assert all(contains(spec, ws))


def test_containment_rejects_outside():
    for spec in (SPEC_ADM, SPEC_I, SPEC_II):
        far = spec.push(100.0 + 0j)
        assert not contains(spec, far)
        # just past a boundary point along its support direction
        bp = gamma_point(spec, 0.7)
        outward = spec.push(spec.pull(bp.value) + 1e-3 * cmath.exp(0.7j))
        assert not contains(spec, outward, slack=1e-7)


def test_trace_replays_support_points_bit_for_bit():
    # the batch trace equals scalar support points pushed one by one
    for spec in (SPEC_I, SPEC_II, SPEC_ADM, SPEC_III):
        curve = sample_boundary(spec, 360)
        replayed = []
        for p in curve.points:
            sp = support_point(spec.env, p.theta)
            assert p.branch == ("arc" if sp.regime_branch == "full-point" else "cap")
            replayed.append(spec.push(sp.v_theta))
        assert curve.values() == replayed


def test_contains_array_matches_scalar():
    # points straddling the boundary along each support direction
    for spec in (SPEC_I, SPEC_II, SPEC_ADM):
        ws = [spec.push(spec.pull(gamma(spec, th)) * scale)
              for th in grid(40) for scale in (0.5, 1.0 - 1e-6, 1.0 + 1e-9, 1.0 + 1e-4)]
        ws.append(spec.push(100.0 + 0j))
        verdicts = contains(spec, ws)
        assert verdicts == [contains(spec, w) for w in ws]
        assert all(type(v) is bool for v in verdicts)
        assert True in verdicts and False in verdicts


def test_boundary_points_on_boundary():
    # sampled boundary points are contained and extreme: contained at
    # positive slack, rejected when nudged outward
    for th in grid(24):
        v = gamma(SPEC_ADM, th)
        assert contains(SPEC_ADM, v, slack=1e-7)


def test_denormalize_rotation():
    data = InterpolationData(0.5 * cmath.exp(0.7j), 0.25 * cmath.exp(-0.4j),
                             None, None)
    # build w1 from lambda in the rotated frame through the forward map
    z0, w0 = data.z0, data.w0
    r, s = data.r, data.s
    lam = 0.3 + 0.2j
    w1 = w0 / z0 + (r * r - s * s) / (z0 * (1.0 - r * r)) * lam
    cfg = normalize(InterpolationData(z0, w0, w1))
    spec = region_spec(cfg.r, cfg.s, cfg.lam)
    curve = sample_boundary(spec, 64)
    rotated = denormalize(curve, cfg.phi, cfg.xi)
    rot = cmath.exp(-1j * (3.0 * cfg.phi - cfg.xi))
    for p, q in zip(curve.points, rotated.points):
        assert abs(q.value - rot * p.value) < 1e-13 * (1.0 + abs(p.value))
        assert q.branch == p.branch and q.theta == p.theta
    ident = denormalize(curve, 0.0, 0.0)
    assert ident.points == curve.points


def _attain(spec, cfg_rsl, th):
    """Boundary point of an admissible region via an extremal map jet."""
    r, s, lam = cfg_rsl
    bp = gamma_point(spec, th)
    zt = support_point(spec.env, th).zeta_theta
    if bp.branch == "cap":
        cfg = NormalizedConfig(r=r, s=s, lam=lam, mu=zt / abs(zt))
        jet = eval_extremal(extremal_spec(cfg, 2))
    else:
        cfg = NormalizedConfig(r=r, s=s, lam=lam, mu=zt)
        psi = th + cmath.phase(spec.C)
        jet = eval_extremal(extremal_spec(cfg, 3, psi))
    return bp.value, 6.0 * jet.a3


def test_boundary_attained_by_extremals():
    rsl = (0.5, 0.25, 0.3 + 0.2j)
    spec = region_spec(*rsl)
    for th in grid(36):
        target, got = _attain(spec, rsl, th)
        assert abs(target - got) < 1e-9 * (1.0 + abs(target))


def test_boundary_attained_regime_i():
    rsl = (0.3, 0.1, 0.2 + 0j)
    spec = region_spec(*rsl)
    for th in grid(24):
        target, got = _attain(spec, rsl, th)
        assert abs(target - got) < 1e-9 * (1.0 + abs(target))


def test_region_matches_disk_union_sampling():
    # every mu-disk of the admissible data sits inside the region
    r, s, lam = 0.5, 0.25, 0.3 + 0.2j
    spec = region_spec(r, s, lam)
    from diskjet import disk_order3_params
    gen = rng(67)
    ws = []
    for _ in range(100):
        mu = random_disk_point(gen, cap=1.0)
        d = disk_order3_params(complex(r), complex(s), lam, mu)
        ws.append(d.center + d.radius * random_disk_point(gen, cap=1.0))
    assert all(contains(spec, ws))


def test_region_frame_is_the_mu_disk_family():
    # the mu-disk of the order-3 lemma is centered at B + C mu (1 - eta mu)
    # with radius |C| t (1 - |mu|^2), for every admissible (r, s, lambda, mu)
    gen = rng(71)
    for _ in range(2000):
        r = float(gen.uniform(0.01, 0.99))
        s = r * float(gen.uniform())
        lam, mu = random_disk_point(gen, cap=0.99), random_disk_point(gen, cap=1.0)
        spec = region_spec(r, s, lam)
        d = disk_order3_params(r, s, lam, mu)
        eta, t = spec.env.eta, spec.env.t
        assert abs(spec.push(mu * (1.0 - eta * mu)) - d.center) <= 1e-13 * abs(d.center)
        assert abs(abs(spec.C) * t * (1.0 - abs(mu) ** 2) - d.radius) <= 1e-13 * d.radius
