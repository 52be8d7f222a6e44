"""Region boundary: dual paths, convexity, containment, attainment."""

import cmath
import math

import pytest

from diskjet import (DomainError, InterpolationData, NormalizedConfig,
                     WrongRegimeError, abstract_region, closed_form_cap,
                     closed_form_circle, disk_order3_params, eval_extremal,
                     extremal_spec, gamma, normalize, region_spec, sample_boundary)
from diskjet.boundary import (REFINE_WIDTH, BoundaryCurve, BoundaryPoint, contains,
                              denormalize, gamma_point)
from diskjet.envelope import _gap, _wrap, critical_angles, support_arrays, support_point

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


def _seeded_specs(seed=83, per_regime=2):
    """The first admissible specs of regimes i and iii from a seeded draw,
    plus one abstract regime-ii spec."""
    gen, specs, need = rng(seed), [], {"i": per_regime, "iii": per_regime}
    while any(need.values()):
        r = float(gen.uniform(0.01, 0.99))
        spec = region_spec(r, r * float(gen.uniform()), random_disk_point(gen, cap=0.99))
        if need.get(spec.regime):
            need[spec.regime] -= 1
            specs.append(spec)
    return specs + [abstract_region(0.7, 0.15 + 0.05j, B=0.5 - 2.0j, C=-1.1 + 0.8j)]


def _grid_oracle(spec, n):
    """The refined direction grid by the Python rule: sorted(set(...)) of floats."""
    thetas = grid(n)
    if spec.regime == "iii":
        extra = []
        for tc in critical_angles(spec.env):
            w = 2.0 * math.pi / n
            while w > REFINE_WIDTH:
                w /= 2.0
                extra.extend((_wrap(tc - w), _wrap(tc + w)))
            extra.append(tc)
        thetas = sorted(set(thetas) | set(extra))
    return thetas


def _hex(z):
    return z.real.hex(), z.imag.hex()


def test_trace_replays_support_points_bit_for_bit():
    # every trace point has the bits of its own scalar support point pushed
    # with Python complex arithmetic, signed zeros included
    cases = [(spec, n) for spec in (SPEC_I, SPEC_II, SPEC_ADM, SPEC_III) for n in (16, 360)]
    cases += [(spec, n) for spec in _seeded_specs(per_regime=1) for n in (16, 17, 360, 3600)]
    for spec, n in cases:
        curve = sample_boundary(spec, n)
        for th, value, arc in zip(curve.theta.tolist(), curve.values(), curve.arc.tolist()):
            sp = support_point(spec.env, th)
            assert arc == (sp.regime_branch == "full-point")
            assert _hex(value) == _hex(spec.push(sp.v_theta)), (spec, n, th)


def test_refined_grid_matches_sorted_set_rule():
    specs = _seeded_specs(seed=89, per_regime=40)
    assert sum(spec.regime == "iii" for spec in specs) == 40
    for spec in specs:
        for n in (16, 17, 360):
            thetas = sample_boundary(spec, n).theta.tolist()
            assert [t.hex() for t in thetas] == [t.hex() for t in _grid_oracle(spec, n)]


def test_trace_builds_no_points_until_asked(monkeypatch):
    import diskjet.boundary as bnd
    built = []

    def counting(*args):
        built.append(args)
        return BoundaryPoint(*args)

    monkeypatch.setattr(bnd, "BoundaryPoint", counting)
    for spec in (SPEC_I, SPEC_II, SPEC_ADM):
        curve = sample_boundary(spec, 360)
        rotated = denormalize(curve, 0.4, -1.3)
        assert curve.is_convex() and rotated.is_convex()
        assert all(contains(spec, curve.values()))
        assert built == []
        # built once, on first access, as Python types
        points = curve.points
        assert len(built) == len(points) and curve.points is points
        assert all(type(p) is BoundaryPoint and type(p.theta) is float
                   and type(p.value) is complex and type(p.branch) is str for p in points)
        # the tuple the per-point trace builds
        thetas = _grid_oracle(spec, 360)
        full, _, _, v = support_arrays(spec.env, thetas)
        assert points == tuple(BoundaryPoint(th, spec.push(vt), "arc" if a else "cap")
                               for th, a, vt in zip(thetas, full.tolist(), v.tolist()))
        built.clear()


def test_curve_equality_and_read_only_arrays():
    curve = sample_boundary(SPEC_ADM, 64)
    again = sample_boundary(SPEC_ADM, 64)
    assert curve == again and hash(curve) == hash(again)
    assert curve != denormalize(curve, 0.5, 0.0) and curve != sample_boundary(SPEC_ADM, 65)
    assert curve != curve.points
    with pytest.raises(ValueError):
        curve.value[0] = 0j


def _is_convex_loop(vals, slack=1e-10):
    """Per-point convexity test on Python complex values (the oracle)."""
    n = len(vals)
    scale = max(abs(v) for v in vals) or 1.0
    for i in range(n):
        a, b, c = vals[i], vals[(i + 1) % n], vals[(i + 2) % n]
        e1, e2 = b - a, c - b
        if e1.real * e2.imag - e1.imag * e2.real < -slack * scale * scale:
            return False
    return True


def test_is_convex_matches_point_loop():
    gen = rng(97)
    curves = []
    for spec in (SPEC_I, SPEC_II, SPEC_ADM, SPEC_III) + tuple(_seeded_specs(seed=101)):
        for n in (16, 17, 360):
            c = sample_boundary(spec, n)
            perm = gen.permutation(len(c.theta))
            curves += [c, denormalize(c, 1.1, 0.2),
                       BoundaryCurve(c.theta[::-1], c.value[::-1], c.arc[::-1]),
                       BoundaryCurve(c.theta[perm], c.value[perm], c.arc[perm])]
    verdicts = [(c.is_convex(), _is_convex_loop(c.values())) for c in curves]
    assert all(a == b for a, b in verdicts)
    assert 0 < sum(not a for a, _ in verdicts) < len(verdicts)


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
