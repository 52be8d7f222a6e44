"""Top-level acceptance gate.

Each test implements one numbered criterion, prints a single PASS/FAIL
line with the measured figure, and asserts at the stated tolerance.
"""

import cmath
import math
import time

import pytest

from diskjet import (blaschke_jet, disk_order1, disk_order2, disk_order3_params,
                     eval_extremal, extremal_spec, gamma, membership_audit,
                     peschl_derivatives, region_spec, sample_boundary,
                     schur_residual, sharp_bound_lambda1)
from diskjet.boundary import abstract_region, closed_form_cap, \
    closed_form_circle, contains
from diskjet.dieudonne import NormalizedConfig
from diskjet.envelope import _gap, circle_family, support_point
from diskjet.verify import extremal_attainment_audit, fd_audit, regime2_search

from conftest import random_blaschke, random_disk_point, rng


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def grid(n):
    return [-math.pi + 2.0 * math.pi * (k + 1) / n for k in range(n)]


def test_criterion_01_membership():
    t0 = time.perf_counter()
    worst, violations = 0.0, 0
    for seed in (1, 2, 3):
        rep = membership_audit(10_000, seed=seed)
        violations += rep.violations
        worst = max(worst, rep.max_violation)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed <= 10.0
    report(1, "membership", ok,
           f"violations={violations}, max_excess={worst:.3e}, elapsed={elapsed:.2f}s")


def test_criterion_02_boundary_attainment():
    rep = extremal_attainment_audit(n_grid=540, seed=1)
    ok = rep.samples >= 500 and rep.violations == 0
    report(2, "boundary attainment", ok,
           f"samples={rep.samples}, violations={rep.violations}, "
           f"max_err={rep.max_violation:.3e}")


def test_criterion_03_schur_residual():
    gen = rng(101)
    worst_eq, worst_neg = 0.0, 0.0
    for degree in (1, 2, 3):
        for _ in range(40):
            b = random_blaschke(gen, degree)
            z = random_disk_point(gen, cap=0.85)
            res = schur_residual(peschl_derivatives(blaschke_jet(b, z), z))
            worst_eq = max(worst_eq, abs(res))
    for _ in range(120):
        b = random_blaschke(gen, 6)
        z = random_disk_point(gen, cap=0.85)
        res = schur_residual(peschl_derivatives(blaschke_jet(b, z), z))
        worst_neg = min(worst_neg, res)
    ok = worst_eq <= 1e-9 and worst_neg >= -1e-10
    report(3, "degree-3 residual", ok,
           f"max_|residual|_deg<=3={worst_eq:.3e}, min_residual_deg6={worst_neg:.3e}")


def test_criterion_04_dual_path_boundary():
    specs = [
        region_spec(0.3, 0.1, 0.2 + 0j),            # admissible, regime i
        abstract_region(0.8, 0.1 - 0.07j),          # regime ii
        abstract_region(0.52, 0.2j),                # regime iii
    ]
    worst = 0.0
    for spec in specs:
        for th in grid(360):
            g = _gap(spec.env, th)
            if abs(g) <= 1e-9:
                continue
            v1 = gamma(spec, th)
            v2 = closed_form_circle(spec, th) if g < 0 \
                else closed_form_cap(spec, support_point(spec.env, th).zeta_theta)
            worst = max(worst, abs(v1 - v2) / (1.0 + abs(v1)))
    ok = worst <= 1e-10
    report(4, "dual-path boundary", ok, f"max_rel_gap={worst:.3e}")


def test_criterion_05_lambda_zero_circle():
    worst = 0.0
    for r, s in ((0.5, 0.25), (0.7, 0.1), (0.9, 0.5)):
        spec = region_spec(r, s, 0j)
        radius = 6.0 * (r * r - s * s) * (1.0 + r * r) / (r * r * (1.0 - r * r) ** 3)
        for p in sample_boundary(spec, 360).points:
            worst = max(worst, abs(abs(p.value) - radius) / radius)
    ok = worst <= 1e-10
    report(5, "lambda-zero circle", ok, f"max_rel_radius_err={worst:.3e}")


def test_criterion_06_convexity_and_containment():
    gen = rng(103)
    specs = [
        region_spec(0.5, 0.25, 0.3 + 0.2j),
        region_spec(0.3, 0.1, 0.2 + 0j),
        abstract_region(0.8, 0.1 - 0.07j),
        abstract_region(0.52, 0.2j),
    ]
    convex_ok = all(sample_boundary(spec, 360).is_convex(1e-10) for spec in specs)
    inside_ok = True
    for spec in specs:
        ws = []
        for _ in range(1000):
            zeta = random_disk_point(gen, cap=1.0)
            d = circle_family(spec.env, zeta)
            ws.append(spec.push(d.center + d.radius * random_disk_point(gen, cap=1.0)))
        inside_ok = inside_ok and all(contains(spec, ws, slack=1e-7))
    ok = convex_ok and inside_ok
    report(6, "convexity and containment", ok,
           f"convex={convex_ok}, contained={inside_ok}")


def test_criterion_07_regime_search():
    rep = regime2_search(grid_density=40, seed=0)
    # analytic prediction: t - |eta| >= 1/2 needs 2|lambda|(s - r) >= (1-r)^2,
    # impossible for s < r, so the grid must come back empty
    ok = rep.violations == 0 and rep.samples == 40 ** 3
    report(7, "full-circle regime search", ok,
           f"samples={rep.samples}, hits={rep.violations}, "
           f"max_(t-|eta|)-0.5={rep.max_violation:.3e}")


def test_criterion_08_jet_vs_pointwise():
    rep = fd_audit(1000, seed=1)
    ok = rep.max_violation <= 1e-5
    report(8, "jet vs pointwise derivatives", ok,
           f"max_rel_err={rep.max_violation:.3e}")


def test_criterion_09_sharp_bound():
    worst, at_minus_one = 0.0, True
    for r, s in ((0.5, 0.25), (0.8, 0.3)):
        bound, _ = sharp_bound_lambda1(r, s)
        best, arg = 0.0, 0.0
        for k in range(512):
            alpha = -math.pi + 2.0 * math.pi * (k + 1) / 512.0
            c = abs(disk_order3_params(complex(r), complex(s), cmath.exp(1j * alpha)).center)
            if c > best:
                best, arg = c, alpha
        worst = max(worst, abs(best - bound))
        at_minus_one = at_minus_one and abs(abs(arg) - math.pi) < 0.02
    ok = worst <= 1e-9 and at_minus_one
    report(9, "sharp bound on degenerate family", ok,
           f"max_gap={worst:.3e}, argmax_at_pi={at_minus_one}")


def test_criterion_10_low_order_regressions():
    d1 = disk_order1(0.5, 0.25)
    # center 1/2 exactly; radius (r^2-s^2)/(r(1-r^2)) = (3/16)/(3/8) = 1/2
    # exactly, witnessed by z T_{1/2}(-T_{-1/2}(z)) whose derivative attains it
    order1_ok = d1.center == 0.5 and d1.radius == 0.5

    worst = 0.0
    r, s = 0.5, 0.25
    for beta in (0j, 0.3 + 0.2j, -0.5 + 0.1j):
        d2 = disk_order2(r, s, beta)
        for th in grid(24):
            cfg = NormalizedConfig(r=r, s=s, lam=beta, mu=cmath.exp(1j * th))
            jet = eval_extremal(extremal_spec(cfg, 2))
            worst = max(worst, abs(abs(2.0 * jet.a2 - d2.center) - d2.radius))
    order2_ok = worst <= 1e-9
    report(10, "order-1/2 regressions", order1_ok and order2_ok,
           f"order1_exact={order1_ok}, order2_max_err={worst:.3e}")
