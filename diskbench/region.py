"""region workload: trace and containment of the f''' region.

Specs are seeded admissible (r, s, lambda): r uniform in [0, 1), s uniform
in [0, r), lambda with |lambda|^2 uniform in the unit disk as the audits
draw it.  Edges are not excluded.  Each spec is traced once
(``region_spec`` plus ``sample_boundary(spec, 3600)``) and then queried
with ``contains`` on equal numbers of inside and outside points whose
answer is known exactly:

* inside: convex combinations of two trace points and the trace centroid;
* outside: v + delta e^{i theta0} in the envelope frame, where v is the
  support point in a direction theta0 strictly between two directions of
  the containment grid and delta is log-uniform from 10 x slack to 1e-2.

``contains`` documents only that genuine members are never rejected (its
grid test is outer-approximating), so a rejected inside point is a failed
operation.  An accepted outside point is a wrong verdict the program does
not promise to avoid: it is counted in ``contains_wrong_share`` (and in
``boundary.contains_wrong_frac`` of the traced run), not as a failure.

Tracing makes one dense theta sweep per spec while containment repeats a
720-direction sweep for every point, so a per-spec cache or a vectorised
envelope moves the containment rate and not the trace time.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from time import perf_counter

from diskjet import contains, region_spec, sample_boundary, support_point

from harness import Window, median

TRACE_N = 3600
POINTS_PER_SIDE = 8
#: default slack and direction grid of ``contains``
CONTAINS_SLACK = 1e-7
CONTAINS_GRID = 720
OUTSIDE_DELTA_MAX = 1e-2

SETUP_WARMUP = """
import diskjet
diskjet.sample_boundary(diskjet.region_spec(0.5, 0.25, 0.3 + 0.2j), 360)
"""


def spec_stream(seed: int):
    """(r, s, lambda, point seed) per spec."""
    rng = random.Random(seed)
    while True:
        r = rng.random()
        s = r * rng.random()
        lam = math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        yield r, s, lam, rng.getrandbits(64)


def make_points(point_seed: int, spec, curve) -> list[tuple[complex, bool]]:
    """Shuffled (w, inside) pairs in the region frame, POINTS_PER_SIDE of each."""
    rng = random.Random(point_seed)
    vals = curve.values()
    centroid = sum(vals) / len(vals)
    points = []
    for _ in range(POINTS_PER_SIDE):
        a, b = rng.choice(vals), rng.choice(vals)
        u1, u2 = sorted((rng.random(), rng.random()))
        points.append((u1 * a + (u2 - u1) * b + (1.0 - u2) * centroid, True))
        k = rng.randrange(CONTAINS_GRID)
        theta0 = -math.pi + 2.0 * math.pi * (k + rng.uniform(0.01, 0.99)) / CONTAINS_GRID
        delta = math.exp(rng.uniform(math.log(10.0 * CONTAINS_SLACK), math.log(OUTSIDE_DELTA_MAX)))
        v = support_point(spec.env, theta0).v_theta
        points.append((spec.push(v + delta * cmath.exp(1j * theta0)), False))
    rng.shuffle(points)
    return points


def _check_trace(tally, item, curve) -> None:
    tally.op(curve.is_convex(), f"non-convex trace at (r, s, lambda) = {item[:3]}")


def _check_verdict(tally, item, w, inside, verdict) -> bool:
    tally.op(verdict or not inside,
             f"contains({w!r}) rejects an inside point at (r, s, lambda) = {item[:3]}")
    return verdict != inside


def measure(checkout, seed: int, win, tally) -> dict:
    """Untraced run: per spec (index, trace seconds, queries, containment seconds)."""
    ops, regimes, refinement, wrong, queries = [], Counter(), [], 0, 0
    specs = spec_stream(seed)
    for k in win:
        item = next(specs)
        try:
            t0 = perf_counter()
            spec = region_spec(*item[:3])
            curve = sample_boundary(spec, TRACE_N)
            trace_s = perf_counter() - t0
            points = make_points(item[3], spec, curve)
            busy = 0.0
            verdicts = []
            for w, _inside in points:
                t0 = perf_counter()
                verdicts.append(contains(spec, w))
                busy += perf_counter() - t0
        except Exception as exc:  # one broken spec must not end the run
            tally.crash(f"(r, s, lambda) = {item[:3]}", exc)
            continue
        ops.append((k, trace_s, len(points), busy))
        regimes[spec.regime] += 1
        refinement.append(len(curve.points) - TRACE_N)
        _check_trace(tally, item, curve)
        for (w, inside), verdict in zip(points, verdicts):
            wrong += _check_verdict(tally, item, w, inside, verdict)
            queries += 1
    n = sum(regimes.values())
    return {
        "ops": ops,
        "names": ("trace", "contains_per_s", "queries/s"),
        "properties": {"specs": n,
                       "regime_share": {k: v / n for k, v in sorted(regimes.items())},
                       "refinement_points_per_trace": sum(refinement) / n,
                       "contains_queries": queries,
                       "contains_wrong_share": wrong / max(queries, 1)},
    }


def replay(checkout, seed: int, tracer, tally, seconds: float | None = None,
           max_ops: int | None = None) -> dict:
    """Traced run: each spec once untraced, then as traced public calls, where
    the trace is replayed as ``support_point`` at every theta of the curve
    and must reproduce its values bit for bit."""
    ops, regimes, branches, sizes, wrong = [], Counter(), Counter(), [], 0
    specs = spec_stream(seed)
    for _ in Window(seconds, max_ops):
        item = next(specs)
        try:
            t0 = perf_counter()
            spec = region_spec(*item[:3])
            curve = sample_boundary(spec, TRACE_N)
            untraced = perf_counter() - t0
            points = make_points(item[3], spec, curve)
            for w, _inside in points:
                t0 = perf_counter()
                contains(spec, w)
                untraced += perf_counter() - t0
            with tracer.span("bench.region_spec") as root:
                traced_spec = tracer.call("boundary.region_spec", region_spec, *item[:3])
                traced_curve = tracer.call("boundary.sample_boundary", sample_boundary,
                                           traced_spec, TRACE_N)
                with tracer.span("bench.trace_replay"):
                    replayed = []
                    for p in traced_curve.points:
                        sp = tracer.call("envelope.support_point", support_point,
                                         traced_spec.env, p.theta)
                        branches[sp.regime_branch] += 1
                        replayed.append(traced_spec.push(sp.v_theta))
                verdicts = [tracer.call("boundary.contains_inside" if inside
                                        else "boundary.contains_outside",
                                        contains, traced_spec, w)
                            for w, inside in points]
        except Exception as exc:  # one broken spec must not end the run
            tally.crash(f"(r, s, lambda) = {item[:3]}", exc)
            continue
        ops.append((root, untraced))
        regimes[spec.regime] += 1
        sizes.append(len(traced_curve.points))
        _check_trace(tally, item, traced_curve)
        tally.op(replayed == traced_curve.values() == curve.values(),
                 f"support-point replay differs from the trace at (r, s, lambda) = {item[:3]}")
        for (w, inside), verdict in zip(points, verdicts):
            wrong += _check_verdict(tally, item, w, inside, verdict)
    n = sum(regimes.values())
    return {"ops": ops,
            "properties": {"specs": n,
                           "regime_share": {k: v / n for k, v in sorted(regimes.items())},
                           "points_per_trace": median(sizes),
                           "root_solve_share": branches["disk-point"] / sum(branches.values()),
                           "contains_wrong_share": wrong / (2 * POINTS_PER_SIDE * n)}}
