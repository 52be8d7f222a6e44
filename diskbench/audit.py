"""audit workload: repeated passes of the public Monte-Carlo and grid audits.

One pass is the work of ``diskjet verify --suite all --n 2000 --seed S``
(membership and fd audits of 2000 samples, regime-2 grid of density 40)
plus ``extremal_attainment_audit(540)``, with S drawn from the run's seed.
Its time is per-sample Python: Generator set-up and sampling, Blaschke
jets and the closed forms.  The envelope layer is never touched.

The traced run replays a pass as a sequence of public calls, one span
each, in the order the audits make them.  The membership replay must
reproduce ``membership_audit``'s violation count and ``max_violation``
bit for bit.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from time import perf_counter

import numpy as np

from diskjet import (DegenerateCaseError, InfeasibleConstraintError, Jet3, NormalizedConfig,
                     blaschke_jet, blaschke_value, disk_order3_params, eval_extremal,
                     extremal_spec, fd_audit, fd_jet, lambda_from_w1, membership_audit,
                     moebius_jet, moebius_value, mu_from_w2, regime2_search, sample_self_map)
from diskjet.verify import MEMBERSHIP_SLACK, extremal_attainment_audit, sample_base_point

from harness import Window

MEMBERSHIP_N = 2000
FD_N = 2000
REGIME2_DENSITY = 40
EXTREMAL_GRID = 540

#: sample counts each report must carry
EXPECTED_SAMPLES = {"membership": MEMBERSHIP_N, "fd": FD_N,
                    "regime2": REGIME2_DENSITY ** 3, "extremal": EXTREMAL_GRID}

# sampling parameters of membership_audit and fd_audit at their defaults
MEMBERSHIP_MAX_DEGREE = 6
FD_MAX_DEGREE = 4
FD_Z0_HI = 0.5

# the depth-3 grid of extremal_attainment_audit
EXTREMAL_RS = (0.3, 0.5, 0.7)
EXTREMAL_S_FRACTIONS = (0.0, 0.4)
EXTREMAL_LAMS = (0j, 0.3 + 0.2j, -0.5 + 0j)
EXTREMAL_MUS = (0j, 0.4 - 0.3j, 0.6 + 0j)

SETUP_WARMUP = """
import diskjet
diskjet.membership_audit(50, seed=1)
"""


def pass_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


def run_pass(s: int) -> tuple[float, dict]:
    """Seconds taken and the four reports of one untraced pass."""
    t0 = perf_counter()
    reports = {
        "membership": membership_audit(MEMBERSHIP_N, seed=s),
        "fd": fd_audit(FD_N, seed=s),
        "regime2": regime2_search(REGIME2_DENSITY, seed=s),
        "extremal": extremal_attainment_audit(EXTREMAL_GRID, seed=s),
    }
    return perf_counter() - t0, reports


def check_reports(tally, s: int, reports: dict) -> None:
    for name, rep in reports.items():
        tally.op(rep.violations == 0 and rep.samples == EXPECTED_SAMPLES[name],
                 f"{name} audit seed {s}: {rep.samples} samples, {rep.violations} violations")


def measure(checkout, seed: int, win, tally) -> dict:
    """Untraced run: whole passes; per pass (index, seconds, samples, seconds)."""
    ops, samples, anomalies = [], 0, 0
    seeds = pass_seeds(seed)
    for k in win:
        s = next(seeds)
        try:
            dt, reports = run_pass(s)
        except Exception as exc:  # one broken pass must not end the run
            tally.crash(f"pass seed {s}", exc)
            continue
        ops.append((k, dt, reports["membership"].samples + reports["fd"].samples, dt))
        samples += reports["membership"].samples
        anomalies += reports["membership"].anomalies
        check_reports(tally, s, reports)
    return {
        "ops": ops,
        "names": ("audit_pass", "audit_samples_per_s", "samples/s"),
        "properties": {"passes": len(ops),
                       "membership_anomaly_share": anomalies / max(samples, 1)},
    }


def _replay_membership(tr, s: int, props: Counter) -> tuple[int, float]:
    """membership_audit(MEMBERSHIP_N, seed=s) as public calls; (violations, max_violation)."""
    violations, worst = 0, 0.0
    for i in range(MEMBERSHIP_N):
        rng = tr.call("verify.rng_init", np.random.default_rng, (s, i))
        spec = tr.call("verify.sample_self_map", sample_self_map, rng,
                       MEMBERSHIP_MAX_DEGREE, min_degree=1)
        z0 = tr.call("verify.sample_base_point", sample_base_point, rng)
        zj = tr.call("jets.identity", Jet3.identity, z0)
        fj = tr.call("jets.jet_mul", operator.mul, zj,
                     tr.call("jets.blaschke_jet", blaschke_jet, spec, z0))
        w0, w1 = fj.a0, fj.a1
        w2, w3 = 2.0 * fj.a2, 6.0 * fj.a3
        props[f"degree_{spec.degree}"] += 1
        try:
            lam = tr.call("dieudonne.lambda_from_w1", lambda_from_w1, z0, w0, w1)
            try:
                mu = tr.call("dieudonne.mu_from_w2", mu_from_w2, z0, w0, w2, lam)
            except DegenerateCaseError:  # |lambda| = 1: w2 and w3 are forced
                mu = None
            disk = tr.call("dieudonne.disk_order3_params", disk_order3_params, z0, w0, lam, mu)
        except InfeasibleConstraintError:
            props["anomaly"] += 1
            continue
        props["case1" if mu is None else "case2" if disk.radius == 0.0 else "case3"] += 1
        excess = max(disk.excess(w3), 0.0)
        if excess > MEMBERSHIP_SLACK * (1.0 + disk.radius):
            violations += 1
        worst = max(worst, excess)
    return violations, worst


def _replay_fd(tr, s: int) -> float:
    """fd_audit(FD_N, seed=s) as public calls; its max_violation."""
    worst = 0.0
    for i in range(FD_N):
        rng = tr.call("verify.rng_init", np.random.default_rng, (s, i))
        spec = tr.call("verify.sample_self_map", sample_self_map, rng, FD_MAX_DEGREE, min_degree=1)
        a = 0.5 * (rng.uniform() * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        z0 = tr.call("verify.sample_base_point", sample_base_point, rng, 0.1, FD_Z0_HI)
        jet = tr.call("jets.moebius_jet", moebius_jet, a,
                      tr.call("jets.blaschke_jet", blaschke_jet, spec, z0))

        def f(z, a=a, spec=spec):
            return tr.call("jets.moebius_value", moebius_value, a,
                           tr.call("jets.blaschke_value", blaschke_value, spec, z))

        num = tr.call("verify.fd_jet", fd_jet, f, z0)
        worst = max(worst, *(abs(jet[k] - num[k]) / max(abs(jet[k]), 1e-300) for k in (1, 2, 3)))
    return worst


def _replay_extremal(tr) -> float:
    """extremal_attainment_audit(EXTREMAL_GRID) as public calls; its max_violation."""
    worst = 0.0
    cells = (len(EXTREMAL_RS) * len(EXTREMAL_S_FRACTIONS) * len(EXTREMAL_LAMS)
             * len(EXTREMAL_MUS))
    n_theta = max(1, EXTREMAL_GRID // cells)
    for r in EXTREMAL_RS:
        for sf in EXTREMAL_S_FRACTIONS:
            s = sf * r
            for lam in EXTREMAL_LAMS:
                for mu in EXTREMAL_MUS:
                    cfg = NormalizedConfig(r=r, s=s, lam=lam, mu=mu)
                    disk = tr.call("dieudonne.disk_order3_params", disk_order3_params,
                                   complex(r), complex(s), lam, mu)
                    for k in range(n_theta):
                        spec = tr.call("dieudonne.extremal_spec", extremal_spec, cfg, 3,
                                       2.0 * math.pi * k / n_theta)
                        w3 = 6.0 * tr.call("dieudonne.eval_extremal", eval_extremal, spec).a3
                        worst = max(worst, abs(abs(w3 - disk.center) - disk.radius))
    return worst


def replay(checkout, seed: int, tracer, tally, seconds: float | None = None,
           max_ops: int | None = None) -> dict:
    """Traced run: each pass once untraced, then replayed as traced public calls."""
    ops, props = [], Counter()
    fd_worst = extremal_worst = 0.0
    seeds = pass_seeds(seed)
    for _ in Window(seconds, max_ops):
        s = next(seeds)
        try:
            untraced, reports = run_pass(s)
            with tracer.span("bench.audit_pass") as root:
                with tracer.span("verify.membership"):
                    violations, worst = _replay_membership(tracer, s, props)
                with tracer.span("verify.fd"):
                    fd_worst = max(fd_worst, _replay_fd(tracer, s))
                tracer.call("verify.regime2_search", regime2_search, REGIME2_DENSITY, seed=s)
                with tracer.span("verify.extremal"):
                    extremal_worst = max(extremal_worst, _replay_extremal(tracer))
        except Exception as exc:  # one broken pass must not end the run
            tally.crash(f"pass seed {s}", exc)
            continue
        ops.append((root, untraced))
        check_reports(tally, s, reports)
        m = reports["membership"]
        tally.op(violations == m.violations and worst == m.max_violation,
                 f"membership replay seed {s}: {violations} violations, max {worst!r}; "
                 f"audit: {m.violations}, max {m.max_violation!r}")
    n = sum(v for k, v in props.items() if k.startswith("degree_"))
    return {"ops": ops,
            "properties": {"membership_samples": n,
                           "degree_histogram": {k: props[k] / n for k in sorted(props)
                                                if k.startswith("degree_")},
                           "case1_share": props["case1"] / n,
                           "case2_share": props["case2"] / n,
                           "anomaly_share": props["anomaly"] / n,
                           "fd_max_rel_error": fd_worst,
                           "extremal_max_error": extremal_worst}}
