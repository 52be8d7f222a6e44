"""Independent Monte-Carlo and grid oracles.

These audits never trust the disk formulas they check: membership runs
random Blaschke self-maps through the jet engine and compares the actual
third derivative against the predicted disk; the derivative audit
compares jets against a pointwise-evaluation circle stencil; the regime
search scans the admissible parameter box for the (analytically
impossible) full-circle regime.

Determinism: every sample draws from a generator seeded by (seed, index),
so reports are reproducible regardless of evaluation order.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dieudonne
from .common import InfeasibleConstraintError
from .dieudonne import InterpolationData, disk_order3, disk_order3_params
from .jets import BlaschkeSpec, Jet3, blaschke_jet, blaschke_value


@dataclass
class VerificationReport:
    suite: str
    samples: int = 0
    violations: int = 0
    anomalies: int = 0
    max_violation: float = 0.0
    seed: int = 0
    elapsed_ms: float = 0.0
    worst_case: Optional[dict] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        # flat serialization contract: exactly these six keys
        return {
            "samples": self.samples,
            "violations": self.violations,
            "anomalies": self.anomalies,
            "max_violation": float(self.max_violation),
            "seed": self.seed,
            "elapsed_ms": float(self.elapsed_ms),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def merge_reports(reports, suite: str = "all") -> VerificationReport:
    out = VerificationReport(suite=suite)
    for r in reports:
        out.samples += r.samples
        out.violations += r.violations
        out.anomalies += r.anomalies
        if r.max_violation > out.max_violation:
            out.max_violation = r.max_violation
            out.worst_case = r.worst_case
        out.seed = r.seed
        out.elapsed_ms += r.elapsed_ms
    return out


# --------------------------------------------------------------------------
# sampling

#: zeros kept off the unit circle to avoid conditioning cliffs
ZERO_RADIUS_CAP = 0.95


def sample_self_map(rng: np.random.Generator, max_degree: int,
                    min_degree: int = 0) -> BlaschkeSpec:
    """Random Blaschke product: uniform phase, zeros with radius^2 uniform
    in (0, ZERO_RADIUS_CAP^2) and uniform angle."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    degree = int(rng.integers(min_degree, max_degree + 1))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    radii = ZERO_RADIUS_CAP * np.sqrt(rng.uniform(0.0, 1.0, degree))
    angles = rng.uniform(0.0, 2.0 * math.pi, degree)
    zeros = tuple(radii * np.exp(1j * angles))
    return BlaschkeSpec(phase=phase, zeros=zeros)


def sample_base_point(rng: np.random.Generator, lo: float = 0.1, hi: float = 0.9) -> complex:
    """|z0| uniform in [lo, hi]; extremes excluded to separate algorithmic
    failures from floating-point conditioning."""
    return complex(float(rng.uniform(lo, hi)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _sub_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


# --------------------------------------------------------------------------
# pointwise derivative oracle

def fd_jet(fn: Callable[[complex], complex], z0: complex,
           radius: Optional[float] = None, npoints: int = 16) -> Jet3:
    """Numeric jet from pointwise evaluations on a circle around z0.

    Trigonometric differencing: a_k = (1 / (m h^k)) sum_j f(z0 + h w^j) w^{-jk}.
    The radius scales with the distance to the unit circle to respect
    boundary conditioning.  A radius of 0.05 (1 - |z0|) keeps the rounding
    amplification eps/h^3 of the third coefficient near 1e-11 while the
    truncation term (h / dist-to-pole)^{m-3} stays far below it; steps of
    order 1e-4 (1 - |z0|) amplify rounding noise past 1e-5 relative and
    are useless for third derivatives in double precision.
    """
    if radius is None:
        radius = 0.05 * (1.0 - abs(z0))
    w = z0 + radius * np.exp(2j * np.pi * np.arange(npoints) / npoints)
    vals = np.array([fn(z) for z in w])
    coef = np.fft.fft(vals) / npoints
    return Jet3(*(complex(coef[k]) / radius ** k for k in range(4)))


# --------------------------------------------------------------------------
# audits

#: relative slack for disk membership
MEMBERSHIP_SLACK = 1e-9


def membership_audit(n_samples: int, max_degree: int = 6, seed: int = 1) -> VerificationReport:
    """Check f'''(z0) of random f = z * B against the predicted disk.

    Per sample: draw B and z0, read (w0..w3) off the jet of z*B, extract
    (lambda, mu), build the disk, and record any excess past the rim
    beyond MEMBERSHIP_SLACK * (1 + radius).  Extractions landing outside
    the closed parameter disk beyond the clamp tolerance are counted as
    anomalies, not violations.
    """
    t0 = time.perf_counter()
    report = VerificationReport(suite="membership", samples=n_samples, seed=seed)
    for i in range(n_samples):
        rng = _sub_rng(seed, i)
        spec = sample_self_map(rng, max_degree, min_degree=1)
        z0 = sample_base_point(rng)
        zj = Jet3.identity(z0)
        fj = zj * blaschke_jet(spec, z0)
        w0, w1 = fj.a0, fj.a1
        w2, w3 = 2.0 * fj.a2, 6.0 * fj.a3
        try:
            disk = disk_order3(InterpolationData(z0, w0, w1, w2))
        except InfeasibleConstraintError:
            report.anomalies += 1
            continue
        excess = max(disk.excess(w3), 0.0)
        if excess > MEMBERSHIP_SLACK * (1.0 + disk.radius):
            report.violations += 1
        if excess > report.max_violation:
            report.max_violation = excess
            report.worst_case = {"index": i, "z0": str(z0), "degree": spec.degree}
    report.elapsed_ms = 1e3 * (time.perf_counter() - t0)
    return report


def fd_audit(n_samples: int, seed: int = 1, max_degree: int = 4,
             z0_hi: float = 0.5) -> VerificationReport:
    """Jet derivatives vs pointwise circle-stencil derivatives.

    max_violation is the largest relative error over a1, a2, a3 on random
    Moebius-of-Blaschke compositions.
    """
    from .jets import moebius_jet, moebius_value

    t0 = time.perf_counter()
    report = VerificationReport(suite="fd", samples=n_samples, seed=seed)
    for i in range(n_samples):
        rng = _sub_rng(seed, i)
        spec = sample_self_map(rng, max_degree, min_degree=1)
        a = 0.5 * (rng.uniform() * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        z0 = sample_base_point(rng, 0.1, z0_hi)
        jet = moebius_jet(a, blaschke_jet(spec, z0))
        num = fd_jet(lambda z: moebius_value(a, blaschke_value(spec, z)), z0)
        rel = max(abs(jet[k] - num[k]) / max(abs(jet[k]), 1e-300) for k in (1, 2, 3))
        if rel > report.max_violation:
            report.max_violation = rel
            report.worst_case = {"index": i, "z0": str(z0), "degree": spec.degree}
    report.elapsed_ms = 1e3 * (time.perf_counter() - t0)
    return report


def regime2_search(grid_density: int = 40, seed: int = 0) -> VerificationReport:
    """Scan admissible (r, s, |lambda|) for the full-circle regime.

    t - |eta| = r (1 - |lambda|) / |1 + r^2 - 2 s lambda| is maximized in
    phase at lambda real positive; a hit would need
    2 |lambda| (s - r) >= (1 - r)^2, impossible for s < r, so the expected
    hit count is zero.  Each hit is counted as a violation.  The phase is
    nevertheless swept coarsely so the claim is not tested only at its
    analytic argmax.
    """
    t0 = time.perf_counter()
    n = grid_density
    report = VerificationReport(suite="regime2", samples=0, seed=seed)
    rs = np.linspace(0.02, 0.98, n)
    fracs = np.linspace(0.0, 0.999, n)   # s = frac * r, includes s = 0
    mods = np.linspace(0.0, 0.999, n)
    phases = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))
    for r in rs:
        for f in fracs:
            s = f * r
            gap = np.abs(1.0 + r * r - 2.0 * s * np.outer(mods, phases)).min(axis=1)
            tm = r * (1.0 - mods) / gap
            report.samples += len(mods)
            hits = tm >= 0.5
            report.violations += int(hits.sum())
            worst = float(tm.max())
            if worst - 0.5 > report.max_violation:
                report.max_violation = worst - 0.5
                report.worst_case = {"r": float(r), "s": float(s),
                                     "mod": float(mods[int(tm.argmax())])}
    report.elapsed_ms = 1e3 * (time.perf_counter() - t0)
    return report


def extremal_attainment_audit(n_grid: int = 540, seed: int = 1) -> VerificationReport:
    """Depth-3 extremal jets must land on the predicted circle."""
    t0 = time.perf_counter()
    report = VerificationReport(suite="extremal", seed=seed)
    rs = (0.3, 0.5, 0.7)
    ss = (0.0, 0.4)
    lams = (0j, 0.3 + 0.2j, -0.5 + 0j)
    mus = (0j, 0.4 - 0.3j, 0.6 + 0j)
    n_theta = max(1, n_grid // (len(rs) * len(ss) * len(lams) * len(mus)))
    for r in rs:
        for sf in ss:
            s = sf * r
            for lam in lams:
                for mu in mus:
                    cfg = dieudonne.NormalizedConfig(r=r, s=s, lam=lam, mu=mu)
                    disk = disk_order3_params(complex(r), complex(s), lam, mu)
                    for k in range(n_theta):
                        theta = 2.0 * math.pi * k / n_theta
                        spec = dieudonne.extremal_spec(cfg, 3, theta)
                        w3 = 6.0 * dieudonne.eval_extremal(spec).a3
                        err = abs(abs(w3 - disk.center) - disk.radius)
                        report.samples += 1
                        if err > 1e-8 * (1.0 + disk.radius):
                            report.violations += 1
                        if err > report.max_violation:
                            report.max_violation = err
                            report.worst_case = {"r": r, "s": s, "theta": theta}
    report.elapsed_ms = 1e3 * (time.perf_counter() - t0)
    return report


SUITES = {
    "membership": lambda n, seed: membership_audit(n, seed=seed),
    "fd": lambda n, seed: fd_audit(n, seed=seed),
    "regime2": lambda n, seed: regime2_search(grid_density=n, seed=seed),
}


def run_suite(name: str, n: int, seed: int) -> VerificationReport:
    """n means samples for membership/fd and per-axis grid density for
    regime2; "all" runs the three with a fixed regime2 density of 40."""
    if name == "all":
        return merge_reports([
            membership_audit(n, seed=seed),
            fd_audit(min(n, 2000), seed=seed),
            regime2_search(40, seed=seed),
        ])
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](n, seed)
