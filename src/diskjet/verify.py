"""Independent Monte-Carlo and grid oracles.

These audits never trust the disk formulas they check: membership runs
random Blaschke self-maps through the jet engine and compares the actual
third derivative against the predicted disk; the derivative audit
compares jets against a pointwise-evaluation circle stencil; the regime
search scans the admissible parameter box for the (analytically
impossible) full-circle regime; the extremal audit checks that the
depth-3 extremal maps land on the predicted circle.

Determinism: every sample draws from a generator seeded by (seed, index),
so reports are reproducible regardless of evaluation order.  The samplers
take one ``integers`` draw for the degree and then all their doubles from
one ``random`` block, which yields exactly the doubles, in the same order,
that per-quantity ``uniform`` calls would.

Batching: the derivative audit draws and expands each sample on its own,
then evaluates the circle stencil for FD_BLOCK samples at once with numpy
(one ``(block, points)`` array, one FFT); the regime search evaluates
``(s, |lambda|, phase)`` arrays of one r and REGIME2_ROWS values of s.
Both give the bits of their per-sample loops.  The membership audit
stays a loop of scalar public calls, because a call-by-call replay of it
must reproduce its ``max_violation`` bit for bit.
"""

from __future__ import annotations

import cmath
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
#: scale of a uniform angle draw: numpy's uniform(0, 2 pi) is 2 pi * u
TWO_PI = 2.0 * math.pi


def sample_self_map(rng: np.random.Generator, max_degree: int,
                    min_degree: int = 0) -> BlaschkeSpec:
    """Random Blaschke product: uniform phase, zeros with radius^2 uniform
    in (0, ZERO_RADIUS_CAP^2) and uniform angle."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    degree = int(rng.integers(min_degree, max_degree + 1))
    # phase, then the radius draws, then the angle draws
    u = rng.random(1 + 2 * degree).tolist()
    zeros = tuple(cmath.rect(ZERO_RADIUS_CAP * math.sqrt(u[1 + j]), TWO_PI * u[1 + degree + j])
                  for j in range(degree))
    return BlaschkeSpec(phase=TWO_PI * u[0], zeros=zeros)


def sample_base_point(rng: np.random.Generator, lo: float = 0.1, hi: float = 0.9) -> complex:
    """|z0| uniform in [lo, hi]; extremes excluded to separate algorithmic
    failures from floating-point conditioning."""
    u_mod, u_arg = rng.random(2).tolist()
    return cmath.rect(lo + (hi - lo) * u_mod, TWO_PI * u_arg)


def _sub_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


# --------------------------------------------------------------------------
# pointwise derivative oracle

#: points of the circle stencil, in fd_jet and in fd_audit's blocks alike
FD_POINTS = 16


def fd_jet(fn: Callable[[complex], complex], z0: complex,
           radius: Optional[float] = None) -> Jet3:
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
    w = z0 + radius * np.exp(2j * np.pi * np.arange(FD_POINTS) / FD_POINTS)
    vals = np.array([fn(z) for z in w])
    coef = np.fft.fft(vals) / FD_POINTS
    return Jet3(*(complex(coef[k]) / radius ** k for k in range(4)))


# --------------------------------------------------------------------------
# audits

#: relative slack for disk membership
MEMBERSHIP_SLACK = 1e-9
#: largest Blaschke degree of a membership sample
MEMBERSHIP_MAX_DEGREE = 6


def membership_audit(n_samples: int, seed: int = 1) -> VerificationReport:
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
        spec = sample_self_map(rng, MEMBERSHIP_MAX_DEGREE, min_degree=1)
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


#: largest Blaschke degree of an fd sample
FD_MAX_DEGREE = 4
#: largest |z0| of an fd sample: it keeps every stencil point within 0.525
#: of 0, which the bit-for-bit rounding of _quot relies on
FD_Z0_HI = 0.5


def _fd_draw(seed: int, index: int):
    """Sample (B, a, z0) of fd_audit: a Blaschke product, a Moebius
    parameter with |a| uniform in [0, 0.5), and a base point."""
    rng = _sub_rng(seed, index)
    spec = sample_self_map(rng, FD_MAX_DEGREE, min_degree=1)
    u_mod, u_arg = rng.random(2).tolist()
    a = 0.5 * cmath.rect(u_mod, TWO_PI * u_arg)
    return spec, a, sample_base_point(rng, 0.1, FD_Z0_HI)


def _quot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) on float arrays for br != 0, rounded as
    Python's complex division rounds when |br| >= |bi|.  That holds for a
    denominator 1 + c w with |c w| <= 1/2, as in fd_audit's range:
    zeros below 0.95 and stencil points within 0.525 of 0, or |a| < 1/2
    and |B| <= 1."""
    ratio = bi / br
    denom = br + bi * ratio
    return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom


def _fd_block(draws) -> np.ndarray:
    """fd_jet of z -> T_a(B(z)) at z0 for each (B, a, z0) in draws.

    One ``(len(draws), FD_POINTS)`` array of real and one of imaginary parts
    hold every stencil value; each Blaschke factor is applied to the rows
    whose degree exceeds its slot.  The products and quotients spell out
    the operations of Python's complex arithmetic in blaschke_value and
    moebius_value, so in fd_audit's range each row has the bits of
    the scalar ``fd_jet`` of the same draw, whatever block it sits in.
    Row i of the result is (a0, a1, a2, a3) of draw i.
    """
    specs, a, z0 = zip(*draws)
    # Python's abs, as in fd_jet: numpy's complex abs can round differently
    radius = np.array([0.05 * (1.0 - abs(z)) for z in z0])
    z0 = np.array(z0)
    z = z0[:, None] + radius[:, None] * np.exp(2j * np.pi * np.arange(FD_POINTS) / FD_POINTS)
    zr, zi = z.real, z.imag
    degree = np.array([b.degree for b in specs])
    zeros = np.zeros((len(specs), int(degree.max())), dtype=complex)
    for i, b in enumerate(specs):
        zeros[i, :b.degree] = b.zeros
    unit = np.array([cmath.exp(1j * b.phase) for b in specs])[:, None]
    vr = np.broadcast_to(unit.real, z.shape)
    vi = np.broadcast_to(unit.imag, z.shape)
    for j in range(zeros.shape[1]):
        cr, ci = zeros[:, j, None].real, zeros[:, j, None].imag
        # (z - c) / (1 - conj(c) z), then acc *= that
        qr, qi = _quot(zr - cr, zi - ci, 1.0 - (cr * zr + ci * zi), ci * zr - cr * zi)
        live = (degree > j)[:, None]
        vr, vi = np.where(live, vr * qr - vi * qi, vr), np.where(live, vr * qi + vi * qr, vi)
    a = np.array(a)[:, None]
    ar, ai = a.real, a.imag
    # (v + a) / (1 + conj(a) v)
    vr, vi = _quot(vr + ar, vi + ai, 1.0 + (ar * vr + ai * vi), ar * vi - ai * vr)
    coef = np.fft.fft(vr + 1j * vi, axis=1)[:, :4] / FD_POINTS
    # fd_jet's radius ** k is C pow; numpy's power can round differently
    rk = np.array([[h ** k for k in range(4)] for h in radius.tolist()])
    return coef.real / rk + 1j * (coef.imag / rk)


#: samples per stencil block in fd_audit: bounds the temporaries to about
#: 300 kB whatever the sample count
FD_BLOCK = 128


def fd_audit(n_samples: int, seed: int = 1) -> VerificationReport:
    """Jet derivatives vs pointwise circle-stencil derivatives.

    max_violation is the largest relative error over a1, a2, a3 on random
    Moebius-of-Blaschke compositions.  The jets come from the scalar jet
    engine, sample by sample; the stencils are evaluated FD_BLOCK samples
    at a time.
    """
    from .jets import moebius_jet

    t0 = time.perf_counter()
    report = VerificationReport(suite="fd", samples=n_samples, seed=seed)
    for start in range(0, n_samples, FD_BLOCK):
        draws = [_fd_draw(seed, i) for i in range(start, min(start + FD_BLOCK, n_samples))]
        for i, ((spec, a, z0), num) in enumerate(zip(draws, _fd_block(draws).tolist()), start):
            jet = moebius_jet(a, blaschke_jet(spec, z0))
            rel = max(abs(jet[k] - num[k]) / max(abs(jet[k]), 1e-300) for k in (1, 2, 3))
            if rel > report.max_violation:
                report.max_violation = rel
                report.worst_case = {"index": i, "z0": str(z0), "degree": spec.degree}
    report.elapsed_ms = 1e3 * (time.perf_counter() - t0)
    return report


#: t - |eta| at which the full-circle regime (ii) begins; regime2_search
#: counts grid points at or past it
REGIME2_HIT = 0.5
#: values of s per array in regime2_search: at density 40 an array is
#: 8 x 40 x 16 complex (80 kB); a whole r at once (400 kB) raised the
#: peak RSS of an audit pass by about 0.7 MB
REGIME2_ROWS = 8


def regime2_search(grid_density: int = 40, seed: int = 0) -> VerificationReport:
    """Scan admissible (r, s, |lambda|) for the full-circle regime.

    t - |eta| = r (1 - |lambda|) / |1 + r^2 - 2 s lambda| is maximized in
    phase at lambda real positive; a hit would need
    2 |lambda| (s - r) >= (1 - r)^2, impossible for s < r, so the expected
    hit count is zero.  Each hit is counted as a violation.  The phase is
    nevertheless swept coarsely so the claim is not tested only at its
    analytic argmax.  The grid is evaluated as ``(s, |lambda|, phase)``
    arrays, one r and REGIME2_ROWS values of s each.
    """
    t0 = time.perf_counter()
    n = grid_density
    report = VerificationReport(suite="regime2", samples=0, seed=seed)
    rs = np.linspace(0.02, 0.98, n)
    fracs = np.linspace(0.0, 0.999, n)   # s = frac * r, includes s = 0
    mods = np.linspace(0.0, 0.999, n)
    phases = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))
    lams = np.outer(mods, phases)
    for r in rs:
        s = fracs * r
        gap = np.concatenate([  # min over the phases, REGIME2_ROWS values of s at a time
            np.abs(1.0 + r * r - (2.0 * s[k:k + REGIME2_ROWS])[:, None, None] * lams).min(axis=2)
            for k in range(0, n, REGIME2_ROWS)])
        tm = r * (1.0 - mods) / gap      # rows: s, columns: |lambda|
        report.samples += tm.size
        report.violations += int((tm >= REGIME2_HIT).sum())
        i, j = divmod(int(tm.argmax()), n)
        if tm[i, j] - REGIME2_HIT > report.max_violation:
            report.max_violation = float(tm[i, j] - REGIME2_HIT)
            report.worst_case = {"r": float(r), "s": float(s[i]), "mod": float(mods[j])}
    report.elapsed_ms = 1e3 * (time.perf_counter() - t0)
    return report


def extremal_attainment_audit(n_grid: int = 540, seed: int = 1) -> VerificationReport:
    """Depth-3 extremal jets must land on the predicted circle.

    The grid has 54 (r, s, lambda, mu) cells and max(1, n_grid // 54)
    angles theta in each, so n_grid is rounded down to a multiple of 54,
    and to 54 when smaller.
    """
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
    "extremal": lambda n, seed: extremal_attainment_audit(n, seed=seed),
}


def run_suite(name: str, n: int, seed: int) -> VerificationReport:
    """n means samples for membership/fd, per-axis grid density for
    regime2 and grid size for extremal; "all" runs membership, fd and
    regime2, the last with a fixed density of 40."""
    if name == "all":
        return merge_reports([
            membership_audit(n, seed=seed),
            fd_audit(min(n, 2000), seed=seed),
            regime2_search(40, seed=seed),
        ])
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](n, seed)
