"""Independent Monte-Carlo and grid oracles.

These audits never trust the disk formulas they check: membership runs
random Blaschke self-maps through the jet engine and compares the actual
third derivative against the predicted disk; the derivative audit
compares jets against a pointwise-evaluation circle stencil; the regime
search scans the admissible parameter box for the (analytically
impossible) full-circle regime; the extremal audit checks that the
depth-3 extremal maps land on the predicted circle.

Determinism: sample i of a seed draws from ``default_rng((seed, i))``,
so reports are reproducible regardless of evaluation order.  The samplers
take one ``integers`` draw for the degree and then all their doubles from
one ``random`` block, which yields exactly the doubles, in the same order,
that per-quantity ``uniform`` calls would.  The audits read that same
stream without building a Generator per sample: ``_pcg64_block`` computes
the raw PCG64 outputs of a block of indices at once, and the degree and
doubles are read off them as ``integers`` and ``random`` would.

Batching: the membership and derivative audits draw FD_BLOCK samples per
block.  The derivative audit expands each sample's jet on its own, then
evaluates the circle stencil for the block at once with numpy (one
``(block, points)`` array, one FFT); the regime search evaluates
``(s, |lambda|, phase)`` arrays of one r and REGIME2_ROWS values of s.
Both give the bits of their per-sample loops.  The membership audit
checks its samples one at a time with scalar public calls, because a
call-by-call replay of it must reproduce its ``max_violation`` bit for
bit.
"""

from __future__ import annotations

import cmath
import itertools
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


def merge_reports(reports) -> VerificationReport:
    out = VerificationReport(suite="all")
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


def _self_map(degree: int, u) -> BlaschkeSpec:
    """The Blaschke product of sample_self_map from its doubles u: the
    phase, then the radius draws, then the angle draws."""
    zeros = tuple(cmath.rect(ZERO_RADIUS_CAP * math.sqrt(u[1 + j]), TWO_PI * u[1 + degree + j])
                  for j in range(degree))
    return BlaschkeSpec(phase=TWO_PI * u[0], zeros=zeros)


def _base_point(u_mod: float, u_arg: float, lo: float = 0.1, hi: float = 0.9) -> complex:
    return cmath.rect(lo + (hi - lo) * u_mod, TWO_PI * u_arg)


def sample_self_map(rng: np.random.Generator, max_degree: int,
                    min_degree: int = 0) -> BlaschkeSpec:
    """Random Blaschke product: uniform phase, zeros with radius^2 uniform
    in (0, ZERO_RADIUS_CAP^2) and uniform angle."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    degree = int(rng.integers(min_degree, max_degree + 1))
    return _self_map(degree, rng.random(1 + 2 * degree).tolist())


def sample_base_point(rng: np.random.Generator, lo: float = 0.1, hi: float = 0.9) -> complex:
    """|z0| uniform in [lo, hi]; extremes excluded to separate algorithmic
    failures from floating-point conditioning."""
    return _base_point(*rng.random(2).tolist(), lo, hi)


def _sub_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def _draw(seed: int, index: int, max_degree: int, n_tail: int):
    """Sample ``index``'s Blaschke product of degree 1 to max_degree and the
    n_tail doubles drawn after it, from _sub_rng(seed, index)."""
    rng = _sub_rng(seed, index)
    return sample_self_map(rng, max_degree, min_degree=1), rng.random(n_tail).tolist()


# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK64 = 2 ** 32 - 1, 2 ** 64 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(n: int) -> list:
    """The 32-bit words of a non-negative int, low first, as SeedSequence
    splits its entropy."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_state(seed: int, index: np.ndarray) -> list:
    """SeedSequence((seed, i)).generate_state(4, uint64) for each uint32 i
    in index, as four uint64 arrays; all wraparound is on arrays."""
    entropy = [np.full_like(index, w) for w in _seed_words(seed)] + [index]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ out >> 16

    pool = [hashmix(entropy[j] if j < len(entropy) else np.zeros_like(index)) for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = _INIT_B, []
    for j in range(8):
        value = pool[j % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        words.append((value ^ value >> 16).astype(np.uint64))
    return [words[j] | words[j + 1] << 32 for j in range(0, 8, 2)]


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of uint64 arrays, in 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    u = a0 * b1 + (t & _MASK32)
    return a1 * b1 + (t >> 32) + (u >> 32)


def _mul128(ah, al, bh, bl):
    """(hi, lo) of the products mod 2^128 of (ah, al) and (bh, bl)."""
    return _mulhi(al, bl) + al * bh + ah * bl, al * bl


def _split(values) -> tuple:
    """(hi, lo) uint64 arrays of Python ints below 2^128."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _pcg64_block(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """The ``(stop - start, k)`` uint64 array whose row i - start is
    ``np.random.PCG64(np.random.SeedSequence((seed, i))).random_raw(k)``.

    PCG64 seeds with state 0, inc = 2 initseq + 1, a step, state +=
    initstate and a step; output j steps once more and returns the XSL-RR
    of the state.  Unrolled, with M = _PCG_MULT, output j reads the state
    M^(j+2) initstate + (1 + M + ... + M^(j+2)) inc, so every output of
    the block comes from two 128-bit products with per-column constants.
    """
    if not 0 <= start <= stop <= 2 ** 32:
        raise ValueError("need 0 <= start <= stop <= 2**32")
    init_hi, init_lo, seq_hi, seq_lo = _seed_state(
        seed, np.arange(start, stop).astype(np.uint32))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    powers = [pow(_PCG_MULT, t, 2 ** 128) for t in range(k + 2)]
    sums = [total % 2 ** 128 for total in itertools.accumulate(powers)]
    xh, xl = _mul128(*_split(powers[2:]), init_hi[:, None], init_lo[:, None])
    yh, yl = _mul128(*_split(sums[2:]), inc_hi[:, None], inc_lo[:, None])
    lo = xl + yl
    hi = xh + yh + (lo < xl)
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << ((64 - rot) & 63)


def _draw_block(seed: int, start: int, stop: int, max_degree: int, n_tail: int) -> list:
    """``[_draw(seed, i, max_degree, n_tail) for i in range(start, stop)]``
    from one _pcg64_block.

    The degree is Lemire's bounded integer of output 0's low 32 bits, as in
    ``Generator.integers``; a row that rule rejects (fewer than max_degree
    in 2^32) draws again from the buffered high half, so it takes the
    scalar path.  The doubles are ``(out >> 11) 2^-53`` of outputs 1, 2,
    ..., as in ``Generator.random``.
    """
    raw = _pcg64_block(seed, start, stop, 2 + 2 * max_degree + n_tail)
    scaled = (raw[:, 0] & _MASK32) * max_degree
    degree = (1 + (scaled >> 32)).tolist()
    rejected = ((scaled & _MASK32) < (2 ** 32 - max_degree) % max_degree).tolist()
    doubles = ((raw[:, 1:] >> 11) * 2.0 ** -53).tolist()
    return [_draw(seed, i, max_degree, n_tail) if bad
            else (_self_map(d, u), u[1 + 2 * d:1 + 2 * d + n_tail])
            for i, d, bad, u in zip(range(start, stop), degree, rejected, doubles)]


#: samples per _draw_block in membership_audit and fd_audit, and per
#: stencil array in fd_audit: bounds the temporaries to about 300 kB
#: whatever the sample count
FD_BLOCK = 128


def _draws(seed: int, n_samples: int, max_degree: int, n_tail: int):
    """_draw(seed, i, max_degree, n_tail) for i < n_samples, read FD_BLOCK
    samples at a time."""
    for start in range(0, n_samples, FD_BLOCK):
        yield from _draw_block(seed, start, min(start + FD_BLOCK, n_samples), max_degree, n_tail)


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
    for i, (spec, u) in enumerate(_draws(seed, n_samples, MEMBERSHIP_MAX_DEGREE, 2)):
        z0 = _base_point(*u)
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


def _fd_sample(spec: BlaschkeSpec, u) -> tuple:
    """Sample (B, a, z0) of fd_audit from B and the next four doubles: a
    Moebius parameter with |a| uniform in [0, 0.5), and a base point."""
    return spec, 0.5 * cmath.rect(u[0], TWO_PI * u[1]), _base_point(u[2], u[3], 0.1, FD_Z0_HI)


def _fd_draw(seed: int, index: int) -> tuple:
    return _fd_sample(*_draw(seed, index, FD_MAX_DEGREE, 4))


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
        draws = [_fd_sample(*d) for d in
                 _draw_block(seed, start, min(start + FD_BLOCK, n_samples), FD_MAX_DEGREE, 4)]
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
    "membership": membership_audit,
    "fd": fd_audit,
    "regime2": regime2_search,
    "extremal": extremal_attainment_audit,
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
