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
stream without building a Generator per sample:
:func:`diskjet.stream.bounded_draws` reads the degree and the doubles of
a block of indices off their raw PCG64 outputs, as ``integers`` and
``random`` would.  The scalar samplers (``sample_self_map``, ``_draw``)
stay as the reference the blocks are tested against.

Batching: the membership, derivative and extremal audits run on row
arrays, BLOCK rows at a time.  Membership and the derivative audit
compute the Blaschke products, their jets at z0, lambda, mu and the
order-3 disk (membership), the Moebius jets and the circle stencil
(derivative audit) for a block of samples, one zero slot at a time with
masks for the rows whose degree is past it.  The extremal audit runs
eval_extremal's Schur chain on a block of its (cell, theta) rows, so its
memory stays bounded at any grid size.  The largest temporaries of a
block are the stencil, evaluated half a circle at a time, and
pcg64_block's buffers (see BLOCK).  Each row has the bits of the scalar
public calls (``blaschke_jet``, ``InterpolationData``, ``disk_order3``,
``moebius_jet``, ``fd_jet``, ``eval_extremal``), because a call-by-call
replay of the membership audit must reproduce its ``max_violation`` bit
for bit.  So the arrays spell out what CPython does:

* complex arithmetic is :class:`diskjet.carray.CArray`'s, which follows
  CPython's rules for mixed float operands, both branches of division,
  ``abs`` as libm ``hypot`` and ``** n`` as binary powering;
* ``cos``, ``sin`` and float ``**`` run on Python floats through libm
  (``_libm``, ``_pow``): ``np.power(x, 2.0)`` is ``x * x``, which rounds
  differently from ``x ** 2`` on about 1 value in 1,000;
* every ``_clamp_unit`` of the scalar chain is applied, the re-clamps of
  lambda and mu in ``disk_order3_params`` included: a clamped value can
  keep modulus 1 + 2^-52;
* every row computes every case branch, and the rows on which the scalar
  chain raises are masked as anomalies.

The regime search evaluates ``(s, |lambda|, phase)`` arrays of one r and
REGIME2_ROWS values of s, with the bits of its per-point loop.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import dieudonne
from .carray import CArray, where
from .dieudonne import disk_order3_params
from .jets import BlaschkeSpec, Jet3, _jet_div, _jet_mul, moebius_jet
from .stream import bounded_draws


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


#: rows per block of the membership, fd and extremal audits: larger blocks
#: spread numpy's per-call cost over more rows.  The largest temporaries
#: of a 1024-row block are _fd_block's half-circle stencil and pcg64_block
#: with 17 outputs, with tracemalloc peaks of 1.00 and 0.90 MB; 20 audit
#: passes peaked 0.4 MB higher in RSS than with 512-row blocks
BLOCK = 1024


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn of each element of a 1-d array, as libm computes it for Python
    floats; numpy may compute cos, sin and ** its own way."""
    return np.array(list(map(fn, x.tolist())))


def _pow(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k of each element, as a Python float."""
    return np.array([v ** k for v in x.tolist()])


def _rect(rho, phi: np.ndarray) -> CArray:
    """cmath.rect(rho, phi) of each row."""
    return CArray(rho * _libm(math.cos, phi), rho * _libm(math.sin, phi))


class _Block(NamedTuple):
    """Samples start..stop of an audit stream as row arrays: the degree,
    exp(i phase) and zero slots of each Blaschke product (slot j holds a
    zero where degree > j, 0 elsewhere) and the n_tail doubles drawn after
    it."""

    degree: np.ndarray
    unit: CArray
    zeros: list
    tail: np.ndarray


def _draw_block(seed: int, start: int, stop: int, max_degree: int, n_tail: int) -> _Block:
    """``_draw(seed, i, max_degree, n_tail)`` for i in start..stop as a
    _Block, from one bounded_draws; a row Lemire's rule rejects takes
    _draw's Generator.  The doubles become the Blaschke product as in
    _self_map."""
    degree, u, rejected = bounded_draws(seed, start, stop, max_degree, 1 + 2 * max_degree + n_tail)
    for k in np.flatnonzero(rejected).tolist():
        rng = _sub_rng(seed, start + k)
        degree[k] = d = int(rng.integers(1, max_degree + 1))
        u[k, :1 + 2 * d + n_tail] = rng.random(1 + 2 * d + n_tail)
    rows, slots = np.arange(len(u)), np.arange(max_degree)[:, None]
    live = degree > slots  # (slot, row); dead slots hold 0
    zeros = _rect(ZERO_RADIUS_CAP * np.sqrt(u[:, 1:1 + max_degree].T[live]),
                  TWO_PI * u[rows, 1 + degree + slots][live])
    re, im = np.zeros(live.shape), np.zeros(live.shape)
    re[live], im[live] = zeros.re, zeros.im
    return _Block(degree, _rect(1.0, TWO_PI * u[:, 0]), [CArray(*z) for z in zip(re, im)],
                  u[rows[:, None], 1 + 2 * degree[:, None] + np.arange(n_tail)])


def _base_points(u_mod, u_arg, lo: float = 0.1, hi: float = 0.9) -> CArray:
    """_base_point of each row."""
    return _rect(lo + (hi - lo) * u_mod, TWO_PI * u_arg)


def _blaschke_jets(block: _Block, z0: CArray) -> tuple:
    """blaschke_jet of each row at z0, one zero slot at a time."""
    acc = (block.unit, 0j, 0j, 0j)
    for j, zj in enumerate(block.zeros):
        zjc = zj.conjugate()
        factor = _jet_div((z0 - zj, 1.0 + 0j, 0j, 0j), (1.0 - zjc * z0, -zjc, 0j, 0j))
        live = block.degree > j
        acc = tuple(where(live, x, y) for x, y in zip(_jet_mul(acc, factor), acc))
    return acc


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


def _note_worst(report: VerificationReport, values: np.ndarray, worst_case) -> None:
    """Raise report.max_violation to the first largest of values that
    exceeds it, as a per-sample loop with a strict ``>`` would; its
    worst_case becomes worst_case(row)."""
    i = int(np.argmax(np.where(values > report.max_violation, values, -np.inf)))
    if values[i] > report.max_violation:
        report.max_violation = float(values[i])
        report.worst_case = worst_case(i)


def _sample_case(start: int, z0: CArray, degree: np.ndarray):
    """The worst_case of a membership or fd row."""
    return lambda i: {"index": start + i, "z0": str(complex(z0[i])), "degree": int(degree[i])}


#: relative slack for disk membership
MEMBERSHIP_SLACK = 1e-9
#: largest Blaschke degree of a membership sample
MEMBERSHIP_MAX_DEGREE = 6


def _scale(k: int, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """dieudonne._scale of each row."""
    return (math.factorial(k) * ((r - s) / r) * ((r + s) / r)
            / _pow((1.0 - r) * (1.0 + r), k))


def _clamp(v: CArray) -> tuple:
    """dieudonne._clamp_unit of each row, and where it raises."""
    m = abs(v)
    return where(m <= 1.0, v, v / m), ~(m <= 1.0 + dieudonne.FEAS_TOL)


def _read_off(z0: CArray, center, radius: np.ndarray, w: CArray) -> tuple:
    """dieudonne._read_off of each row, and where it raises."""
    return _clamp((w - center) / (radius * (z0.conjugate() / abs(z0))))


def _disk3_rows(z0: CArray, w0: CArray, w1: CArray, w2: CArray) -> tuple:
    """``disk_order3(InterpolationData(z0, w0, w1, w2))`` of each row, with
    the same bits: (lambda, mu, center, radius, anomaly).  lambda and mu are
    the data's; anomaly marks the rows on which it raises
    InfeasibleConstraintError (their other fields are garbage, as is mu in
    case 1).

    The lines follow _radii, lambda_from_w1, disk_order2, mu_from_w2 and
    disk_order3_params operation by operation, every _clamp_unit included,
    and every row takes both case branches.
    """
    rim = 1.0 - dieudonne.CASE1_TOL
    with np.errstate(all="ignore"):  # anomalous rows may overflow or divide by zero
        r, s = abs(z0), abs(w0)
        anomaly = ~(s < r)
        lam, out = _read_off(z0, w0 / z0, _scale(1, r, s) * r, w1)
        anomaly |= out
        beta, _ = _clamp(lam)
        scale = _scale(2, r, s)
        center = scale * (z0.conjugate() / z0) * beta * (1.0 - w0.conjugate() * beta)
        radius = scale * r * np.maximum(1.0 - _pow(abs(beta), 2), 0.0)
        mu, out = _read_off(z0, center, radius, w2)
        anomaly |= out & ~(abs(lam) >= rim)
        # disk_order3_params: it clamps lambda again, finds the case, then clamps mu
        lam3, _ = _clamp(lam)
        case1 = abs(lam3) >= rim
        flat = case1 | (abs(mu) >= rim)
        mu3, _ = _clamp(mu)
        scale = _scale(3, r, s)
        u = z0 / r
        w0b = w0.conjugate()
        base = (w0b / r) * (w0b * lam3 - (1.0 + r * r)) * lam3 ** 2 + r * lam3
        gap_l = 1.0 - _pow(abs(lam3), 2)
        center = scale / u ** 3 * where(case1, base, base + u * mu3 * gap_l * (
            1.0 + r * r - 2.0 * w0b * lam3 - z0 * lam3.conjugate() * mu3))
        radius = np.where(flat, 0.0, scale * r * gap_l * (1.0 - _pow(abs(mu3), 2)))
    return lam, mu, center, radius, anomaly


class _MembershipRows(NamedTuple):
    """Samples start..stop of membership_audit: the degree of B, z0, the
    derivatives w of z B at z0, _disk3_rows of them and the excess of w3
    past the disk."""

    degree: np.ndarray
    z0: CArray
    w: tuple
    lam: CArray
    mu: CArray
    center: CArray
    radius: np.ndarray
    anomaly: np.ndarray
    excess: np.ndarray


def _membership_rows(seed: int, start: int, stop: int) -> _MembershipRows:
    block = _draw_block(seed, start, stop, MEMBERSHIP_MAX_DEGREE, 2)
    z0 = _base_points(block.tail[:, 0], block.tail[:, 1])
    fj = _jet_mul((z0, 1.0 + 0j, 0j, 0j), _blaschke_jets(block, z0))
    w = fj[0], fj[1], 2.0 * fj[2], 6.0 * fj[3]
    disk = _disk3_rows(z0, *w[:3])
    with np.errstate(all="ignore"):  # anomalous rows may hold inf
        excess = abs(w[3] - disk[2]) - disk[3]
    return _MembershipRows(block.degree, z0, w, *disk, excess)


def membership_audit(n_samples: int, seed: int = 1) -> VerificationReport:
    """Check f'''(z0) of random f = z * B against the predicted disk.

    Per sample: draw B and z0, read (w0..w3) off the jet of z*B, extract
    (lambda, mu), build the disk, and record any excess past the rim
    beyond MEMBERSHIP_SLACK * (1 + radius).  Extractions landing outside
    the closed parameter disk beyond the clamp tolerance are counted as
    anomalies, not violations.  The samples are checked BLOCK at a time.
    """
    t0 = time.perf_counter()
    report = VerificationReport(suite="membership", samples=n_samples, seed=seed)
    for start in range(0, n_samples, BLOCK):
        rows = _membership_rows(seed, start, min(start + BLOCK, n_samples))
        excess = np.where(rows.anomaly, 0.0, rows.excess)
        report.anomalies += int(rows.anomaly.sum())
        report.violations += int((excess > MEMBERSHIP_SLACK * (1.0 + rows.radius)).sum())
        _note_worst(report, excess, _sample_case(start, rows.z0, rows.degree))
    report.elapsed_ms = 1e3 * (time.perf_counter() - t0)
    return report


#: largest Blaschke degree of an fd sample
FD_MAX_DEGREE = 4
#: largest |z0| of an fd sample
FD_Z0_HI = 0.5


def _fd_sample(spec: BlaschkeSpec, u) -> tuple:
    """Sample (B, a, z0) of fd_audit from B and the next four doubles: a
    Moebius parameter with |a| uniform in [0, 0.5), and a base point."""
    return spec, 0.5 * cmath.rect(u[0], TWO_PI * u[1]), _base_point(u[2], u[3], 0.1, FD_Z0_HI)


def _fd_draw(seed: int, index: int) -> tuple:
    return _fd_sample(*_draw(seed, index, FD_MAX_DEGREE, 4))


def _fd_draw_block(seed: int, start: int, stop: int) -> tuple:
    """(B, a, z0) of _fd_sample for samples start..stop: a _Block and two CArrays."""
    block = _draw_block(seed, start, stop, FD_MAX_DEGREE, 4)
    u = block.tail
    return (block, 0.5 * _rect(u[:, 0], TWO_PI * u[:, 1]),
            _base_points(u[:, 2], u[:, 3], 0.1, FD_Z0_HI))


def _fd_jets(block: _Block, a: CArray, z0: CArray) -> tuple:
    """moebius_jet(a, blaschke_jet(B, z0)) of each row."""
    return _moebius(a, _blaschke_jets(block, z0))


def _moebius(a, z) -> tuple:
    """moebius_jet(a, z) on jet tuples, without its pole check."""
    ac = a.conjugate()
    return _jet_div((z[0] + a, z[1], z[2], z[3]),
                    (1.0 + ac * z[0], ac * z[1], ac * z[2], ac * z[3]))


def _fd_block(block: _Block, a: CArray, z0: CArray) -> tuple:
    """fd_jet of z -> T_a(B(z)) at z0 of each row, as four CArrays.

    One ``(rows, FD_POINTS)`` array holds the stencil points.  Each half
    of the circle is evaluated in turn, as a CArray, and its values replace
    its points, so the temporaries span half the stencil.  Each Blaschke
    factor is applied to the rows whose degree exceeds its slot.
    The stencil points and the FFT are fd_jet's numpy operations, and the
    values are blaschke_value and moebius_value in CArray arithmetic, so
    each row has the bits of ``fd_jet(lambda z: moebius_value(a,
    blaschke_value(B, z)), z0)``, whatever block it sits in.
    """
    radius = 0.05 * (1.0 - abs(z0))
    z = z0.numpy()[:, None] + radius[:, None] * np.exp(2j * np.pi * np.arange(FD_POINTS) / FD_POINTS)
    a = a[:, None]
    for half in (slice(None, FD_POINTS // 2), slice(FD_POINTS // 2, None)):
        zh = CArray(z.real[:, half], z.imag[:, half])
        v = CArray(*(np.broadcast_to(x[:, None], zh.re.shape) for x in (block.unit.re, block.unit.im)))
        for j, zj in enumerate(block.zeros):
            zj = zj[:, None]
            v = where((block.degree > j)[:, None], v * ((zh - zj) / (1.0 - zj.conjugate() * zh)), v)
        v = (v + a) / (1.0 + a.conjugate() * v)
        z.real[:, half], z.imag[:, half] = v.re, v.im
    coef = np.fft.fft(z, axis=1)[:, :4] / FD_POINTS
    rk = np.stack([_pow(radius, k) for k in range(4)], axis=1)
    return tuple(map(CArray, (coef.real / rk).T, (coef.imag / rk).T))


def fd_audit(n_samples: int, seed: int = 1) -> VerificationReport:
    """Jet derivatives vs pointwise circle-stencil derivatives.

    max_violation is the largest relative error over a1, a2, a3 on random
    Moebius-of-Blaschke compositions.  The jets and the stencils are
    evaluated BLOCK samples at a time.
    """
    t0 = time.perf_counter()
    report = VerificationReport(suite="fd", samples=n_samples, seed=seed)
    for start in range(0, n_samples, BLOCK):
        draws = _fd_draw_block(seed, start, min(start + BLOCK, n_samples))
        jet, num = _fd_jets(*draws), _fd_block(*draws)
        rel = None
        for k in (1, 2, 3):
            size = abs(jet[k])
            err = abs(jet[k] - num[k]) / np.where(1e-300 > size, 1e-300, size)
            rel = err if rel is None else np.where(err > rel, err, rel)
        _note_worst(report, rel, _sample_case(start, draws[2], draws[0].degree))
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


#: the (r, s, lambda, mu) cells of extremal_attainment_audit, in its row order
EXTREMAL_CELLS = tuple((r, sf * r, lam, mu) for r in (0.3, 0.5, 0.7) for sf in (0.0, 0.4)
                       for lam in (0j, 0.3 + 0.2j, -0.5 + 0j) for mu in (0j, 0.4 - 0.3j, 0.6 + 0j))
#: relative distance from the circle past which an extremal row is a violation
EXTREMAL_TOL = 1e-8


def extremal_attainment_audit(n_grid: int = 540, seed: int = 1) -> VerificationReport:
    """Depth-3 extremal jets must land on the predicted circle.

    The grid has 54 (r, s, lambda, mu) cells and max(1, n_grid // 54)
    angles theta in each, so n_grid is rounded down to a multiple of 54,
    and to 54 when smaller.  Each cell's base point, first three links,
    jet of T_{-z0} and disk are built once by the scalar calls.  The
    (cell, theta) rows then run eval_extremal's Schur chain BLOCK at a
    time, each with the bits of ``eval_extremal(extremal_spec(cfg, 3, theta))``.
    """
    t0 = time.perf_counter()
    report = VerificationReport(suite="extremal", seed=seed)
    cells = []
    for r, s, lam, mu in EXTREMAL_CELLS:
        spec = dieudonne.extremal_spec(dieudonne.NormalizedConfig(r=r, s=s, lam=lam, mu=mu), 3)
        disk = disk_order3_params(complex(r), complex(s), lam, mu)
        cells.append([spec.z0, *spec.links[:3], *moebius_jet(-spec.z0, Jet3.identity(spec.z0)),
                      disk.center, disk.radius])
    cells = np.array(cells).T
    n_theta = max(1, n_grid // len(EXTREMAL_CELLS))
    unit = _rect(1.0, TWO_PI * np.arange(n_theta) / n_theta)  # cmath.exp(1j * theta)
    report.samples = len(EXTREMAL_CELLS) * n_theta
    for start in range(0, report.samples, BLOCK):
        cell, k = np.divmod(np.arange(start, min(start + BLOCK, report.samples)), n_theta)
        z0, c1, c2, c3, *m, center, radius = (CArray(x.real, x.imag) for x in cells[:, cell])
        inner = tuple(unit[k] * mk for mk in m)
        for c in (c3, c2):
            inner = _jet_mul(m, _moebius(c, inner))
        w3 = 6.0 * _jet_mul((z0, 1.0 + 0j, 0j, 0j), _moebius(c1, inner))[3]
        err = abs(abs(w3 - center) - radius.re)
        report.violations += int((err > EXTREMAL_TOL * (1.0 + radius.re)).sum())
        _note_worst(report, err, lambda i: dict(zip("rs", EXTREMAL_CELLS[cell[i]][:2]),
                                                theta=2.0 * math.pi * int(k[i]) / n_theta))
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
