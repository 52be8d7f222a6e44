"""Variability disks for f', f'', f''' of disk self-maps fixing the origin.

Given interpolation data at a base point z0 (value w0, optionally the
first and second derivatives w1, w2), the exact sets of possible values
of the first, second and third derivative are closed disks.  This module
computes those disks, extracts the disk-valued parameters (lambda, mu)
that coordinatize the data, reduces general configurations to the real
normalized frame (z0 = r > 0, w0 = s >= 0), and builds the nested-Moebius
extremal maps that attain the disk boundaries.

Conventions
-----------
* ``lambda`` parametrizes w1:  w1 = w0/z0 + (r^2-s^2)/(z0 (1-r^2)) * lambda.
* ``mu`` parametrizes w2 once lambda is interior (see :func:`mu_from_w2`).
* The third-order lemma has three cases: (1) |lambda| = 1 forces both w2
  and w3 (a unique degree-2 Blaschke-type extremal); (2) |lambda| < 1 = |mu|
  forces w3; (3) otherwise w3 fills a disk of positive radius.  A modulus
  within CASE1_TOL of 1 counts as 1.  :func:`case` applies this rule, and
  every caller in the package that branches on the case asks it.
* Base data is admissible when 0 < |z0| < 1 and |w0| < |z0|; every
  function taking z0 and w0 asks :func:`_radii`, the only check of it.
* The order-k radius factor k! (r^2 - s^2) / (r^k (1 - r^2)^k) is
  computed once, by :func:`_scale`.

The first-derivative radius is (r^2 - s^2)/(r (1 - r^2)).  (The variant
with 1 - s^2 in the denominator that sometimes appears in print is too
small: it is already exceeded by f(z) = z (z - z0)/(1 - conj(z0) z).)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

from .common import ClosedDisk, DegenerateCaseError, DomainError, InfeasibleConstraintError
from .jets import Jet3, moebius_jet

#: Accepted overshoot of |lambda|, |mu| beyond 1 before data is declared
#: infeasible; values in (1, 1 + FEAS_TOL] are clamped to the unit circle.
#: Extraction from floating-point jets of genuinely extremal maps lands
#: marginally outside.
FEAS_TOL = 1e-9

#: |lambda| >= 1 - CASE1_TOL is dispatched to the degenerate case (1);
#: same threshold for |mu| and case (2).  Only :func:`case` reads it.
CASE1_TOL = 1e-12


def case(lam: complex, mu: Optional[complex] = None) -> int:
    """Case of the third-order lemma that (lambda, mu) falls in: 1, 2 or 3.

    1 when |lambda| >= 1 - CASE1_TOL, else 2 when |mu| >= 1 - CASE1_TOL,
    else 3.  Without mu only lambda is tested, so the answer is 1 or 3.
    """
    rim = 1.0 - CASE1_TOL
    if abs(lam) >= rim:
        return 1
    if mu is not None and abs(mu) >= rim:
        return 2
    return 3


@dataclass(frozen=True)
class InterpolationData:
    """Base point, value, and optional derivative constraints.

    ``lam`` is the disk parameter of w1 (None without w1), extracted once
    while validating w1 and reused by :func:`disk_order3`.
    """

    z0: complex
    w0: complex
    w1: Optional[complex] = None
    w2: Optional[complex] = None
    lam: Optional[complex] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _radii(self.z0, self.w0)
        # feasibility of w1 == |lambda| <= 1 (+ tolerance)
        lam = None if self.w1 is None else lambda_from_w1(self.z0, self.w0, self.w1)
        object.__setattr__(self, "lam", lam)

    @property
    def r(self) -> float:
        return abs(self.z0)

    @property
    def s(self) -> float:
        return abs(self.w0)


@dataclass(frozen=True)
class NormalizedConfig:
    """Reduced coordinates: z0 = r, w0 = s with rotation phases recorded.

    ``lam``/``mu`` are the disk parameters recomputed in the rotated frame,
    clamped onto the unit circle when they overshoot it by at most FEAS_TOL
    (the rule of :func:`lambda_from_w1` and :func:`mu_from_w2`).  Regions in
    the original frame are the normalized regions multiplied by
    ``exp(-i (k phi - xi))`` for the k-th derivative.
    """

    r: float
    s: float
    lam: complex
    mu: Optional[complex] = None
    phi: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.s < self.r < 1.0:
            raise DomainError(f"need 0 <= s < r < 1, got s={self.s}, r={self.r}")
        object.__setattr__(self, "lam", _clamp_unit(self.lam, "lambda"))
        if self.mu is not None:
            object.__setattr__(self, "mu", _clamp_unit(self.mu, "mu"))

    @classmethod
    def from_params(cls, z0: complex, w0: complex, lam: complex,
                    mu: Optional[complex] = None) -> "NormalizedConfig":
        """Config of original-frame data: z0, w0 and the disk parameters there."""
        r, s = _radii(z0, w0)
        phi, xi = _phases(z0, w0)
        mu_n = None if mu is None else cmath.exp(1j * (phi - xi)) * mu
        return cls(r=r, s=s, lam=cmath.exp(-1j * xi) * lam, mu=mu_n,
                   phi=phi, xi=xi)

    def rotation(self, k: int) -> complex:
        """exp(i (k phi - xi)): multiplies the k-th derivative when normalizing."""
        return cmath.exp(1j * (k * self.phi - self.xi))


@dataclass(frozen=True)
class ExtremalSpec:
    """Extremal map attaining a disk boundary (or center), as a Schur chain.

    With m = T_{-z0} and links (c_0, ..., c_n) the map is
    f(z) = z T_{c_0}(m T_{c_1}(m ... T_{c_{n-1}}(c_n m))):

    depth 1: links (u0, v0)                          (|v0| = 1)
    depth 2: links (u0, v0, tau)                     (|tau| = 1)
    depth 3: links (u0, v0, eta_ext, e^{i theta})
    """

    z0: complex
    links: tuple


def _clamp_unit(v: complex, what: str) -> complex:
    m = abs(v)
    if m <= 1.0:
        return v
    if m <= 1.0 + FEAS_TOL:
        return v / m
    raise InfeasibleConstraintError(f"|{what}| = {m} exceeds 1 beyond tolerance")


def _phases(z0: complex, w0: complex) -> tuple[float, float]:
    """(phi, xi) with z0 = r e^{i phi}, w0 = s e^{i xi}; xi = 0 when w0 = 0."""
    return cmath.phase(z0), (cmath.phase(w0) if w0 != 0 else 0.0)


def _radii(z0: complex, w0: complex) -> tuple[float, float]:
    """(r, s) = (|z0|, |w0|) of admissible base data.

    DomainError unless 0 < |z0| < 1 (NaN included), then
    InfeasibleConstraintError unless |w0| < |z0| (Schwarz).
    """
    r, s = abs(z0), abs(w0)
    if not 0.0 < r < 1.0:
        raise DomainError(f"need 0 < |z0| < 1, got |z0| = {r}")
    if not s < r:
        raise InfeasibleConstraintError(
            f"need |w0| < |z0| (Schwarz), got |w0| = {s}, |z0| = {r}")
    return r, s


def _scale(k: int, r: float, s: float) -> float:
    """k! (r^2 - s^2) / (r^k (1 - r^2)^k), the order-k radius factor.

    Evaluated as k! ((r - s)/r) ((r + s)/r) r^(2-k) / ((1 - r)(1 + r))^k:
    the differences are exact in floating point, so no digits are lost as
    s -> r or r -> 1, and no factor underflows for tiny r.
    """
    return (math.factorial(k) * ((r - s) / r) * ((r + s) / r) * r ** (2 - k)
            / ((1.0 - r) * (1.0 + r)) ** k)


def disk_order1(z0: complex, w0: complex) -> ClosedDisk:
    """Exact region of f'(z0) over self-maps with f(0)=0, f(z0)=w0."""
    r, s = _radii(z0, w0)
    return ClosedDisk(w0 / z0, _scale(1, r, s))


def disk_order2(z0: complex, w0: complex, beta: complex) -> ClosedDisk:
    """Exact region of f''(z0) when f'(z0) is pinned through beta in the closed disk."""
    r, s = _radii(z0, w0)
    beta = _clamp_unit(complex(beta), "beta")
    scale = _scale(2, r, s)
    center = scale * (z0.conjugate() / z0) * beta * (1.0 - w0.conjugate() * beta)
    radius = scale * r * (1.0 - abs(beta) ** 2)
    return ClosedDisk(center, radius)


def lambda_from_w1(z0: complex, w0: complex, w1: complex) -> complex:
    """Disk parameter of the first derivative; clamped to the closed disk."""
    r, s = _radii(z0, w0)
    lam = (w1 - w0 / z0) * (z0 / r) / _scale(1, r, s)
    return _clamp_unit(lam, "lambda")


def mu_from_w2(z0: complex, w0: complex, w2: complex, lam: complex) -> complex:
    """Disk parameter of the second derivative given an interior lambda."""
    r, s = _radii(z0, w0)
    if case(lam) == 1:
        raise DegenerateCaseError(
            "|lambda| = 1: w2 is forced and mu is undefined (case 1)")
    num = w2 * (z0 / r) ** 2 / _scale(2, r, s) - lam * (1.0 - w0.conjugate() * lam)
    mu = num / (z0 * (1.0 - abs(lam) ** 2))
    return _clamp_unit(mu, "mu")


def _curly_b(w0: complex, r: float, lam: complex) -> complex:
    w0b = w0.conjugate()
    return w0b * w0b * lam ** 3 - w0b * (1.0 + r * r) * lam ** 2 + r * r * lam


def disk_order3_params(z0: complex, w0: complex, lam: complex,
                       mu: Optional[complex] = None) -> ClosedDisk:
    """Region of f'''(z0) from the disk parameters (lambda, mu).

    |lambda| = 1 (case 1) and |mu| = 1 (case 2) give radius-zero disks.
    mu may be omitted only in case 1, where it is irrelevant.
    """
    r, s = _radii(z0, w0)
    lam = _clamp_unit(complex(lam), "lambda")
    k = case(lam, mu)
    scale = _scale(3, r, s)
    rot = (r / z0) ** 3  # unimodular
    if k == 1:
        return ClosedDisk(scale * rot * _curly_b(w0, r, lam), 0.0)
    if mu is None:
        raise DomainError("mu required when |lambda| < 1")
    mu = _clamp_unit(complex(mu), "mu")
    gap_l = 1.0 - abs(lam) ** 2
    center = scale * rot * (
        _curly_b(w0, r, lam)
        + z0 * mu * gap_l * (1.0 + r * r - 2.0 * w0.conjugate() * lam - z0 * lam.conjugate() * mu))
    if k == 2:
        return ClosedDisk(center, 0.0)
    return ClosedDisk(center, scale * r * r * gap_l * (1.0 - abs(mu) ** 2))


def disk_order3(data: InterpolationData) -> ClosedDisk:
    """Region of f'''(z0) from raw interpolation data (w1 and, unless
    lambda is unimodular, w2)."""
    if data.w1 is None:
        raise DomainError("w1 required for the order-3 disk")
    lam = data.lam
    if case(lam) == 1:
        return disk_order3_params(data.z0, data.w0, lam)
    if data.w2 is None:
        raise DomainError("w2 required for the order-3 disk when |lambda| < 1")
    mu = mu_from_w2(data.z0, data.w0, data.w2, lam)
    return disk_order3_params(data.z0, data.w0, lam, mu)


def normalize(data: InterpolationData) -> NormalizedConfig:
    """Rotate the configuration to z0 = r > 0, w0 = s >= 0.

    The rotated map is f~(z) = e^{-i xi} f(e^{i phi} z), so the k-th
    derivative picks up e^{i (k phi - xi)}; lambda and mu are recomputed
    from the rotated derivative values.
    """
    if data.w1 is None:
        raise DomainError("w1 required to extract lambda")
    r, s = data.r, data.s
    phi, xi = _phases(data.z0, data.w0)
    w1_n = cmath.exp(1j * (phi - xi)) * data.w1
    lam_n = lambda_from_w1(complex(r), complex(s), w1_n)
    mu_n: Optional[complex] = None
    if data.w2 is not None and case(lam_n) != 1:
        w2_n = cmath.exp(1j * (2.0 * phi - xi)) * data.w2
        mu_n = mu_from_w2(complex(r), complex(s), w2_n, lam_n)
    return NormalizedConfig(r=r, s=s, lam=lam_n, mu=mu_n, phi=phi, xi=xi)


def extremal_spec(config: NormalizedConfig, depth: int, theta: float = 0.0) -> ExtremalSpec:
    """Extremal map of the stated nesting depth for the configuration.

    The depth must be the case of (lambda, mu) (see :func:`case`): depth 1
    needs |lambda| = 1, depth 2 |lambda| < 1 = |mu|, depth 3 both interior.
    The returned spec lives in the original (rotated) frame of the
    configuration.
    """
    if depth > 1 and config.mu is None:
        raise DomainError("mu required for depths 2 and 3")
    k = case(config.lam, config.mu)
    if depth != k:
        raise DomainError(f"depth {depth} requested, but (lambda, mu) is in case {k}")
    z0 = config.r * cmath.exp(1j * config.phi)
    w0 = config.s * cmath.exp(1j * config.xi)
    frame = z0.conjugate() / z0  # unimodular
    # disk parameters back in the original frame, times the frame
    lam_o = cmath.exp(1j * config.xi) * config.lam
    links = (w0 / z0, frame * lam_o)
    if depth > 1:
        mu_o = cmath.exp(1j * (config.xi - config.phi)) * config.mu
        links += (frame * mu_o,)  # tau at depth 2, eta_ext at depth 3
    if depth == 3:
        if abs(links[2]) >= 1.0:
            # cannot happen for admissible mu; kept as a hard runtime guard
            raise InfeasibleConstraintError(f"constructed |eta_ext| = {abs(links[2])} >= 1")
        links += (cmath.exp(1j * theta),)
    return ExtremalSpec(z0=z0, links=links)


def eval_extremal(spec: ExtremalSpec, z: Optional[complex] = None) -> Jet3:
    """Jet of the extremal map at z (default: its own base point)."""
    at = spec.z0 if z is None else complex(z)
    zj = Jet3.identity(at)
    m = moebius_jet(-spec.z0, zj)
    inner = m.scale(spec.links[-1])
    for c in reversed(spec.links[1:-1]):
        inner = m * moebius_jet(c, inner)
    return zj * moebius_jet(spec.links[0], inner)


def sharp_bound_lambda1(r: float, s: float) -> tuple[float, float]:
    """Largest |f'''| over the degenerate |lambda| = 1 family, and the
    Moebius parameter of the attaining map.

    The bound is A [(1 + r^2) s + s^2 + r^2], attained at lambda = -1 by
    f(z) = z T_{s/r}(-T_{-r}(z)), a disk automorphism up to the leading
    factor with parameter a = (r^2 + s)/(r (1 + s)).
    """
    if not 0.0 <= s < r < 1.0:
        raise DomainError("need 0 <= s < r < 1")
    bound = _scale(3, r, s) * ((1.0 + r * r) * s + s * s + r * r)
    a = (r * r + s) / (r * (1.0 + s))
    return bound, a
