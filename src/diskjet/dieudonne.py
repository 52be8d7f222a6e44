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
* One rule: w_k fills the order-k disk (c_k, rho_k) as
  w_k = c_k + rho_k (conj(z0)/|z0|) p_k, p_1 = lambda, p_2 = mu, which
  :func:`lambda_from_w1` and :func:`mu_from_w2` read off their disks; under
  normalization lambda and mu rotate like derivatives of order 0 and 1.
* The third-order lemma has three cases: (1) |lambda| = 1 forces both w2
  and w3 (a unique degree-2 Blaschke-type extremal); (2) |lambda| < 1 = |mu|
  forces w3; (3) otherwise w3 fills a disk of positive radius.  A modulus
  within CASE1_TOL of 1 counts as 1.  :func:`case` applies this rule, and
  every caller in the package that branches on the case asks it.
* Base data is admissible when 0 < |z0| < 1 and |w0| < |z0|; every
  function taking z0 and w0 asks :func:`_radii`, the only check of it.
* The order-k factor k! (r^2 - s^2) / (r^2 (1 - r^2)^k) is computed once,
  by :func:`_scale`; it carries no power of r, so each caller writes the
  r^(2-k) it needs as a factor of r or a division by z0.  No factor then
  overflows or underflows for tiny |z0|.

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

    ``lam`` (None without w1) and ``mu`` (None without w2, and in case 1)
    are the disk parameters of w1 and w2, extracted once while validating
    them and reused by :func:`disk_order3` and :func:`normalize`.
    """

    z0: complex
    w0: complex
    w1: Optional[complex] = None
    w2: Optional[complex] = None
    lam: Optional[complex] = field(init=False, repr=False, compare=False)
    mu: Optional[complex] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _radii(self.z0, self.w0)
        # feasibility of w1, w2 == |lambda|, |mu| <= 1 (+ tolerance)
        lam = None if self.w1 is None else lambda_from_w1(self.z0, self.w0, self.w1)
        mu = None
        if self.w2 is not None and lam is not None and case(lam) != 1:
            mu = mu_from_w2(self.z0, self.w0, self.w2, lam)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    @property
    def r(self) -> float:
        return abs(self.z0)

    @property
    def s(self) -> float:
        return abs(self.w0)


@dataclass(frozen=True)
class NormalizedConfig:
    """Reduced coordinates: z0 = r e^{i phi}, w0 = s e^{i xi} (xi = 0 when w0 = 0).

    ``lam``/``mu`` are the disk parameters in the rotated frame, clamped
    onto the unit circle when they overshoot it by at most FEAS_TOL (the
    rule of :func:`lambda_from_w1` and :func:`mu_from_w2`).  Regions in the
    original frame are the normalized regions multiplied by
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
        phi, xi = cmath.phase(z0), (cmath.phase(w0) if w0 != 0 else 0.0)
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
    """k! (r^2 - s^2) / (r^2 (1 - r^2)^k): the order-k factor without r^(2-k).

    Evaluated as k! ((r - s)/r) ((r + s)/r) / ((1 - r)(1 + r))^k: the
    differences are exact in floating point, so no digits are lost as
    s -> r or r -> 1, and every factor is of order one for tiny r.
    """
    return (math.factorial(k) * ((r - s) / r) * ((r + s) / r)
            / ((1.0 - r) * (1.0 + r)) ** k)


def disk_order1(z0: complex, w0: complex) -> ClosedDisk:
    """Exact region of f'(z0) over self-maps with f(0)=0, f(z0)=w0."""
    r, s = _radii(z0, w0)
    return ClosedDisk(w0 / z0, _scale(1, r, s) * r)


def disk_order2(z0: complex, w0: complex, beta: complex) -> ClosedDisk:
    """Exact region of f''(z0) when f'(z0) is pinned through beta in the closed disk."""
    r, s = _radii(z0, w0)
    beta = _clamp_unit(complex(beta), "beta")
    scale = _scale(2, r, s)
    center = scale * (z0.conjugate() / z0) * beta * (1.0 - w0.conjugate() * beta)
    # a clamped beta can keep |beta| = 1 + 2^-52, so the factor is floored
    radius = scale * r * max(1.0 - abs(beta) ** 2, 0.0)
    return ClosedDisk(center, radius)


def _read_off(z0: complex, disk: ClosedDisk, w: complex, what: str) -> complex:
    """The p of w = c + rho (conj(z0)/|z0|) p on the disk (c, rho); clamped."""
    return _clamp_unit((w - disk.center) / (disk.radius * (z0.conjugate() / abs(z0))), what)


def lambda_from_w1(z0: complex, w0: complex, w1: complex) -> complex:
    """Disk parameter of the first derivative; clamped to the closed disk."""
    return _read_off(z0, disk_order1(z0, w0), w1, "lambda")


def mu_from_w2(z0: complex, w0: complex, w2: complex, lam: complex) -> complex:
    """Disk parameter of the second derivative given an interior lambda."""
    disk = disk_order2(z0, w0, lam)
    if case(lam) == 1:
        raise DegenerateCaseError(
            "|lambda| = 1: w2 is forced and mu is undefined (case 1)")
    return _read_off(z0, disk, w2, "mu")


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
    u = z0 / r  # unimodular
    w0b = w0.conjugate()
    base = (w0b / r) * (w0b * lam - (1.0 + r * r)) * lam ** 2 + r * lam
    if k == 1:
        return ClosedDisk(scale / u ** 3 * base, 0.0)
    if mu is None:
        raise DomainError("mu required when |lambda| < 1")
    mu = _clamp_unit(complex(mu), "mu")
    gap_l = 1.0 - abs(lam) ** 2
    center = scale / u ** 3 * (
        base + u * mu * gap_l * (1.0 + r * r - 2.0 * w0b * lam - z0 * lam.conjugate() * mu))
    if k == 2:
        return ClosedDisk(center, 0.0)
    return ClosedDisk(center, scale * r * gap_l * (1.0 - abs(mu) ** 2))


def disk_order3(data: InterpolationData) -> ClosedDisk:
    """Region of f'''(z0) from raw interpolation data (w1 and, unless
    lambda is unimodular, w2)."""
    if data.w1 is None:
        raise DomainError("w1 required for the order-3 disk")
    if data.w2 is None and case(data.lam) != 1:
        raise DomainError("w2 required for the order-3 disk when |lambda| < 1")
    return disk_order3_params(data.z0, data.w0, data.lam, data.mu)


def normalize(data: InterpolationData) -> NormalizedConfig:
    """Rotate the configuration to z0 = r > 0, w0 = s >= 0.

    The rotated map is f~(z) = e^{-i xi} f(e^{i phi} z), so the k-th
    derivative picks up e^{i (k phi - xi)}; the lambda and mu extracted
    with the data are rotated by :meth:`NormalizedConfig.from_params`.
    """
    if data.w1 is None:
        raise DomainError("w1 required to extract lambda")
    return NormalizedConfig.from_params(data.z0, data.w0, data.lam, data.mu)


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
    # the k-th link is the k-th real-frame parameter rotated back by rotation(k)
    params = (config.s / config.r, config.lam, config.mu)[:depth + 1]
    links = tuple(c / config.rotation(k) for k, c in enumerate(params, 1))
    if depth == 3:
        if abs(links[2]) >= 1.0:
            # cannot happen for admissible mu; kept as a hard runtime guard
            raise InfeasibleConstraintError(f"constructed |eta_ext| = {abs(links[2])} >= 1")
        links += (cmath.exp(1j * theta),)
    return ExtremalSpec(z0=config.r * cmath.exp(1j * config.phi), links=links)


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

    The bound is A [(1 + r^2) s + s^2 + r^2], the modulus of the lambda = -1
    point disk, attained by f(z) = z T_{s/r}(-T_{-r}(z)), a disk automorphism
    up to the leading factor with parameter a = (r^2 + s)/(r (1 + s)).
    """
    if not 0.0 <= s < r < 1.0:
        raise DomainError("need 0 <= s < r < 1")
    bound = abs(disk_order3_params(complex(r), complex(s), -1.0).center)
    a = (r * r + s) / (r * (1.0 + s))
    return bound, a
