"""Support-point machinery for the union of the circle family

    c(zeta) = zeta (1 - eta zeta),   rho(zeta) = t (1 - |zeta|^2),

over zeta in the closed unit disk.  The union V is a compact convex set;
its boundary is traced by support points v_theta, one per direction
theta, obtained either from an interior tangent disk (when the defining
gap is negative) or from a degenerate point-circle on |zeta| = 1 (found
by a monotone Newton solve).  ``support_arrays`` evaluates the whole
construction for an array of directions with numpy; ``support_point`` is
its length-1 case.

Configs may be abstract: any t > |eta| is accepted, even pairs not
realizable from admissible (r, s, lambda) data, so all three boundary
regimes are exercisable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .common import ClosedDisk, DomainError, WrongRegimeError

#: Absolute tolerance on the branch predicate |t e^{i theta} - conj(eta)|
#: - 2 (t^2 - |eta|^2); makes the branch switch deterministic.
BRANCH_TOL = 1e-12

#: Newton steps allowed per root; convergence takes at most about 10
MAX_NEWTON = 100


@dataclass(frozen=True)
class EnvelopeConfig:
    """Family constants t > |eta|, with abs_eta = |eta| and q = t^2 - |eta|^2."""

    t: float
    eta: complex = 0j
    abs_eta: float = field(init=False, repr=False, compare=False)
    q: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ae = abs(self.eta)
        if not self.t > 0.0:
            raise DomainError("need t > 0")
        if not self.t > ae:
            raise DomainError(f"need t > |eta|, got t={self.t}, |eta|={ae}")
        object.__setattr__(self, "abs_eta", ae)
        object.__setattr__(self, "q", self.t * self.t - ae * ae)


@dataclass(frozen=True)
class SupportPoint:
    """Boundary point of V maximizing Re(e^{-i theta} w).

    ``regime_branch`` records which case produced it: "full-point" when a
    positive-radius member disk touches the supporting line, "disk-point"
    when the support comes from a degenerate point-circle on |zeta| = 1.
    """

    theta: float
    t_theta: float
    zeta_theta: complex
    v_theta: complex
    regime_branch: str


def circle_family(cfg: EnvelopeConfig, zeta: complex) -> ClosedDisk:
    """Member disk of the family at parameter zeta, |zeta| <= 1."""
    az = abs(zeta)
    if az > 1.0 + 1e-12:
        raise DomainError("need |zeta| <= 1")
    return ClosedDisk(zeta * (1.0 - cfg.eta * zeta), cfg.t * max(0.0, 1.0 - az * az))


def _gap(cfg: EnvelopeConfig, theta):
    """Branch predicate at t for a theta or an array of thetas: negative on
    the tangent-disk ("full-point") branch."""
    return np.abs(cfg.t * np.exp(1j * theta) - cfg.eta.conjugate()) - 2.0 * cfg.q


def _root_x(cfg: EnvelopeConfig, w: np.ndarray) -> np.ndarray:
    """The x > |eta| with |x w - conj(eta)| = 2 (x^2 - |eta|^2), per unimodular w.

    With c + i d = w eta, squaring gives the quartic
    F(x) = 4 (x^2 - |eta|^2)^2 - (x - c)^2 - d^2, which has the same single
    root on x > |eta| and is convex there (x >= 1/4 on that part).  Newton
    started at the upper bound U, where |x w - conj(eta)| <= x - c + |d|
    gives F(U) >= 0, therefore decreases monotonically onto the root.  Each
    element is frozen as soon as its iterate stops decreasing, so its value
    does not depend on the other elements of the batch.
    """
    ae = cfg.abs_eta
    we = w * cfg.eta
    c, d = we.real, we.imag
    lo = ae + 1e-15 * (1.0 + ae)
    # f(lo) >= 0 only at theta = -arg(eta) with the root collapsing onto
    # |eta|; those elements keep x = lo
    going = 2.0 * (lo * lo - ae * ae) < np.hypot(lo - c, d)
    upper = 0.25 * (1.0 + np.sqrt(1.0 + 16.0 * ae * ae - 8.0 * c + 8.0 * np.abs(d)))
    x = np.where(going, np.maximum(upper, lo), lo)
    d2 = d * d
    # frozen elements keep being evaluated and may divide by zero; their
    # steps are discarded
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_NEWTON):
            p = (x - ae) * (x + ae)
            xc = x - c
            xn = x - (4.0 * p * p - xc * xc - d2) / (16.0 * x * p - 2.0 * xc)
            going &= xn < x
            if not going.any():
                return x
            x = np.where(going, xn, x)
    raise RuntimeError("Newton iteration in the root solve did not settle")  # pragma: no cover


def support_arrays(cfg: EnvelopeConfig, thetas):
    """Support construction for every direction of a theta array at once.

    Returns four arrays of the shape of ``thetas``: the branch mask (True on
    the tangent-disk "full-point" branch), t_theta, zeta_theta and v_theta.
    Every support point of the package comes from here, and each element is
    computed independently of the others, so one theta gives bit for bit the
    same result alone as inside any batch.
    """
    th = np.asarray(thetas, dtype=float)
    w = np.exp(1j * th)
    ae = cfg.abs_eta
    full = _gap(cfg, th) < -BRANCH_TOL
    x = np.full(th.shape, cfg.t)
    x[~full] = _root_x(cfg, w[~full])
    zeta = (x * w - cfg.eta.conjugate()) / (2.0 * (x * x - ae * ae))
    v = zeta * (1.0 - cfg.eta * zeta)
    # on the tangent-disk branch, add the radius of the member disk at zeta
    v = np.where(full, v + cfg.t * np.maximum(0.0, 1.0 - np.abs(zeta) ** 2) * w, v)
    return full, x, zeta, v


def support_point(cfg: EnvelopeConfig, theta: float) -> SupportPoint:
    """Boundary point of V in direction theta with its branch tag."""
    full, x, zeta, v = support_arrays(cfg, [theta])
    return SupportPoint(theta, float(x[0]), complex(zeta[0]), complex(v[0]),
                        "full-point" if full[0] else "disk-point")


def classify_regime(cfg: EnvelopeConfig) -> str:
    """"i": boundary is the image of |zeta| = 1 only; "ii": one full circle;
    "iii": mixed circular arc plus cap."""
    if cfg.t + cfg.abs_eta <= 0.5:
        return "i"
    if cfg.t - cfg.abs_eta >= 0.5:
        return "ii"
    return "iii"


def critical_angles(cfg: EnvelopeConfig) -> tuple[float, float]:
    """The two branch-switch angles theta1 < theta2 in (-pi, pi] (regime iii).

    They solve |t e^{i theta} - conj(eta)| = 2 (t^2 - |eta|^2), i.e.
    cos(theta + arg eta) = (t^2 + |eta|^2 - 4 (t^2 - |eta|^2)^2) / (2 t |eta|).
    """
    if classify_regime(cfg) != "iii":
        raise WrongRegimeError("critical angles exist only in regime iii")
    ae, q = cfg.abs_eta, cfg.q
    rhs = (cfg.t * cfg.t + ae * ae - 4.0 * q * q) / (2.0 * cfg.t * ae)
    rhs = min(1.0, max(-1.0, rhs))
    psi = math.acos(rhs)
    base = -cmath.phase(cfg.eta)
    th = sorted(_wrap(base + sgn * psi) for sgn in (-1.0, 1.0))
    return th[0], th[1]


def _wrap(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.fmod(theta + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi
