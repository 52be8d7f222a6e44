"""The full third-derivative variability region for pinned value and
first derivative, as an affine image A (B + C V) of the envelope set V.

``region_spec`` builds the constants A, B, C and the envelope config from
normalized data (r, s, lambda); ``abstract_region`` wraps a bare envelope
config so the regime-(ii) code paths are testable even though no
admissible (r, s, lambda) reaches them.  ``gamma`` walks the boundary by
support direction, the two ``closed_form_*`` functions give the explicit
circle/cap expressions, and ``sample_boundary`` assembles a closed,
convex, branch-tagged polygonal trace.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .common import DomainError, WrongRegimeError
from .dieudonne import _curly_b, _scale, case
from .envelope import (BRANCH_TOL, EnvelopeConfig, _gap, _wrap, classify_regime,
                       critical_angles, support_arrays, support_point)

#: adaptive refinement stops once adjacent samples are this close in angle
REFINE_WIDTH = 1e-3
#: support directions of the half-plane test in ``contains``
CONTAINS_GRID = 720


@dataclass(frozen=True)
class RegionSpec:
    """Affine frame A (B + C V) over an envelope configuration."""

    A: float
    B: complex
    C: complex
    env: EnvelopeConfig

    @property
    def regime(self) -> str:
        return classify_regime(self.env)

    def push(self, v: complex) -> complex:
        """Envelope frame -> region frame."""
        return self.A * (self.B + self.C * v)

    def pull(self, w: complex) -> complex:
        """Region frame -> envelope frame."""
        return (w / self.A - self.B) / self.C


@dataclass(frozen=True)
class BoundaryPoint:
    theta: float
    value: complex
    branch: str  # "arc" (tangent-disk branch) or "cap" (degenerate-circle branch)


@dataclass(frozen=True)
class BoundaryCurve:
    points: tuple

    def values(self):
        return [p.value for p in self.points]

    def is_convex(self, slack: float = 1e-10) -> bool:
        """Cross products of consecutive edges all share one sign (up to slack)."""
        vals = self.values()
        n = len(vals)
        scale = max(abs(v) for v in vals) or 1.0
        for i in range(n):
            a, b, c = vals[i], vals[(i + 1) % n], vals[(i + 2) % n]
            e1, e2 = b - a, c - b
            cross = e1.real * e2.imag - e1.imag * e2.real
            if cross < -slack * scale * scale:
                return False
        return True


def region_spec(r: float, s: float, lam: complex) -> RegionSpec:
    """Constants and envelope config for admissible normalized data."""
    if not 0.0 <= s < r < 1.0:
        raise DomainError("need 0 <= s < r < 1")
    lam = complex(lam)
    if case(lam) == 1:
        raise DomainError("|lambda| = 1 (case 1): the third derivative is one forced value")
    denom = 1.0 + r * r - 2.0 * s * lam
    gap_l = 1.0 - abs(lam) ** 2
    env = EnvelopeConfig(t=r / abs(denom), eta=r * lam.conjugate() / denom)
    return RegionSpec(A=_scale(3, r, s), B=_curly_b(s, r, lam),
                      C=r * gap_l * denom, env=env)


def abstract_region(t: float, eta: complex = 0j, A: float = 1.0,
                    B: complex = 0j, C: complex = 1.0 + 0j) -> RegionSpec:
    return RegionSpec(A=A, B=B, C=C, env=EnvelopeConfig(t=t, eta=complex(eta)))


def gamma_point(spec: RegionSpec, theta: float) -> BoundaryPoint:
    sp = support_point(spec.env, theta)
    branch = "arc" if sp.regime_branch == "full-point" else "cap"
    return BoundaryPoint(theta, spec.push(sp.v_theta), branch)


def gamma(spec: RegionSpec, theta: float) -> complex:
    """Boundary point of the region for support direction theta."""
    return gamma_point(spec, theta).value


def closed_form_circle(spec: RegionSpec, theta: float) -> complex:
    """Explicit circle expression of the tangent-disk branch.

    Valid for all theta in regime ii and on the arc angles of regime iii.
    """
    regime = spec.regime
    if regime == "i":
        raise WrongRegimeError("circle closed form needs regime ii or iii")
    if regime == "iii" and _gap(spec.env, theta) >= -BRANCH_TOL:
        raise WrongRegimeError("theta outside the circular-arc angle set")
    t, eta = spec.env.t, spec.env.eta
    q = t * t - abs(eta) ** 2
    v = ((1.0 + 4.0 * q) * t * cmath.exp(1j * theta) - eta.conjugate()) / (4.0 * q)
    return spec.push(v)


def closed_form_cap(spec: RegionSpec, zeta: complex) -> complex:
    """Image of a unimodular family parameter on the degenerate-circle part.

    Covers all of |zeta| = 1 in regime i and the closed subarc between the
    critical angles in regime iii.
    """
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise DomainError("need |zeta| = 1")
    regime = spec.regime
    if regime == "ii":
        raise WrongRegimeError("cap closed form needs regime i or iii")
    eta = spec.env.eta
    if regime == "iii":
        t = spec.env.t
        ae = abs(eta)
        q = t * t - ae * ae
        rhs = (t * t + ae * ae - 4.0 * q * q) / (2.0 * t * ae)
        # zeta = (x e^{i theta} - conj(eta)) / (2 (x^2 - |eta|^2)) for the
        # root-branch x; recover cos(theta + arg eta) from it
        w = 2.0 * q * zeta + eta.conjugate()
        cosv = math.cos(cmath.phase(w) + cmath.phase(eta))
        if cosv > rhs + 1e-9:
            raise WrongRegimeError("zeta outside the cap subarc")
    return spec.push(zeta * (1.0 - eta * zeta))


def _theta_grid(n: int) -> np.ndarray:
    """n directions -pi + 2 pi k / n, k = 1..n."""
    return -math.pi + 2.0 * math.pi * np.arange(1, n + 1) / n


def sample_boundary(spec: RegionSpec, n: int) -> BoundaryCurve:
    """Closed branch-tagged boundary trace with n base samples.

    In the mixed regime the grid is refined around the two branch-switch
    angles until adjacent samples are within REFINE_WIDTH in angle.
    """
    if n < 16:
        raise DomainError("need n >= 16")
    thetas = _theta_grid(n).tolist()
    if spec.regime == "iii":
        th1, th2 = critical_angles(spec.env)
        extra = []
        for tc in (th1, th2):
            w = 2.0 * math.pi / n
            while w > REFINE_WIDTH:
                w /= 2.0
                extra.extend((_wrap(tc - w), _wrap(tc + w)))
            extra.append(tc)
        thetas = sorted(set(thetas) | set(extra))
    full, _, _, v = support_arrays(spec.env, thetas)
    # push with Python complex, as gamma_point does: numpy's complex
    # arithmetic rounds differently, and the trace must equal gamma pointwise
    pts = tuple(BoundaryPoint(th, spec.push(vt), "arc" if arc else "cap")
                for th, arc, vt in zip(thetas, full.tolist(), v.tolist()))
    return BoundaryCurve(points=pts)


def denormalize(curve: BoundaryCurve, phi: float, xi: float) -> BoundaryCurve:
    """Rotate a normalized-frame curve back to original coordinates."""
    rot = cmath.exp(-1j * (3.0 * phi - xi))
    pts = tuple(BoundaryPoint(p.theta, rot * p.value, p.branch) for p in curve.points)
    return BoundaryCurve(points=pts)


def contains(spec: RegionSpec, w, slack: float = 1e-7):
    """Half-plane support test: w is in the region iff for each of
    CONTAINS_GRID directions it stays on the inner side of the supporting
    line.

    ``w`` is one point, giving a bool, or an iterable of points, giving a
    list of bools; the support grid is computed once per call, so test many
    points in one call.  The test is outer-approximating in the grid, so
    genuine members are never rejected; slack is measured in the envelope
    frame.
    """
    single = isinstance(w, numbers.Number)
    thetas = _theta_grid(CONTAINS_GRID)
    _, _, _, v = support_arrays(spec.env, thetas)
    e = np.exp(-1j * thetas)
    er, ei = e.real, e.imag
    bound = er * v.real - ei * v.imag + slack
    out = []
    for x in ([w] if single else w):
        u = spec.pull(complex(x))
        out.append(not (er * u.real - ei * u.imag > bound).any())
    return out[0] if single else out
