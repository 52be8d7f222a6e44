"""The full third-derivative variability region for pinned value and
first derivative, as an affine image B + C V of the envelope set V.

The region is the union over |mu| <= 1 of the order-3 disks; the disk of
mu is centered at B + C mu (1 - eta mu) with radius |C| t (1 - |mu|^2).
``region_spec`` reads B and C off the mu = 0 disk of
:func:`~diskjet.dieudonne.disk_order3_params` for normalized data
(r, s, lambda) and builds the envelope config (t, eta);
``abstract_region`` wraps a bare envelope config so the regime-(ii) code
paths are testable even though no admissible (r, s, lambda) reaches them.
``gamma`` walks the boundary by support direction, the two
``closed_form_*`` functions give the explicit circle/cap expressions, and
``sample_boundary`` assembles a closed, convex, branch-tagged polygonal
trace.  A trace is held as arrays (directions, values, branch mask) and
pushed into the region frame with :class:`~diskjet.carray.CArray`, so each
value has the bits of ``gamma`` at its direction; the per-point
``BoundaryPoint`` tuple is built only when a caller reads ``points``.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .carray import CArray
from .common import DomainError, WrongRegimeError
from .dieudonne import case, disk_order3_params
from .envelope import (BRANCH_TOL, EnvelopeConfig, _gap, _wrap, classify_regime,
                       critical_angles, support_arrays, support_point)

#: adaptive refinement stops once adjacent samples are this close in angle
REFINE_WIDTH = 1e-3
#: support directions of the half-plane test in ``contains``
CONTAINS_GRID = 720


@dataclass(frozen=True)
class RegionSpec:
    """Affine frame B + C V over an envelope configuration."""

    B: complex
    C: complex
    env: EnvelopeConfig

    @property
    def regime(self) -> str:
        return classify_regime(self.env)

    def push(self, v: complex) -> complex:
        """Envelope frame -> region frame."""
        return self.B + self.C * v

    def pull(self, w: complex) -> complex:
        """Region frame -> envelope frame."""
        return (w - self.B) / self.C


class BoundaryPoint(NamedTuple):
    theta: float
    value: complex
    branch: str  # "arc" (tangent-disk branch) or "cap" (degenerate-circle branch)


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """A closed polygonal trace as three read-only arrays of one length.

    ``theta`` holds the support directions (float), ``value`` the boundary
    points (complex) and ``arc`` the branch mask (True on the tangent-disk
    "arc" branch, False on the "cap" branch).  ``points`` is the same trace
    as a tuple of :class:`BoundaryPoint` of Python float, complex and str;
    it is built on first access and then kept.  Two curves are equal when
    their points are.
    """

    theta: np.ndarray
    value: np.ndarray
    arc: np.ndarray

    def __post_init__(self):
        for a in (self.theta, self.value, self.arc):
            a.flags.writeable = False

    @cached_property
    def points(self) -> tuple:
        return tuple(map(BoundaryPoint, self.theta.tolist(), self.values(), self.branches()))

    def __eq__(self, other):
        if not isinstance(other, BoundaryCurve):
            return NotImplemented
        return (np.array_equal(self.theta, other.theta)
                and np.array_equal(self.value, other.value)
                and np.array_equal(self.arc, other.arc))

    def __hash__(self):
        return hash(self.points)

    def values(self) -> list:
        return self.value.tolist()

    def branches(self) -> list:
        return ["arc" if a else "cap" for a in self.arc.tolist()]

    def is_convex(self, slack: float = 1e-10) -> bool:
        """Cross products of consecutive edges all share one sign (up to slack)."""
        e1 = np.roll(self.value, -1) - self.value
        e2 = np.roll(e1, -1)
        cross = e1.real * e2.imag - e1.imag * e2.real
        scale = float(np.hypot(self.value.real, self.value.imag).max()) or 1.0
        return not (cross < -slack * scale * scale).any()


def region_spec(r: float, s: float, lam: complex) -> RegionSpec:
    """Constants and envelope config for admissible normalized data."""
    if not 0.0 <= s < r < 1.0:
        raise DomainError("need 0 <= s < r < 1")
    lam = complex(lam)
    if case(lam) == 1:
        raise DomainError("|lambda| = 1 (case 1): the third derivative is one forced value")
    denom = 1.0 + r * r - 2.0 * s * lam
    env = EnvelopeConfig(t=r / abs(denom), eta=r * lam.conjugate() / denom)
    d = disk_order3_params(r, s, lam, 0j)
    return RegionSpec(B=d.center, C=d.radius / r * denom, env=env)


def abstract_region(t: float, eta: complex = 0j, B: complex = 0j,
                    C: complex = 1.0 + 0j) -> RegionSpec:
    return RegionSpec(B=B, C=C, env=EnvelopeConfig(t=t, eta=complex(eta)))


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
    t, eta, q = spec.env.t, spec.env.eta, spec.env.q
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
        t, ae, q = spec.env.t, spec.env.abs_eta, spec.env.q
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

    The directions are the n-point grid of ``_theta_grid``, ascending.  In
    the mixed regime the grid is refined around the two branch-switch angles
    until adjacent samples are within REFINE_WIDTH in angle, and the union
    is sorted without repeats.  The trace is computed on arrays: one
    ``support_arrays`` call, then one push in ``CArray`` arithmetic, which
    rounds as ``spec.push`` does on Python complex (numpy's complex product
    need not), so each value has the bits of ``gamma`` at its direction.  No
    per-point object is built until ``points`` is read.
    """
    if n < 16:
        raise DomainError("need n >= 16")
    thetas = _theta_grid(n)
    if spec.regime == "iii":
        extra = []
        for tc in critical_angles(spec.env):
            w = 2.0 * math.pi / n
            while w > REFINE_WIDTH:
                w /= 2.0
                extra.extend((_wrap(tc - w), _wrap(tc + w)))
            extra.append(tc)
        # sorted, repeats dropped; np.unique would import numpy.ma (about 0.8 MB)
        thetas = np.sort(np.concatenate((thetas, extra)))
        thetas = thetas[np.append(True, thetas[1:] != thetas[:-1])]
    full, _, _, v = support_arrays(spec.env, thetas)
    value = spec.B + spec.C * CArray(v.real, v.imag)
    return BoundaryCurve(thetas, value.numpy(), full)


def denormalize(curve: BoundaryCurve, phi: float, xi: float) -> BoundaryCurve:
    """Rotate a normalized-frame curve back to original coordinates."""
    rot = cmath.exp(-1j * (3.0 * phi - xi))
    value = rot * CArray(curve.value.real, curve.value.imag)
    return BoundaryCurve(curve.theta, value.numpy(), curve.arc)


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
