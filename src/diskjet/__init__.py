"""diskjet: exact variability regions of the first three derivatives of
analytic self-maps of the unit disk fixing the origin.

Built around degree-3 Taylor jets of nested Moebius transformations and
finite Blaschke products; the second- and third-derivative regions are
closed disks, and the region over all admissible second derivatives is a
convex set bounded by an envelope of circles.

The closed-form layers (jets, disks, Peschl invariants) load with the
package.  The envelope, boundary and audit layers need numpy; their names
are served lazily (PEP 562), so ``import diskjet`` and the ``disk`` /
``extremal`` commands never import numpy.
"""

from importlib import import_module as _import_module

from .common import (ClosedDisk, DegenerateCaseError, DomainError,
                     InfeasibleConstraintError, WrongRegimeError)
from .jets import BACKEND, BlaschkeSpec, Jet3, blaschke_jet, blaschke_value, \
    moebius_jet, moebius_value
from .peschl import PeschlTriple, peschl_derivatives, peschl_via_conjugation, \
    schur_residual
from .dieudonne import (ExtremalSpec, InterpolationData, NormalizedConfig,
                        disk_order1, disk_order2, disk_order3,
                        disk_order3_params, eval_extremal, extremal_spec,
                        lambda_from_w1, mu_from_w2, normalize,
                        sharp_bound_lambda1)

#: public names of the numpy-backed submodules, imported on first access
_LAZY = {
    "envelope": ("EnvelopeConfig", "SupportPoint", "circle_family", "classify_regime",
                 "critical_angles", "support_point"),
    "boundary": ("BoundaryCurve", "BoundaryPoint", "RegionSpec", "abstract_region",
                 "closed_form_cap", "closed_form_circle", "contains", "denormalize",
                 "gamma", "region_spec", "sample_boundary"),
    "verify": ("VerificationReport", "fd_audit", "fd_jet", "membership_audit",
               "regime2_search", "sample_self_map"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_LAZY) + list(_OWNER))


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
