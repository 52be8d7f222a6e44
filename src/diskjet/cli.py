"""Command-line surface: disks, boundary curves, extremal maps, audits.

Exit codes: 0 success, 1 usage error, 2 infeasible constraints or domain
error, 3 verification failure.  Complex flags use the shell-safe syntax
``RE+IMi`` / ``RE-IMi`` (no spaces); every number prints so that re-parsing
is bit-exact (17 significant digits, or the shortest round trip in JSON).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Optional

from . import dieudonne as dd
from .common import DomainError, InfeasibleConstraintError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

#: largest ``boundary --n``: the trace and its formatted output take O(n) memory
BOUNDARY_MAX_N = 100_000
#: largest ``verify --n`` as a sample count (membership, fd, all) or extremal
#: grid size.  At the cap (seed 1, Python 3.11 on a 2-core x86-64 Xeon) a run
#: took 10.4 s for membership, 13.1 s for fd and 2.5 s for extremal, with a
#: peak RSS of 31-33 MB; the audits work in blocks, so memory does not grow
#: with n
VERIFY_MAX_SAMPLES = 1_000_000
#: largest ``verify --suite regime2 --n``, the per-axis grid density: the
#: search visits n^3 points, about 20 s at the cap
VERIFY_MAX_GRID = 400


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word starting "-digit" or "-.digit" is a value, as in -0.1+0.2i or
        # -1e-3: argparse's default takes only plain negative numbers for values
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def parse_complex(text: str) -> complex:
    """Parse RE, IMi, RE+IMi or RE-IMi (also accepts j for i)."""
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise _UsageError(f"cannot parse complex number {text!r}") from exc


def fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# disk

def _cmd_disk(args) -> int:
    z0 = parse_complex(args.z0)
    w0 = parse_complex(args.w0)
    if args.order == 1:
        disk = dd.disk_order1(z0, w0)
    elif args.order == 2:
        if args.beta is not None:
            beta = parse_complex(args.beta)
        elif args.w1 is not None:
            beta = dd.lambda_from_w1(z0, w0, parse_complex(args.w1))
        else:
            raise _UsageError("order 2 needs --beta or --w1")
        disk = dd.disk_order2(z0, w0, beta)
    else:
        if args.lam is not None:
            lam = parse_complex(args.lam)
            mu = parse_complex(args.mu) if args.mu is not None else None
            disk = dd.disk_order3_params(z0, w0, lam, mu)
        elif args.w1 is not None:
            w2 = parse_complex(args.w2) if args.w2 is not None else None
            data = dd.InterpolationData(z0, w0, parse_complex(args.w1), w2)
            if dd.case(data.lam) != 1 and w2 is None:
                raise _UsageError("order 3 needs --w2 (or --lambda/--mu) when |lambda| < 1")
            disk = dd.disk_order3(data)
        else:
            raise _UsageError("order 3 needs --w1/--w2 or --lambda/--mu")
    payload = {
        "center_re": disk.center.real,
        "center_im": disk.center.imag,
        "radius": disk.radius,
    }
    _emit(_json(payload), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# boundary

def _curve_rows(curve):
    """(theta, re, im, branch) per trace point, as Python floats and str."""
    return zip(curve.theta.tolist(), curve.value.real.tolist(), curve.value.imag.tolist(),
               curve.branches())


def _curve_csv(curve) -> str:
    lines = ["theta,re,im,branch"]
    for theta, re, im, branch in _curve_rows(curve):
        lines.append(f"{theta:.17g},{re:.17g},{im:.17g},{branch}")
    return "\n".join(lines) + "\n"


def _curve_json(curve, regime: str) -> str:
    return _json({
        "regime": regime,
        "points": [
            {"theta": theta, "re": re, "im": im, "branch": branch}
            for theta, re, im, branch in _curve_rows(curve)
        ],
    })


def _curve_svg(curve, regime: str) -> str:
    xs = curve.value.real.tolist()
    ys = curve.value.imag.tolist()
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-30)
    margin = 0.05 * span
    scale = 800.0 / (span + 2.0 * margin)

    def X(x: float) -> float:
        return (x - xmin + margin + (span - (xmax - xmin)) / 2.0) * scale

    def Y(y: float) -> float:
        return 800.0 - (y - ymin + margin + (span - (ymax - ymin)) / 2.0) * scale

    path = "M " + " L ".join(f"{X(x):.3f} {Y(y):.3f}" for x, y in zip(xs, ys)) + " Z"
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 800" '
        'width="800" height="800">',
        '<rect width="800" height="800" fill="white"/>',
        f'<circle cx="{X(0.0):.3f}" cy="{Y(0.0):.3f}" r="{scale:.3f}" '
        'fill="none" stroke="#bbbbbb" stroke-dasharray="6 4"/>',
        f'<path d="{path}" fill="#e8f0fe" stroke="#1a56c4" stroke-width="1.5"/>',
        f'<text x="16" y="28" font-family="monospace" font-size="18">regime {regime}</text>',
        "</svg>",
        "",
    ]
    return "\n".join(parts)


def _cmd_boundary(args) -> int:
    if not 16 <= args.n <= BOUNDARY_MAX_N:
        raise _UsageError(f"need 16 <= --n <= {BOUNDARY_MAX_N}")
    z0 = parse_complex(args.z0)
    w0 = parse_complex(args.w0)
    w1 = parse_complex(args.w1)
    data = dd.InterpolationData(z0, w0, w1)
    cfg = dd.normalize(data)
    if dd.case(cfg.lam) == 1:
        raise InfeasibleConstraintError(
            "|lambda| = 1: third derivative is the single forced value of the "
            "degenerate case (1); no boundary curve exists")
    from . import boundary as bnd  # numpy loads only once the inputs are valid
    spec = bnd.region_spec(cfg.r, cfg.s, cfg.lam)
    curve = bnd.denormalize(bnd.sample_boundary(spec, args.n), cfg.phi, cfg.xi)
    if args.format == "csv":
        _emit(_curve_csv(curve), args.out)
    elif args.format == "json":
        _emit(_curve_json(curve, spec.regime), args.out)
    else:
        _emit(_curve_svg(curve, spec.regime), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# extremal

def _cmd_extremal(args) -> int:
    z0 = parse_complex(args.z0)
    w0 = parse_complex(args.w0)
    lam = parse_complex(args.lam)
    mu = parse_complex(args.mu) if args.mu is not None else None
    theta = args.theta
    if not math.isfinite(theta):
        raise _UsageError("--theta must be finite")
    cfg = dd.NormalizedConfig.from_params(z0, w0, lam, mu)
    depth = dd.case(cfg.lam, cfg.mu)
    if depth > 1 and mu is None:
        raise _UsageError("--mu required when |lambda| < 1")
    spec = dd.extremal_spec(cfg, depth, theta)
    jet = dd.eval_extremal(spec)
    # the disk in the reduced frame, where the case was decided, rotated back
    disk = dd.disk_order3_params(complex(cfg.r), complex(cfg.s), cfg.lam, cfg.mu)
    w3 = 6.0 * jet.a3
    check = abs(abs(w3 - disk.center / cfg.rotation(3)) - disk.radius)
    payload = {
        "depth": depth,
        "theta": theta,
        "u0": fmt_complex(spec.links[0]),
        "v0": fmt_complex(spec.links[1]),
        "tau": fmt_complex(spec.links[2]) if depth == 2 else None,
        "eta_ext": fmt_complex(spec.links[2]) if depth == 3 else None,
        "w0": fmt_complex(jet.a0),
        "w1": fmt_complex(jet.a1),
        "w2": fmt_complex(2.0 * jet.a2),
        "w3": fmt_complex(w3),
        "boundary_angle_check": check,
    }
    _emit(_json(payload), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    cap = VERIFY_MAX_GRID if args.suite == "regime2" else VERIFY_MAX_SAMPLES
    if not 1 <= args.n <= cap:
        raise _UsageError(f"need 1 <= --n <= {cap} for --suite {args.suite}")
    if args.seed < 0:
        raise _UsageError("need --seed >= 0")
    from . import verify
    report = verify.run_suite(args.suite, args.n, args.seed)
    _emit(report.to_json() + "\n", args.out)
    return EXIT_VERIFY if report.violations else EXIT_OK


# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="diskjet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("disk", help="variability disk of f', f'' or f'''")
    d.add_argument("--order", type=int, choices=(1, 2, 3), required=True)
    d.add_argument("--z0", required=True)
    d.add_argument("--w0", required=True)
    d.add_argument("--w1")
    d.add_argument("--w2")
    d.add_argument("--beta")
    d.add_argument("--lambda", dest="lam")
    d.add_argument("--mu")
    d.add_argument("--out")
    d.set_defaults(func=_cmd_disk)

    b = sub.add_parser("boundary", help="boundary curve of the f''' region")
    b.add_argument("--z0", required=True)
    b.add_argument("--w0", required=True)
    b.add_argument("--w1", required=True)
    b.add_argument("--n", type=int, default=360,
                   help=f"base samples, 16 to {BOUNDARY_MAX_N} (default 360)")
    b.add_argument("--format", choices=("csv", "svg", "json"), default="csv")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_boundary)

    e = sub.add_parser("extremal", help="boundary-attaining nested-Moebius map")
    e.add_argument("--z0", required=True)
    e.add_argument("--w0", required=True)
    e.add_argument("--lambda", dest="lam", required=True)
    e.add_argument("--mu")
    e.add_argument("--theta", type=float, default=0.0)
    e.add_argument("--out")
    e.set_defaults(func=_cmd_extremal)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", choices=("membership", "fd", "regime2", "extremal", "all"),
                   default="all", help="audit to run; all = membership, fd and regime2")
    v.add_argument("--n", type=int, default=1000,
                   help=f"samples, 1 to {VERIFY_MAX_SAMPLES} (membership/fd/all), grid size, "
                        f"1 to {VERIFY_MAX_SAMPLES} (extremal), or per-axis grid density, "
                        f"1 to {VERIFY_MAX_GRID} (regime2); default 1000")
    v.add_argument("--seed", type=int, default=1, help="sample seed, >= 0 (default 1)")
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleConstraintError, DomainError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
