"""cli-cold workload: seeded ``diskjet`` CLI queries, each in a fresh interpreter.

Closed loop with one client: the next query starts when the previous child
has exited, and a query is timed from spawn to exit.  The import of numpy
and scipy is therefore on every query's critical path, while the compute
in each query is negligible.

Every query is checked against ``diskjet.cli.main`` run in-process on the
same arguments: the exit code must be 0 for admissible data and 2 for
infeasible data (|w0| >= |z0|), and the JSON must agree value for value,
which at the CLI's 17 significant digits is exact.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from collections import Counter
from time import perf_counter

from diskjet import cli

from harness import Window, parse_importtime

#: query shapes: subcommand, order and which parameter form is used
KINDS = ("disk1", "disk2-w1", "disk2-beta", "disk3-w1w2", "disk3-lambda-mu",
         "extremal", "boundary")
INFEASIBLE_SHARE = 1.0 / 8.0

SETUP_WARMUP = """
import contextlib, io, diskjet.cli
with contextlib.redirect_stdout(io.StringIO()):
    diskjet.cli.main(["disk", "--order", "1", "--z0", "0.5", "--w0", "0.25"])
"""


def _cplx(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _disk_point(rng: random.Random, cap: float = 0.95) -> complex:
    """Radius^2 uniform, so the point is uniform over the disk of radius cap."""
    return cap * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def make_query(rng: random.Random, kind: str, infeasible: bool) -> list[str]:
    """CLI arguments for one query; w1 and w2 are built from drawn (lambda, mu)."""
    r = rng.uniform(0.1, 0.9)
    z0 = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    s = r * (rng.uniform(1.01, 1.5) if infeasible else rng.uniform(0.0, 0.95))
    w0 = s * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    lam, mu = _disk_point(rng), _disk_point(rng)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    gap = r * r - s * s
    w1 = w0 / z0 + gap / (z0 * (1.0 - r * r)) * lam
    w2 = 2.0 * gap / (z0 * z0 * (1.0 - r * r) ** 2) * (
        mu * z0 * (1.0 - abs(lam) ** 2) + lam * (1.0 - w0.conjugate() * lam))
    # "--flag=value": argparse would read a leading "-" of a value as a flag
    base = [f"--z0={_cplx(z0)}", f"--w0={_cplx(w0)}"]
    if kind == "disk1":
        return ["disk", "--order", "1", *base]
    if kind == "disk2-w1":
        return ["disk", "--order", "2", *base, f"--w1={_cplx(w1)}"]
    if kind == "disk2-beta":
        return ["disk", "--order", "2", *base, f"--beta={_cplx(lam)}"]
    if kind == "disk3-w1w2":
        return ["disk", "--order", "3", *base, f"--w1={_cplx(w1)}", f"--w2={_cplx(w2)}"]
    if kind == "disk3-lambda-mu":
        return ["disk", "--order", "3", *base, f"--lambda={_cplx(lam)}", f"--mu={_cplx(mu)}"]
    if kind == "extremal":
        return ["extremal", *base, f"--lambda={_cplx(lam)}", f"--mu={_cplx(mu)}",
                f"--theta={theta:.17g}"]
    if kind == "boundary":
        return ["boundary", *base, f"--w1={_cplx(w1)}", "--n=360", "--format=json"]
    raise ValueError(f"unknown query kind {kind!r}")


def query_stream(seed: int):
    rng = random.Random(seed)
    while True:
        kind = rng.choice(KINDS)
        infeasible = rng.random() < INFEASIBLE_SHARE
        yield kind, infeasible, make_query(rng, kind, infeasible)


def in_process(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of ``diskjet.cli.main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _same_output(ref: tuple[int, str], code: int, out: str) -> bool:
    if code != ref[0]:
        return False
    if code != 0:
        return out == ref[1]
    return json.loads(out) == json.loads(ref[1])


def _check(tally, argv, infeasible, ref, children) -> None:
    want = 2 if infeasible else 0
    what = " ".join(argv)
    if ref[0] != want:
        tally.op(False, f"in-process exit {ref[0]}, expected {want}: {what}")
    elif any(not _same_output(ref, code, out) for code, out in children):
        got = [code for code, _ in children]
        tally.op(False, f"child exit {got} or output differs from in-process: {what}")
    else:
        tally.op(True)


def _mix(kinds: Counter, infeasible_n: int) -> dict:
    n = sum(kinds.values())
    return {"queries": n, "infeasible_share": infeasible_n / n,
            "kinds": dict(sorted(kinds.items()))}


def measure(checkout, seed: int, win, tally) -> dict:
    """Untraced run: one cold child per query; per query (index, seconds, 1, seconds)."""
    ops, kinds, infeasible_n = [], Counter(), 0
    stream = query_stream(seed)
    for k in win:
        kind, infeasible, argv = next(stream)
        kinds[kind] += 1
        infeasible_n += infeasible
        try:
            ref = in_process(argv)
            dt, code, out, _err = checkout.child(["-m", "diskjet.cli", *argv])
        except Exception as exc:  # one broken query must not end the run
            tally.crash(" ".join(argv), exc)
            continue
        ops.append((k, dt, 1, dt))
        _check(tally, argv, infeasible, ref, [(code, out)])
    return {"ops": ops, "names": ("cli_query", "cli_queries_per_s", "queries/s"),
            "properties": _mix(kinds, infeasible_n)}


def _import_spans(tracer, t0: float, stderr: str) -> bool:
    """Spans of the child's ``diskjet`` import, rebuilt from its importtime report."""
    cost = parse_importtime(stderr)
    if cost["diskjet"] is None:
        return False
    top = tracer.record("import.diskjet", t0, t0 + cost["diskjet"])
    tracer.record("import.numpy", t0, t0 + cost["numpy"], parent=top)
    t1 = t0 + cost["numpy"]
    tracer.record("import.scipy", t1, t1 + cost["scipy"], parent=top)
    return True


def _cli_span(argv: list[str], infeasible: bool) -> str:
    return "cli.rejected" if infeasible else f"cli.{argv[0]}"


def replay(checkout, seed: int, tracer, tally, seconds: float | None = None) -> dict:
    """Traced run.  Each query runs once untraced (a plain cold child) and
    once traced: a child under ``-X importtime``, whose import tree becomes
    ``import.*`` spans, then ``cli.main`` in-process as a ``cli.*`` span."""
    ops, kinds, infeasible_n = [], Counter(), 0
    stream = query_stream(seed)
    for _ in Window(seconds):
        kind, infeasible, argv = next(stream)
        kinds[kind] += 1
        infeasible_n += infeasible
        try:
            untraced, code, out, _err = checkout.child(["-m", "diskjet.cli", *argv])
            with tracer.span("bench.cli_query") as root:
                t0 = perf_counter()
                _dt, code2, out2, err2 = checkout.child(
                    ["-X", "importtime", "-m", "diskjet.cli", *argv])
                imported = _import_spans(tracer, t0, err2)
                ref = tracer.call(_cli_span(argv, infeasible), in_process, argv)
        except Exception as exc:  # one broken query must not end the run
            tally.crash(" ".join(argv), exc)
            continue
        ops.append((root, untraced))
        if not imported:
            tally.op(False, f"no diskjet import in the importtime report: {' '.join(argv)}")
        _check(tally, argv, infeasible, ref, [(code, out), (code2, out2)])
    return {"ops": ops, "properties": _mix(kinds, infeasible_n)}


def probe(checkout, seed: int, tracer, tally) -> None:
    """Fixed traced sample of the cli and import layers: one admissible query
    of every kind in-process, and two cold imports under ``-X importtime``."""
    rng = random.Random(f"cli-probe:{seed}")
    with tracer.span("bench.probe_cli"):
        for kind in KINDS:
            argv = make_query(rng, kind, False)
            try:
                code, out = tracer.call(_cli_span(argv, False), in_process, argv)
                ok = code == 0 and isinstance(json.loads(out), dict)
            except Exception as exc:  # one broken query must not end the run
                tally.crash(" ".join(argv), exc)
                continue
            tally.op(ok, f"probe: {' '.join(argv)}")
    with tracer.span("bench.probe_import"):
        for _ in range(2):
            t0 = perf_counter()
            _dt, code, _out, err = checkout.child(["-X", "importtime", "-c", "import diskjet"])
            tally.op(code == 0 and _import_spans(tracer, t0, err), "probe: import diskjet")
