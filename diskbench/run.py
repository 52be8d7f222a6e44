"""The diskjet benchmark.

Run from the root of a source checkout (the package is taken from
``./src``, never from an installed copy)::

    python3 diskbench/run.py --workload region --seed 7 --seconds 20 --trace 0

Workloads (see each module's docstring for what it stresses):

* ``cli-cold`` - CLI queries, each in a fresh interpreter (cli_cold.py);
* ``audit``    - passes of the Monte-Carlo and grid audits (audit.py);
* ``region``   - trace and containment of the f''' region (region.py).

With ``--trace 0`` the run measures the workload untraced and prints its
end-to-end metrics; with ``--trace 1`` it replays the workload as traced
public calls, adds a fixed traced sample of every other layer, and prints
the per-layer metrics.  Every output is checked.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
environment stamp and the input-property shares, goes to
``.bench_results/`` together with the recorded spans.

The bounded latency and throughput metrics (``*_norm_*``) are scaled to a
reference machine speed by calibration work timed around every operation
(see ``harness.Window``); the raw values are printed and saved beside
them.  ``setup_s`` and ``peak_rss_mb`` are raw.  An operation fails when
its output breaks a guarantee the program documents, and a run is
``correct`` when none failed.  Wrong answers the program does not promise
to avoid, such as ``contains`` accepting a point just outside the region,
are counted apart (``contains_wrong_share``, ``boundary.contains_wrong_frac``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys

from harness import Checkout, Tally, Tracer, Window, median, peak_rss_mb, tail, vmhwm_mb

WORKLOADS = {"cli-cold": "cli_cold", "audit": "audit", "region": "region"}
#: fresh interpreters timed per run for ``setup_s``, spread over the window
SETUP_REPEATS = 7
#: size of the traced sample taken of a workload other than the one run
PROBE_OPS = {"audit": 1, "region": 2}
RESULTS_DIR = ".bench_results"

# per-layer metric: (span name, scale) for the median duration of that span
SPAN_MEDIANS = {
    "import.diskjet_ms": ("import.diskjet", 1e3),
    "import.numpy_ms": ("import.numpy", 1e3),
    "import.scipy_ms": ("import.scipy", 1e3),
    "cli.disk_ms": ("cli.disk", 1e3),
    "cli.extremal_ms": ("cli.extremal", 1e3),
    "cli.boundary_ms": ("cli.boundary", 1e3),
    "verify.membership_s": ("verify.membership", 1.0),
    "verify.fd_s": ("verify.fd", 1.0),
    "verify.regime2_s": ("verify.regime2_search", 1.0),
    "verify.extremal_s": ("verify.extremal", 1.0),
    "verify.rng_init_us": ("verify.rng_init", 1e6),
    "verify.sample_self_map_us": ("verify.sample_self_map", 1e6),
    "verify.fd_jet_us": ("verify.fd_jet", 1e6),
    "jets.blaschke_jet_us": ("jets.blaschke_jet", 1e6),
    "jets.jet_mul_us": ("jets.jet_mul", 1e6),
    "jets.blaschke_value_us": ("jets.blaschke_value", 1e6),
    "jets.moebius_jet_us": ("jets.moebius_jet", 1e6),
    "dieudonne.lambda_from_w1_us": ("dieudonne.lambda_from_w1", 1e6),
    "dieudonne.mu_from_w2_us": ("dieudonne.mu_from_w2", 1e6),
    "dieudonne.disk_order3_params_us": ("dieudonne.disk_order3_params", 1e6),
    "dieudonne.extremal_eval_us": ("dieudonne.eval_extremal", 1e6),
    "envelope.support_point_us": ("envelope.support_point", 1e6),
    "boundary.region_spec_us": ("boundary.region_spec", 1e6),
    "boundary.sample_boundary_ms": ("boundary.sample_boundary", 1e3),
    "boundary.contains_inside_ms": ("boundary.contains_inside", 1e3),
    "boundary.contains_outside_ms": ("boundary.contains_outside", 1e3),
}

UNITS = {"_ms": "ms", "_s": "s", "_us": "us", "_frac": "ratio", ".calls": "count",
         ".points_per_trace": "count", ".coverage": "ratio"}


def _unit(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 600 or args.seed < 0:
        p.error("need 0 < --seconds <= 600 and --seed >= 0")
    return args


def _setup_once(checkout, warmup: str) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import diskjet and run one warm-up
    operation, and that interpreter's peak RSS in MB.  Also proves that the
    import resolves to the checkout."""
    report = "\nprint(diskjet.__file__)\nprint(open('/proc/self/status').read())\n"
    dt, code, out, err = checkout.child(["-c", warmup + report])
    path, _, status = out.partition("\n")
    if code != 0 or os.path.realpath(path) != checkout.package:
        raise RuntimeError(f"setup interpreter failed (exit {code}): {path} {err.strip()}")
    return dt, vmhwm_mb(status)


def _git_commit(root: str):
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != root:
        return None
    return lines[1]


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(checkout, seed: int) -> dict:
    import diskjet
    return {"backend": diskjet.BACKEND, "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "git_commit": _git_commit(checkout.root),
            "source_sha256": _source_digest(checkout.src)}


def untraced(args, checkout, mod, tally) -> dict:
    setup = []

    def set_up():
        setup.append(_setup_once(checkout, mod.SETUP_WARMUP))

    win = Window(args.seconds, interleave=[set_up] * SETUP_REPEATS, calibrate=True)
    res = mod.measure(checkout, args.seed, win, tally)
    if not res["ops"]:
        raise RuntimeError("no operation completed")
    raw_ms = [1e3 * dt for _, dt, _, _ in res["ops"]]
    norm_ms = [1e3 * dt * win.speed(k) for k, dt, _, _ in res["ops"]]
    raw_rate = median(work / busy for _, _, work, busy in res["ops"])
    norm_rate = median(work / (busy * win.speed(k)) for k, _, work, busy in res["ops"])
    raw_tail, norm_tail = tail(raw_ms), tail(norm_ms)
    # a cli-cold query runs in a child like the set-up interpreters do
    rss_mb = max(rss for _, rss in setup) if args.workload == "cli-cold" else peak_rss_mb()
    metrics = {
        "setup_s": (median(dt for dt, _ in setup), "s"),
        "latency_p50_norm_ms": (median(norm_ms), "ms"),
        "latency_tail_norm_ms": (norm_tail["value"], "ms"),
        "throughput_norm_per_s": (norm_rate, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    op, rate, rate_unit = res["names"]
    named = {
        f"{op}_p50_ms": (median(raw_ms), "ms"),
        f"{op}_tail_ms": (raw_tail["value"], "ms"),
        rate: (raw_rate, rate_unit),
        f"{op}_p50_norm_ms": metrics["latency_p50_norm_ms"],
        f"{op}_tail_norm_ms": metrics["latency_tail_norm_ms"],
        f"{rate[:-len('_per_s')]}_norm_per_s": (norm_rate, rate_unit),
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": (tally.failed / max(tally.attempted, 1), "ratio"),
        "calibration_ms": (1e3 * median(win.calibration_s), "ms"),
    }
    return {"metrics": metrics, "named": named, "tail": raw_tail,
            "setup_runs_s": [dt for dt, _ in setup],
            "properties": res["properties"]}


def traced(args, checkout, mods, tally) -> dict:
    tracer = Tracer()
    replays = {args.workload: mods[args.workload].replay(
        checkout, args.seed, tracer, tally, seconds=args.seconds)}
    for name, n in PROBE_OPS.items():
        if name != args.workload:
            replays[name] = mods[name].replay(checkout, args.seed, tracer, tally, max_ops=n)
    mods["cli-cold"].probe(checkout, args.seed, tracer, tally)

    ops = replays[args.workload]["ops"]
    if not ops:
        raise RuntimeError("no operation completed")
    overhead_ms = [1e3 * (tracer.duration(root) - u) for root, u in ops]
    spans, coverage = tracer.summary(root for root, _ in ops)
    audit, region = replays["audit"]["properties"], replays["region"]["properties"]
    values = {name: spans[span][1] * scale
              for name, (span, scale) in SPAN_MEDIANS.items()}

    def calls(layer):
        return sum(count for n, (count, _) in spans.items() if n.startswith(layer + "."))

    values.update({
        "verify.anomaly_frac": audit["anomaly_share"],
        "jets.calls": calls("jets"),
        "dieudonne.case1_frac": audit["case1_share"],
        "dieudonne.case2_frac": audit["case2_share"],
        "envelope.root_solve_frac": region["root_solve_share"],
        "envelope.calls": calls("envelope"),
        "boundary.points_per_trace": region["points_per_trace"],
        "boundary.contains_wrong_frac": region["contains_wrong_share"],
        "trace.coverage": coverage,
        "trace.overhead_ms": median(overhead_ms),
    })
    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans_file = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-spans.npz")
    tracer.save(spans_file)
    return {"metrics": {k: (v, _unit(k)) for k, v in values.items()},
            "properties": {k: v["properties"] for k, v in replays.items()},
            "trace": {"spans": len(tracer.start), "spans_file": spans_file,
                      "ops": len(ops),
                      "traced_s": sum(tracer.duration(root) for root, _ in ops),
                      "untraced_s": sum(u for _, u in ops)}}


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    checkout = Checkout(os.getcwd())
    if not os.path.isfile(checkout.package):
        print(f"diskbench: no diskjet source at {checkout.package}; "
              "run from the root of a diskjet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, checkout.src)
    import diskjet
    if os.path.realpath(diskjet.__file__) != checkout.package:
        print(f"diskbench: imported {diskjet.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    mods = {name: importlib.import_module(mod) for name, mod in WORKLOADS.items()}

    tally = Tally()
    if args.trace:
        doc = traced(args, checkout, mods, tally)
    else:
        doc = untraced(args, checkout, mods[args.workload], tally)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": environment(checkout, args.seed),
           "correct": tally.failed == 0, "attempted": tally.attempted,
           "failed": tally.failed, "failure_examples": tally.examples, **doc}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({**doc, "metrics": _as_json(doc["metrics"]),
                   "named": _as_json(doc.get("named", {}))}, fh, indent=2)

    print(f"diskbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(doc["env"]))
    for name, (value, unit) in (doc.get("named") or doc["metrics"]).items():
        print(f"  {name:32s} {value:.6g} {unit}")
    if "tail" in doc:
        t = doc["tail"]
        print(f"  tail = p{t['percentile']:.1f} of {t['samples']} samples, {t['beyond']} beyond")
    if "trace" in doc:
        print("trace " + json.dumps(doc["trace"]))
    print("properties " + json.dumps(doc["properties"]))
    print(f"attempted={tally.attempted} failed={tally.failed}")
    for line in tally.examples:
        print("  failure: " + line)
    print(f"results {out}")
    print(json.dumps({"correct": doc["correct"], "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": _as_json(doc["metrics"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
