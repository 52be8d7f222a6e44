"""Shared pieces of the diskjet benchmark: span tracer, statistics, child
processes and the per-run tally of checked operations.

A span records one call from the benchmark into a public ``diskjet``
function: its name (``<layer>.<function>``), start, end and parent span.
Spans whose name starts with ``bench.`` are the benchmark's own glue (one
root span per timed operation); every other prefix names a layer.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import traceback
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("import", "cli", "verify", "jets", "dieudonne", "envelope", "boundary")

#: wall-clock cap on one child interpreter; a run must end within minutes
CHILD_TIMEOUT_S = 60.0


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []

    def _new(self, name: str, parent: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.start.append(0.0)
        self.end.append(0.0)
        return len(self.start) - 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        sid = self._new(name, self._open[-1] if self._open else -1)
        self._open.append(sid)
        self.start[sid] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = perf_counter()
            self._open.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._new(name, self._open[-1] if self._open else -1)
        self._open.append(sid)
        self.start[sid] = perf_counter()
        try:
            yield sid
        finally:
            self.end[sid] = perf_counter()
            self._open.pop()

    def record(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Add a finished span reconstructed from a child process's report."""
        if parent is None:
            parent = self._open[-1] if self._open else -1
        sid = self._new(name, parent)
        self.start[sid] = start
        self.end[sid] = end
        return sid

    def duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]

    def summary(self, root_ids) -> tuple[dict, float]:
        """(count, median duration) per span name, and the coverage of the
        given root spans: summed self time of the layer spans below them
        over their wall time.  A span's self time is its duration minus the
        durations of its direct children, which never overlap in one thread."""
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                      minlength=len(dur))
        root = np.arange(len(dur), dtype=np.int32)
        while True:
            up = parent[root]
            climb = up >= 0
            if not climb.any():
                break
            root[climb] = up[climb]
        roots = np.asarray(list(root_ids), dtype=np.int32)
        layer_ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] in LAYERS]
        layered = np.isin(root, roots) & np.isin(names, layer_ids)
        coverage = float(self_time[layered].sum() / dur[roots].sum())
        stats = {}
        for i, n in enumerate(self.names):
            d = dur[names == i]
            stats[n] = (len(d), float(np.median(d)))
        return stats, coverage

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


#: size of the calibration work, and the time it is scaled to take
CALIBRATION_DRAWS = 300
CALIBRATION_READS = 20000
CALIBRATION_S = 0.015


class Window:
    """Operation indices until ``seconds`` of operation time pass or
    ``max_ops`` operations are done; always at least one.

    The ``interleave`` tasks run spread evenly over the window, so they see
    the same machine conditions as the operations.  With ``calibrate`` a
    fixed piece of calibration work is timed before every operation and
    after the last one, and ``speed(k)`` scales operation k's time to a
    machine on which that work takes CALIBRATION_S.  On a shared machine
    whose speed drifts by a factor of two within a minute, scaled times
    repeat from run to run far better than raw ones.  Neither the tasks
    nor the calibration take time from the window.
    """

    def __init__(self, seconds: float | None = None, max_ops: int | None = None,
                 interleave=(), calibrate: bool = False):
        self.seconds = seconds
        self.max_ops = max_ops
        self.interleave = list(interleave)
        self.calibrate = calibrate
        self.calibration_s: list[float] = []
        self._table: list[int] = []
        if calibrate:
            self._table = list(range(1 << 19))
            random.Random(0).shuffle(self._table)
            self._calibration_time()  # the first use of numpy's Generator is slower

    def __iter__(self):
        tasks, done, busy, k = self.interleave, 0, 0.0, 0
        while True:
            while done < len(tasks) and (self.seconds is None
                                         or busy >= done * self.seconds / len(tasks)):
                tasks[done]()
                done += 1
            if self.calibrate:
                self.calibration_s.append(self._calibration_time())
            if k and ((self.max_ops is not None and k >= self.max_ops)
                      or (self.seconds is not None and busy >= self.seconds)):
                return
            t0 = perf_counter()
            yield k
            busy += perf_counter() - t0
            k += 1

    def _calibration_time(self) -> float:
        """Seconds taken by fixed work shaped like the program's hot paths but
        independent of it: numpy Generator set-up and small draws, complex
        arithmetic, and scattered reads from a table of half a million ints."""
        t0 = perf_counter()
        acc = 0j
        for i in range(CALIBRATION_DRAWS):
            rng = np.random.default_rng((7, i))
            draws = np.sqrt(rng.uniform(0.0, 1.0, 3)) * np.exp(1j * rng.uniform(0.0, 6.0, 3))
            for z in tuple(draws):
                acc += z / (1.0 - 0.5 * z.conjugate())
        table, total, seen = self._table, 0, {}
        for j in range(CALIBRATION_READS):
            total += table[(j * 7919) % len(table)]
            seen[total & 1023] = total
        return perf_counter() - t0

    def speed(self, k: int) -> float:
        return 2.0 * CALIBRATION_S / (self.calibration_s[k] + self.calibration_s[k + 1])


def vmhwm_mb(status: str) -> float:
    """Peak resident set in MB from the text of ``/proc/<pid>/status``.

    This counts only memory used since the process's exec; ``getrusage``
    would also count what the process that spawned it held until then."""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in the process status")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        return vmhwm_mb(fh.read())


def median(values) -> float:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail(values) -> dict:
    """Highest percentile with at least ten samples beyond it.

    With n > 10 sorted samples that is the 11th largest, the
    100 (n - 10) / n percentile; with fewer, the maximum (none beyond).
    """
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return {"value": xs[n - 11], "percentile": 100.0 * (n - 10) / n,
                "samples": n, "beyond": 10}
    return {"value": xs[-1], "percentile": 100.0 * (n - 1) / n if n else 0.0,
            "samples": n, "beyond": 0}


class Tally:
    """Attempted and failed operations of one run.

    A failure is an output that breaks a guarantee the program documents,
    or an operation that raised; any failure makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 20:
                self.examples.append(what)
        return ok

    def crash(self, what: str, exc: BaseException) -> None:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        self.op(False, f"{what}: {type(exc).__name__}: {exc} "
                       f"at {os.path.basename(where.filename)}:{where.lineno}")


class Checkout:
    """The source tree under test: ``src/diskjet`` below the working directory."""

    def __init__(self, root: str):
        self.root = os.path.realpath(root)
        self.src = os.path.join(self.root, "src")
        self.package = os.path.join(self.src, "diskjet", "__init__.py")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, env.get("PYTHONPATH", "")) if p)
        self.env = env

    def child(self, args, timeout: float = CHILD_TIMEOUT_S):
        """Run ``python3 <args>`` on the checkout's source; (seconds, code, out, err)."""
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=self.env, cwd=self.root,
                              text=True) as proc:
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        return perf_counter() - t0, proc.returncode, out, err


def parse_importtime(stderr: str) -> dict:
    """Import costs in seconds from ``python -X importtime`` output.

    ``diskjet`` is the cumulative time of the package import; ``numpy`` and
    ``scipy`` sum the self time of every module of that distribution, so
    they partition rather than double count nested imports.
    """
    out = {"diskjet": None, "numpy": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cum_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        top = name.split(".", 1)[0]
        if name == "diskjet":
            out["diskjet"] = cum_us * 1e-6
        elif top in ("numpy", "scipy"):
            out[top] += self_us * 1e-6
    return out
