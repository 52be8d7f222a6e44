"""Verification suites: determinism, serialization, oracle quality."""

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest

from diskjet import InfeasibleConstraintError, InterpolationData, Jet3, NormalizedConfig, \
    VerificationReport, blaschke_jet, blaschke_value, disk_order3, disk_order3_params, \
    eval_extremal, extremal_spec, fd_audit, fd_jet, membership_audit, moebius_jet, moebius_value, \
    regime2_search, sample_self_map
from diskjet import stream, verify
from diskjet.carray import CArray
from diskjet.cli import VERIFY_MAX_SAMPLES
from diskjet.stream import pcg64_block
from diskjet.verify import (_Block, _base_points, _draw, _draw_block, _fd_block,
                            _fd_draw, _fd_draw_block, _fd_jets, _sub_rng, merge_reports,
                            run_suite, sample_base_point)


def test_report_serialization_keys():
    rep = VerificationReport(suite="x", samples=3, violations=1, anomalies=2,
                             max_violation=0.5, seed=9, elapsed_ms=1.25)
    d = rep.to_dict()
    assert set(d) == {"samples", "violations", "anomalies", "max_violation",
                      "seed", "elapsed_ms"}
    assert isinstance(d["max_violation"], float)
    assert isinstance(d["elapsed_ms"], float)
    back = json.loads(rep.to_json())
    assert back == d


def test_merge_reports():
    a = VerificationReport(suite="a", samples=10, violations=1, anomalies=0,
                           max_violation=0.2, seed=1, elapsed_ms=5.0)
    b = VerificationReport(suite="b", samples=20, violations=0, anomalies=3,
                           max_violation=0.7, seed=1, elapsed_ms=2.0,
                           worst_case={"k": 1})
    m = merge_reports([a, b])
    assert m.samples == 30 and m.violations == 1 and m.anomalies == 3
    assert m.max_violation == 0.7 and m.worst_case == {"k": 1}
    assert m.elapsed_ms == 7.0


def test_empty_report():
    rep = membership_audit(0, seed=1)
    assert rep.samples == 0 and rep.violations == 0 and rep.max_violation == 0.0


def test_sampling_helpers():
    gen = np.random.default_rng(0)
    for _ in range(20):
        spec = sample_self_map(gen, 6, min_degree=1)
        assert 1 <= spec.degree <= 6
        assert all(abs(z) < 0.95 for z in spec.zeros)
        z0 = sample_base_point(gen)
        assert isinstance(z0, complex)
        assert 0.1 <= abs(z0) <= 0.9
    with pytest.raises(ValueError):
        sample_self_map(gen, -1)


def test_fd_jet_exact_on_cubic():
    jet = fd_jet(lambda z: 1.0 + 2.0 * z + 3.0 * z * z + 4.0 * z ** 3, 0.2 + 0.1j,
                 radius=0.1)
    p = np.polynomial.Polynomial([1.0, 2.0, 3.0, 4.0])
    want = Jet3(*(complex(p.deriv(k)(0.2 + 0.1j)) / math.factorial(k)
                  for k in range(4)))
    for k in range(4):
        assert abs(jet[k] - want[k]) < 1e-12 * (1.0 + abs(want[k]))


def test_membership_audit_clean_and_deterministic():
    r1 = membership_audit(300, seed=5)
    r2 = membership_audit(300, seed=5)
    assert r1.violations == 0
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
    assert d1 == d2                      # bitwise-deterministic per seed
    assert r1.worst_case == r2.worst_case
    assert r1.samples == 300


def test_fd_audit_precision():
    rep = fd_audit(100, seed=2)
    assert rep.max_violation < 1e-8
    assert rep.violations == 0


def test_regime2_search_empty():
    rep = regime2_search(grid_density=12, seed=0)
    assert rep.violations == 0
    assert rep.samples == 12 ** 3
    assert rep.max_violation < 0.0 or rep.max_violation == 0.0


def test_run_suite_dispatch():
    rep = run_suite("membership", 50, 3)
    assert rep.suite == "membership" and rep.samples == 50
    rep = run_suite("extremal", 120, 3)
    assert rep.suite == "extremal" and rep.samples == 108 and rep.violations == 0
    assert run_suite("extremal", 1, 3).samples == 54
    rep = run_suite("all", 50, 3)
    assert rep.samples > 50
    with pytest.raises(ValueError):
        run_suite("bogus", 10, 1)


# --------------------------------------------------------------------------
# reference oracles: the per-quantity numpy sampling stream, the scalar fd
# stencil and the per-(r, s) regime-2 loop

def _ref_self_map(rng, max_degree, min_degree=0):
    degree = int(rng.integers(min_degree, max_degree + 1))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    radii = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, degree))
    angles = rng.uniform(0.0, 2.0 * math.pi, degree)
    return phase, tuple(complex(z) for z in radii * np.exp(1j * angles))


def _ref_base_point(rng, lo=0.1, hi=0.9):
    return complex(float(rng.uniform(lo, hi)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _ref_moebius_param(rng):
    return complex(0.5 * (rng.uniform() * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))))


def test_sampling_stream_pinned():
    # the determinism contract: per (seed, index) the same draws, bit for bit,
    # as per-quantity numpy uniform calls, with the same stream consumed
    degrees = set()
    for seed in range(5):
        for index in range(1000):
            min_degree = index % 2
            ref, rng = _sub_rng(seed, index), _sub_rng(seed, index)
            want = _ref_self_map(ref, 6, min_degree), _ref_base_point(ref)
            spec = sample_self_map(rng, 6, min_degree=min_degree)
            got = (spec.phase, spec.zeros), sample_base_point(rng)
            assert repr(got) == repr(want), (seed, index)
            assert rng.random() == ref.random()
            degrees.add(spec.degree)

            ref = _sub_rng(seed, index)
            want = (_ref_self_map(ref, 4, 1), _ref_moebius_param(ref),
                    _ref_base_point(ref, 0.1, 0.5))
            spec, a, z0 = _fd_draw(seed, index)
            assert repr(((spec.phase, spec.zeros), a, z0)) == repr(want), (seed, index)
    assert degrees == set(range(7))


#: a seed of four 32-bit words: with the index word, SeedSequence's entropy
#: overflows its pool of four and runs the loop that mixes in the rest
FOUR_WORD_SEED = 2 ** 96 + 3 * 2 ** 64 + 5 * 2 ** 32 + 7


def _membership_draw(seed, index):
    rng = _sub_rng(seed, index)
    return sample_self_map(rng, 6, min_degree=1), sample_base_point(rng)


def _complex(c, i):
    return complex(c.re[i], c.im[i])


def _carray(values):
    c = np.array(values, dtype=complex)
    return CArray(c.real.copy(), c.imag.copy())


def _arrays(draws):
    """(_Block, a, z0) of scalar (B, a, z0) draws, as _fd_draw_block gives them."""
    specs, a, z0 = zip(*draws)
    degree = np.array([b.degree for b in specs])
    zeros = [_carray([b.zeros[j] if j < b.degree else 0j for b in specs])
             for j in range(degree.max())]
    unit = _carray([cmath.exp(1j * b.phase) for b in specs])
    return _Block(degree, unit, zeros, None), _carray(a), _carray(z0)


def _jet_rows(jet):
    """Rows of four CArrays as tuples of complex numbers."""
    return [tuple(_complex(c, i) for c in jet) for i in range(len(jet[0].re))]


def _block_rows(block):
    """(degree, exp(i phase), zeros, tail) of each row of a _Block."""
    return [(d, _complex(block.unit, i),
             tuple(_complex(z, i) for z in block.zeros[:d]),
             [] if block.tail is None else block.tail[i].tolist())
            for i, d in enumerate(block.degree.tolist())]


def _scalar_rows(draws):
    """_block_rows of scalar (B, tail) draws."""
    return [(b.degree, cmath.exp(1j * b.phase), b.zeros, tail) for b, tail in draws]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 5, FOUR_WORD_SEED])
def test_block_stream_matches_default_rng(seed):
    # the block stream is numpy's stream, up to the last index verify --n allows
    for start, stop in ((0, 130), (1000, 1128), (VERIFY_MAX_SAMPLES - 128, VERIFY_MAX_SAMPLES)):
        raw = pcg64_block(seed, start, stop, 16)
        assert raw.shape == (stop - start, 16) and raw.dtype == np.uint64
        want = [np.random.default_rng((seed, i)).bit_generator.random_raw(16).tolist()
                for i in range(start, stop)]
        assert raw.tolist() == want, (seed, start)
        block = _draw_block(seed, start, stop, 6, 2)
        draws = [_membership_draw(seed, i) for i in range(start, stop)]
        assert repr(_block_rows(block._replace(tail=None))) == \
            repr(_scalar_rows((b, []) for b, _ in draws)), (seed, start)
        z0 = _base_points(block.tail[:, 0], block.tail[:, 1])
        assert repr([_complex(z0, i) for i in range(stop - start)]) == \
            repr([z for _, z in draws]), (seed, start)
        block, a, z0 = _fd_draw_block(seed, start, stop)
        draws = [_fd_draw(seed, i) for i in range(start, stop)]
        assert repr(_block_rows(block._replace(tail=None))) == \
            repr(_scalar_rows((b, []) for b, _, _ in draws)), (seed, start)
        assert repr([(_complex(a, i), _complex(z0, i)) for i in range(stop - start)]) == \
            repr([(a, z0) for _, a, z0 in draws]), (seed, start)


@pytest.mark.parametrize("seed", [5, 2 ** 40 + 5, 2 ** 70 + 9])  # one, two and three words
@pytest.mark.parametrize("k", [1, 17])
def test_pcg64_block_rows_match_pcg64(seed, k):
    # the block's buffers are written in place; every row count must come out whole
    for rows in (1, 511, 513, 1023, 1025, 2049):
        got = pcg64_block(seed, 1000, 1000 + rows, k)
        want = [np.random.PCG64(np.random.SeedSequence((seed, i))).random_raw(k).tolist()
                for i in range(1000, 1000 + rows)]
        assert got.tolist() == want, rows


def _peak_bytes(fn, *args):
    """tracemalloc's peak over one call of fn, after a warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_memory_peaks():
    # measured at BLOCK = 1024: pcg64_block (k = 17) peaks at 6.5 arrays of
    # its output's size, _fd_block at 7.7 (rows, FD_POINTS) float arrays;
    # out-of-place 128-bit products peak at 11.4, a full-circle stencil at 13.2
    rows = verify.BLOCK
    assert _peak_bytes(pcg64_block, 3, 0, rows, 17) <= 8 * rows * 17 * 8
    draws = _fd_draw_block(3, 0, rows)
    assert _peak_bytes(_fd_block, *draws) <= 9 * rows * verify.FD_POINTS * 8


def _zero_low_word(monkeypatch, row):
    """Make output 0 of one row of every pcg64_block have low word 0: below
    Lemire's threshold (2^32 - 6) % 6 = 4 for degrees 1 to 6, so
    Generator.integers draws again and the row must come from _sub_rng."""
    block = stream.pcg64_block

    def zero_low_word(seed, start, stop, k):
        raw = block(seed, start, stop, k)
        raw[row, 0] &= np.uint64(0xFFFFFFFF00000000)
        return raw

    monkeypatch.setattr(stream, "pcg64_block", zero_low_word)


def test_block_draw_lemire_rejection_takes_scalar_path(monkeypatch):
    calls = []

    def spy(seed, index):
        calls.append(index)
        return np.random.default_rng((seed, index))

    _zero_low_word(monkeypatch, 1)
    monkeypatch.setattr(verify, "_sub_rng", spy)
    got = _draw_block(3, 10, 13, 6, 2)
    assert calls == [11]
    assert repr(_block_rows(got)) == repr(_scalar_rows(_draw(3, i, 6, 2) for i in range(10, 13)))


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        pcg64_block(-1, 0, 4, 2)
    with pytest.raises(ValueError):
        membership_audit(5, seed=-1)
    with pytest.raises(ValueError):
        fd_audit(5, seed=-1)


# the per-sample loops of membership_audit and fd_audit before block sampling:
# one Generator per sample


def _membership_loop(n_samples, seed):
    report = VerificationReport(suite="membership", samples=n_samples, seed=seed)
    for i in range(n_samples):
        rng = _sub_rng(seed, i)
        spec = sample_self_map(rng, verify.MEMBERSHIP_MAX_DEGREE, min_degree=1)
        z0 = sample_base_point(rng)
        fj = Jet3.identity(z0) * blaschke_jet(spec, z0)
        w0, w1 = fj.a0, fj.a1
        w2, w3 = 2.0 * fj.a2, 6.0 * fj.a3
        try:
            disk = disk_order3(InterpolationData(z0, w0, w1, w2))
        except InfeasibleConstraintError:
            report.anomalies += 1
            continue
        excess = max(disk.excess(w3), 0.0)
        if excess > verify.MEMBERSHIP_SLACK * (1.0 + disk.radius):
            report.violations += 1
        if excess > report.max_violation:
            report.max_violation = excess
            report.worst_case = {"index": i, "z0": str(z0), "degree": spec.degree}
    return report


def _fd_loop(n_samples, seed):
    report = VerificationReport(suite="fd", samples=n_samples, seed=seed)
    for start in range(0, n_samples, verify.BLOCK):
        draws = [_fd_draw(seed, i) for i in range(start, min(start + verify.BLOCK, n_samples))]
        for i, ((spec, a, z0), num) in enumerate(zip(draws, _jet_rows(_fd_block(*_arrays(draws)))),
                                                 start):
            jet = moebius_jet(a, blaschke_jet(spec, z0))
            rel = max(abs(jet[k] - num[k]) / max(abs(jet[k]), 1e-300) for k in (1, 2, 3))
            if rel > report.max_violation:
                report.max_violation = rel
                report.worst_case = {"index": i, "z0": str(z0), "degree": spec.degree}
    return report


def _fields(rep):
    return (rep.samples, rep.violations, rep.anomalies, rep.max_violation.hex(),
            rep.worst_case)


@pytest.mark.parametrize("seed, n", [(0, 2000), (1, 2000), (2, 2000), (3, 2000),
                                     (5, 1), (5, 127), (5, 129), (5, 2001)])
def test_block_audits_match_per_sample_loops(seed, n):
    assert _fields(membership_audit(n, seed)) == _fields(_membership_loop(n, seed))
    assert _fields(fd_audit(n, seed)) == _fields(_fd_loop(n, seed))


def _fd_reference(draw):
    spec, a, z0 = draw
    return fd_jet(lambda z: moebius_value(a, blaschke_value(spec, z)), z0)


def test_fd_block_matches_scalar_stencil():
    draws = [_fd_draw(7, i) for i in range(200)]
    for i in range(100):  # degrees 0 to 6 mixed in one block
        rng = _sub_rng(8, i)
        spec = sample_self_map(rng, 6)
        draws.append((spec, 0.49 * sample_base_point(rng, 0.0, 1.0),
                       sample_base_point(rng, 0.1, 0.5)))
    want = [_fd_reference(d) for d in draws]
    for block in (1, 255, 256, 257):
        rows = [row for k in range(0, len(draws), block)
                for row in _jet_rows(_fd_block(*_arrays(draws[k:k + block])))]
        assert len(rows) == len(draws)
        for got, ref in zip(rows, want):
            for k in range(4):
                assert abs(got[k] - ref[k]) <= 1e-12 * abs(ref[k]), (block, k)


def test_fd_audit_sample_count_and_worst_case():
    rep = fd_audit(0, seed=4)
    assert rep.samples == 0 and rep.worst_case is None and rep.max_violation == 0.0
    for n in (1, 257):
        rep = fd_audit(n, seed=4)
        assert rep.samples == n and rep.violations == 0
        errors = []
        for i in range(n):
            draw = _fd_draw(4, i)
            spec, a, z0 = draw
            jet = moebius_jet(a, blaschke_jet(spec, z0))
            num = _jet_rows(_fd_block(*_arrays([draw])))[0]
            errors.append(max(abs(jet[k] - num[k]) / abs(jet[k]) for k in (1, 2, 3)))
        i = rep.worst_case["index"]
        assert errors[i] == rep.max_violation == max(errors)
        assert errors.index(max(errors)) == i
        spec, _, z0 = _fd_draw(4, i)
        assert rep.worst_case == {"index": i, "z0": str(z0), "degree": spec.degree}


def _regime2_loop(grid_density, hit):
    n = grid_density
    samples = violations = 0
    max_violation, worst_case = 0.0, None
    rs = np.linspace(0.02, 0.98, n)
    fracs = np.linspace(0.0, 0.999, n)
    mods = np.linspace(0.0, 0.999, n)
    phases = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))
    for r in rs:
        for f in fracs:
            s = f * r
            gap = np.abs(1.0 + r * r - 2.0 * s * np.outer(mods, phases)).min(axis=1)
            tm = r * (1.0 - mods) / gap
            samples += len(mods)
            violations += int((tm >= hit).sum())
            worst = float(tm.max())
            if worst - hit > max_violation:
                max_violation = worst - hit
                worst_case = {"r": float(r), "s": float(s), "mod": float(mods[int(tm.argmax())])}
    return samples, violations, max_violation, worst_case


@pytest.mark.parametrize("density", [1, 2, 12, 40])
def test_regime2_matches_loop(density, monkeypatch):
    rep = regime2_search(density)
    assert (rep.samples, rep.violations, rep.max_violation, rep.worst_case) == \
        _regime2_loop(density, verify.REGIME2_HIT)
    # a lower threshold gives hits, so counts and the worst case are exercised
    monkeypatch.setattr(verify, "REGIME2_HIT", 0.45)
    rep = regime2_search(density)
    want = _regime2_loop(density, 0.45)
    assert (rep.samples, rep.violations, rep.max_violation, rep.worst_case) == want
    if density > 2:
        assert want[1] > 0 and want[3] is not None


# the per-row loop of extremal_attainment_audit before it ran on arrays


def _extremal_loop(n_grid, tol):
    """(samples, violations, max_violation, worst_case) and every row's error."""
    samples = violations = 0
    max_violation, worst_case, errors = 0.0, None, []
    rs = (0.3, 0.5, 0.7)
    ss = (0.0, 0.4)
    lams = (0j, 0.3 + 0.2j, -0.5 + 0j)
    mus = (0j, 0.4 - 0.3j, 0.6 + 0j)
    n_theta = max(1, n_grid // (len(rs) * len(ss) * len(lams) * len(mus)))
    for r in rs:
        for sf in ss:
            s = sf * r
            for lam in lams:
                for mu in mus:
                    cfg = NormalizedConfig(r=r, s=s, lam=lam, mu=mu)
                    disk = disk_order3_params(complex(r), complex(s), lam, mu)
                    for k in range(n_theta):
                        theta = 2.0 * math.pi * k / n_theta
                        spec = extremal_spec(cfg, 3, theta)
                        w3 = 6.0 * eval_extremal(spec).a3
                        err = abs(abs(w3 - disk.center) - disk.radius)
                        errors.append(err)
                        samples += 1
                        if err > tol * (1.0 + disk.radius):
                            violations += 1
                        if err > max_violation:
                            max_violation = err
                            worst_case = {"r": r, "s": s, "theta": theta}
    return (samples, violations, max_violation, worst_case), errors


def _extremal_rows(monkeypatch, n_grid):
    """The report of extremal_attainment_audit(n_grid) and the errors of
    its rows, read off the calls to _note_worst."""
    errors, note = [], verify._note_worst

    def spy(report, values, worst_case):
        errors.extend(values.tolist())
        note(report, values, worst_case)

    monkeypatch.setattr(verify, "_note_worst", spy)
    rep = verify.extremal_attainment_audit(n_grid)
    return (rep.samples, rep.violations, rep.max_violation, rep.worst_case), errors


@pytest.mark.parametrize("n_grid", [1, 53, 54, 55, 540, 541, 1080])
def test_extremal_rows_match_loop(n_grid, monkeypatch):
    got, errors = _extremal_rows(monkeypatch, n_grid)
    want, want_errors = _extremal_loop(n_grid, verify.EXTREMAL_TOL)
    assert [e.hex() for e in errors] == [e.hex() for e in want_errors]
    assert got == want and got[0] == 54 * max(1, n_grid // 54)
    assert got[2].hex() == want[2].hex()


def test_extremal_violations_and_ties_match_loop(monkeypatch):
    # a tolerance below the rounding noise makes violations; the largest
    # error is attained by rows 742, 800 and 940, which blocks of 400 rows
    # split, so the first one must be kept across blocks
    monkeypatch.setattr(verify, "EXTREMAL_TOL", 1e-16)
    monkeypatch.setattr(verify, "BLOCK", 400)
    got, errors = _extremal_rows(monkeypatch, 1080)
    want, _ = _extremal_loop(1080, 1e-16)
    assert got == want
    assert 0 < want[1] < want[0]
    assert [i for i, e in enumerate(errors) if e == want[2]] == [742, 800, 940]


# --------------------------------------------------------------------------
# the array blocks row by row: every row has the bits of the scalar public
# chain, which a call-by-call replay of the audits uses


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _scalar_disk3(z0, w):
    """(lambda, mu, center, radius) of disk_order3(InterpolationData(...)),
    or None where it raises InfeasibleConstraintError."""
    try:
        data = InterpolationData(z0, *w[:3])
        disk = disk_order3(data)
    except InfeasibleConstraintError:
        return None
    return data.lam, data.mu, disk.center, disk.radius


def _assert_disk3_rows(got, z0, ws):
    """got, the _disk3_rows of rows z0, ws, has the bits of the scalar chain."""
    lam, mu, center, radius, anomaly = got
    for k, (z, w) in enumerate(zip(z0, ws)):
        want = _scalar_disk3(z, w)
        assert bool(anomaly[k]) == (want is None), k
        if want is None:
            continue
        assert _hex(_complex(lam, k)) == _hex(want[0]), k
        if want[1] is not None:
            assert _hex(_complex(mu, k)) == _hex(want[1]), k
        assert _hex(_complex(center, k)) == _hex(want[2]), k
        assert radius[k].hex() == want[3].hex(), k


def _assert_membership_rows(seed, start, stop):
    rows = verify._membership_rows(seed, start, stop)
    z0, ws = [], []
    for k, i in enumerate(range(start, stop)):
        spec, z = _membership_draw(seed, i)
        fj = Jet3.identity(z) * blaschke_jet(spec, z)
        w = (fj.a0, fj.a1, 2.0 * fj.a2, 6.0 * fj.a3)
        assert rows.degree[k] == spec.degree, i
        assert _hex(_complex(rows.z0, k)) == _hex(z), i
        assert [_hex(_complex(x, k)) for x in rows.w] == [_hex(x) for x in w], i
        disk = _scalar_disk3(z, w)
        if disk is not None:
            assert rows.excess[k].hex() == (abs(w[3] - disk[2]) - disk[3]).hex(), i
        z0.append(z)
        ws.append(w)
    _assert_disk3_rows((rows.lam, rows.mu, rows.center, rows.radius, rows.anomaly), z0, ws)


def _assert_fd_rows(seed, start, stop):
    draws = _fd_draw_block(seed, start, stop)
    jets, stencils = _jet_rows(_fd_jets(*draws)), _jet_rows(_fd_block(*draws))
    for i, jet, num in zip(range(start, stop), jets, stencils):
        spec, a, z0 = _fd_draw(seed, i)
        assert [_hex(x) for x in jet] == [_hex(x) for x in moebius_jet(a, blaschke_jet(spec, z0))], i
        assert [_hex(x) for x in num] == [_hex(x) for x in _fd_reference((spec, a, z0))], i


@pytest.mark.parametrize("seed, n", [(seed, 2000) for seed in range(10)]
                         + [(5, 1), (5, 127), (5, 129), (5, 2001)])
def test_block_rows_match_scalar_chain(seed, n):
    # the blocks the audits take, row by row
    for start in range(0, n, verify.BLOCK):
        _assert_membership_rows(seed, start, min(start + verify.BLOCK, n))
        _assert_fd_rows(seed, start, min(start + verify.BLOCK, n))


def test_block_rows_with_lemire_rejection(monkeypatch):
    # fd's degrees 1 to 4 divide 2^32, so only membership draws can be rejected
    _zero_low_word(monkeypatch, 1)
    _assert_membership_rows(3, 0, 130)
    assert _fields(membership_audit(130, 3)) == _fields(_membership_loop(130, 3))


def test_disk3_rows_on_constructed_rows():
    from diskjet import disk_order1, disk_order2, mu_from_w2
    from diskjet.dieudonne import CASE1_TOL, FEAS_TOL, case

    def on_disk(z0, disk, p):
        return disk.center + disk.radius * (z0.conjugate() / abs(z0)) * p

    rows = []
    # degree 1: lambda is unimodular (case 1)
    spec, z0 = verify.BlaschkeSpec(0.3, (0.4 - 0.2j,)), 0.6 + 0.3j
    fj = Jet3.identity(z0) * blaschke_jet(spec, z0)
    rows.append((z0, (fj.a0, fj.a1, 2.0 * fj.a2, 6.0 * fj.a3)))
    assert InterpolationData(z0, fj.a0, fj.a1, 2.0 * fj.a2).mu is None
    # mu read off at |mu| = 1 + 2^-52 after its clamp, so disk_order3_params
    # clamps it again (case 2)
    z0, w0 = 0.5 + 0.2j, 0.1 + 0.05j
    w1 = on_disk(z0, disk_order1(z0, w0), 0.3 - 0.1j)
    lam = InterpolationData(z0, w0, w1).lam
    d2 = disk_order2(z0, w0, lam)
    w2 = next(w for w in (on_disk(z0, d2, cmath.rect(1.0 + 0.5 * FEAS_TOL, 0.01 * k))
                          for k in range(1000)) if abs(mu_from_w2(z0, w0, w, lam)) > 1.0)
    rows.append((z0, (w0, w1, w2, 0j)))
    # case 2 inside the circle, and case 3
    rows.append((z0, (w0, w1, on_disk(z0, d2, (1.0 - 0.5 * CASE1_TOL) * 1j), 0j)))
    rows.append((z0, (w0, w1, on_disk(z0, d2, 0.2 + 0.7j), 0j)))
    assert [case(InterpolationData(z0, *w[:3]).lam, InterpolationData(z0, *w[:3]).mu)
            for _, w in rows[1:]] == [2, 2, 3]
    # anomalies: |lambda| past 1 + FEAS_TOL, |mu| past it, and |w0| >= |z0|
    rows.append((z0, (w0, on_disk(z0, disk_order1(z0, w0), 1.1j), w2, 0j)))
    rows.append((z0, (w0, w1, on_disk(z0, d2, -1.0 - 2.0 * FEAS_TOL), 0j)))
    rows.append((0.3 + 0.4j, (0.4 + 0.3j, w1, w2, 0j)))
    # |lambda| within FEAS_TOL past 1 (clamped, case 1)
    rows.append((z0, (w0, on_disk(z0, disk_order1(z0, w0), -(1.0 + 0.5 * FEAS_TOL)), w2, 0j)))
    # a row where numpy's x ** 2 rounds differently from Python's for x = |lambda|
    gen = np.random.default_rng(3)
    for p in gen.uniform(-0.7, 0.7, (2000, 2)).tolist():
        w1 = on_disk(z0, disk_order1(z0, w0), complex(*p))
        lam = InterpolationData(z0, w0, w1).lam
        if np.power(abs(lam), 2.0) != abs(lam) ** 2:
            rows.append((z0, (w0, w1, on_disk(z0, disk_order2(z0, w0, lam), 0.1 - 0.2j), 0j)))
            break
    else:
        raise AssertionError("no row where np.power(x, 2.0) != x ** 2")
    z0s, ws = zip(*rows)
    got = verify._disk3_rows(_carray(z0s), *(_carray([w[k] for w in ws]) for k in range(3)))
    assert got[4].tolist() == [False] * 4 + [True] * 3 + [False] * 2
    _assert_disk3_rows(got, z0s, ws)
