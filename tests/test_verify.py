"""Verification suites: determinism, serialization, oracle quality."""

import json
import math

import numpy as np
import pytest

from diskjet import Jet3, VerificationReport, blaschke_jet, blaschke_value, fd_audit, \
    fd_jet, membership_audit, moebius_jet, moebius_value, regime2_search, sample_self_map
from diskjet import verify
from diskjet.verify import (_fd_block, _fd_draw, _sub_rng, merge_reports, run_suite,
                            sample_base_point)


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
        rows = np.concatenate([_fd_block(draws[k:k + block])
                               for k in range(0, len(draws), block)])
        assert rows.shape == (len(draws), 4)
        for got, ref in zip(rows.tolist(), want):
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
            num = _fd_block([draw])[0].tolist()
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
