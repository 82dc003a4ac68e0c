"""Acceptance gate: eleven criteria over the full proof skeleton.

Each test is one criterion; the -v test line is its pass/fail line, and
each also prints a one-line summary with the measured numbers.  Pinned
quantities are recorded on first run into tests/data/pins.json and must
match exactly afterwards (DSEXTRA_REPIN=1 re-records).

Criterion 1 note: radii outside the arc constructor's domain are skipped,
which only affects n = 1 (radius 1/1 there; arcs are defined for radius
<= 1/2, and the exact measure law provably fails beyond that).
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations

import pytest
from reference_arith import (
    coprime_harmonic,
    iv_floored_log_bounds,
    pow_bounds,
    sieve_upper_bound,
)

from dsextra.arith import exp_rational, totient
from dsextra.circles import (
    coprime_arcs,
    intersect,
    intersection_measure,
    midpoint_grid_measure,
)
from dsextra.overlap import (
    averaging_reference,
    decompose_pair,
    disjoint_predicted,
    overlap_records,
    prime_product_bound,
)
from dsextra.psi import make_psi, normalize_psi
from dsextra.schedule import select_scale, thinned_psi
from tests.conftest import frac_str

BLOCK_LO, BLOCK_HI = 16, 256        # base-2 block h = 2
K_TOP = 8                           # K(2) at epsilon = 3


@pytest.fixture(scope="module")
def psi_half_2000():
    return normalize_psi(make_psi("half", 2000))


@pytest.fixture(scope="module")
def block_sweep(psi_half_2000):
    """One pass over the full h = 2 block: per-k sums and per-pair means.

    Accumulated independently of select_scale so criterion 8 can compare
    the library's argmin against these sums; every ~1000th intersection
    is cross-checked against the Fraction-route kernel.
    """
    psi = psi_half_2000
    ladder = [exp_rational(k) for k in range(K_TOP + 1)]
    per_k_inter = [F(0)] * (K_TOP + 1)      # index by k, slot 0 unused
    s2 = F(0)
    best_mean = None
    best_pair = None
    calls = 0
    mu = {n: coprime_arcs(n, psi.value(n)).measure()
          for n in range(BLOCK_LO, BLOCK_HI)}
    pairs = list(combinations(range(BLOCK_LO, BLOCK_HI), 2))
    for m, n in pairs:
        mm = mu[m] * mu[n]
        s2 += mm
        pair_acc = F(0)
        for k in range(1, K_TOP + 1):
            a = coprime_arcs(m, psi.value(m) / ladder[k])
            b = coprime_arcs(n, psi.value(n) / ladder[k])
            inter = intersection_measure(a, b)
            calls += 1
            if calls % 997 == 0:     # dual-route kernel cross-check
                assert intersect(a, b).measure() == inter
            per_k_inter[k] += inter
            pair_acc += inter * ladder[k] ** 2
        mean = pair_acc / (K_TOP * mm)
        if best_mean is None or mean > best_mean:
            best_mean, best_pair = mean, (m, n)
    return {
        "pairs": pairs,
        "s2": s2,
        "s1": {k: per_k_inter[k] * ladder[k] ** 2 for k in range(1, K_TOP + 1)},
        "max_mean": best_mean,
        "max_pair": best_pair,
    }


@pytest.fixture(scope="module")
def block_report(psi_half_2000, block_sweep):
    return select_scale(2, psi_half_2000, 3, block_sweep["pairs"], base=2)


@pytest.fixture(scope="module")
def bc_500():
    psi = normalize_psi(make_psi("half", 500))
    from dsextra.harness import borel_cantelli_ratio

    ratio, rows = borel_cantelli_ratio(psi, 500)
    return {n: r for n, _, _, r in rows}


def test_criterion_01_exact_measure_law(psi_half_2000):
    t0 = time.time()
    checked = 0
    for n in range(1, 2001):
        for radius in {F(1, 2), F(1, n), F(1, 2 * n)}:
            if radius > F(1, 2):
                continue        # outside the constructor's domain (n = 1)
            assert coprime_arcs(n, radius).measure() == 2 * radius * totient(n) / n
            checked += 1
    took = time.time() - t0
    assert took < 30
    print(f"PASS criterion 1: measure law exact on {checked} arc systems "
          f"({took:.1f} s)")


def test_criterion_02_decomposition_identities(psi_half_2000):
    t0 = time.time()
    psi = psi_half_2000
    for m in range(2, 2001):
        phi_m = totient(m)
        for n in range(m + 1, 2001):
            d = decompose_pair(m, n, psi)
            assert m * n == d.r * d.r * d.s * d.t
            assert math.gcd(m, n) == d.r * d.s
            assert d.t % d.s == 0
            assert (
                totient(d.s) * totient(d.r) ** 2 * totient(d.t)
                == phi_m * totient(n)
            )
    took = time.time() - t0
    assert took < 120
    print(f"PASS criterion 2: r/s/t identities exact on 1997001 pairs "
          f"({took:.1f} s)")


def test_criterion_03_disjointness_theorem():
    t0 = time.time()
    rng = random.Random(20260819)
    psi = normalize_psi(make_psi("recip", 400))
    found = 0
    k_hist = [0] * (K_TOP + 1)
    while found < 1000:
        m = rng.randrange(2, 200)
        n = rng.randrange(m + 1, 400)
        k = rng.randrange(0, K_TOP + 1)
        dec = decompose_pair(m, n, psi)
        if not disjoint_predicted(dec, k):
            continue
        found += 1
        k_hist[k] += 1
        e = exp_rational(k)
        a = coprime_arcs(m, psi.value(m) / e)
        b = coprime_arcs(n, psi.value(n) / e)
        assert intersection_measure(a, b) == 0
    took = time.time() - t0
    assert took < 60
    print(f"PASS criterion 3: 1000 predicted-disjoint triples have measure-0 "
          f"overlap, k histogram {k_hist} ({took:.1f} s)")


def test_criterion_04_sieve_chain():
    t0 = time.time()
    ladder = [exp_rational(k) for k in range(1, K_TOP + 1)]
    for t in range(1, 5001):
        for x in ladder:
            bound, (full, dividing) = sieve_upper_bound(t, x)
            assert bound == full * dividing
            assert coprime_harmonic(t, x) <= bound
    took = time.time() - t0
    assert took < 180
    print(f"PASS criterion 4: factorization identity and harmonic bound "
          f"hold for t <= 5000, X in ê_1..ê_8 ({took:.1f} s)")


def test_criterion_05_product_bound_ratio(pins):
    t0 = time.time()
    for spec in ("half", "recip"):
        psi = normalize_psi(make_psi(spec, 300))
        best = None
        for m in range(2, 301):
            for n in range(m + 1, 301):
                dec = decompose_pair(m, n, psi)
                pv = prime_product_bound(dec, 0)
                assert pv >= 1
                [rec] = overlap_records(m, n, psi, [0], with_integral=False)
                ratio = rec.p_exact / pv
                if best is None or ratio > best[0]:
                    best = (ratio, m, n)
        pins.check(
            f"acceptance/c5_max_ratio_{spec}",
            {"ratio": frac_str(best[0]), "pair": [best[1], best[2]]},
        )
    took = time.time() - t0
    assert took < 180
    print(f"PASS criterion 5: max P/pv finite and pinned for both radius "
          f"functions ({took:.1f} s)")


def test_criterion_06_averaging_bound(block_sweep, pins):
    t0 = time.time()
    max_mean = block_sweep["max_mean"]
    pair = block_sweep["max_pair"]
    pins.check(
        "acceptance/c6_max_mean_overlap",
        {"ratio": frac_str(max_mean), "pair": list(pair)},
    )
    reference = averaging_reference(BLOCK_HI, K_TOP)
    took = time.time() - t0
    assert took < 120
    print(f"PASS criterion 6: max mean overlap ratio {float(max_mean):.6f} "
          f"at {pair} pinned; comparison (log K)(log log n) = "
          f"{float(reference.value):.6f} ({took:.1f} s)")


def test_criterion_07_grid_oracle():
    t0 = time.time()
    rng = random.Random(7)
    grid = 10 ** 6
    for _ in range(200):
        m = rng.randrange(2, 400)
        n = rng.randrange(2, 400)
        rm = min(F(1, rng.choice((2, 3, m))), F(1, 2))
        rn = min(F(1, rng.choice((2, 3, n))), F(1, 2))
        a = coprime_arcs(m, rm)
        b = coprime_arcs(n, rn)
        exact = intersection_measure(a, b)
        approx = midpoint_grid_measure(a, b, grid)
        assert abs(approx - exact) <= F(len(a.ends) + len(b.ends) + 2, grid)
    took = time.time() - t0
    assert took < 120
    print(f"PASS criterion 7: grid oracle within tolerance on 200 seeded "
          f"pairs ({took:.1f} s)")


def test_criterion_08_select_scale_argmin(block_sweep, block_report):
    t0 = time.time()
    s2 = block_sweep["s2"]
    assert s2 > 0
    ratios = {k: block_sweep["s1"][k] / s2 for k in range(1, K_TOP + 1)}
    brute = min(ratios, key=lambda k: (ratios[k], k))
    assert block_report.scale_count == K_TOP
    assert block_report.chosen_k == brute
    # the independently accumulated sums must agree exactly
    for k, s1, s2_rep in block_report.per_k_sums:
        assert s1 == block_sweep["s1"][k]
        assert s2_rep == s2
    took = time.time() - t0
    assert took < 60
    print(f"PASS criterion 8: chosen k = {block_report.chosen_k} equals "
          f"brute-force argmin over {len(block_sweep['pairs'])} pairs "
          f"({took:.1f} s)")


def test_criterion_09_thinned_audit(psi_half_2000, block_report, pins):
    t0 = time.time()
    psi = normalize_psi(make_psi("half", 256))
    report0 = select_scale(0, psi, 3, [(2, 3)], base=2)
    chosen = {0: report0.chosen_k, 2: block_report.chosen_k}
    star = thinned_psi(psi, 3, chosen, base=2)

    from dsextra.schedule import block_of

    window_lo = window_hi = None
    support = 0
    for n in range(1, 257):
        h = block_of(n, 2)
        expected = F(0)
        if h is not None and h % 2 == 0:
            expected = psi.value(n) / exp_rational(chosen[h])
        assert star.value(n) == expected, n
        if expected:
            support += 1
            lo, hi = iv_floored_log_bounds(n, n)
            plo, phi_ = pow_bounds(lo, hi, F(3))
            ratio_lo = plo * star.value(n) / psi.value(n)
            ratio_hi = phi_ * star.value(n) / psi.value(n)
            window_lo = ratio_lo if window_lo is None else min(window_lo, ratio_lo)
            window_hi = ratio_hi if window_hi is None else max(window_hi, ratio_hi)
    assert support == 242
    pins.check(
        "acceptance/c9_ratio_window",
        {"lo": frac_str(window_lo), "hi": frac_str(window_hi)},
    )
    took = time.time() - t0
    assert took < 60
    print(f"PASS criterion 9: thinned psi exact on {support} support points, "
          f"ratio window [{float(window_lo):.6f}, {float(window_hi):.6f}] "
          f"pinned ({took:.1f} s)")


def test_criterion_10_borel_cantelli(bc_500, pins):
    t0 = time.time()
    assert bc_500[3] == F(169, 198)
    for n in (3, 100, 500):
        assert 0 < bc_500[n] <= 1
    pins.check("acceptance/c10_bc_100", frac_str(bc_500[100]))
    pins.check("acceptance/c10_bc_500", frac_str(bc_500[500]))
    took = time.time() - t0
    assert took < 300
    print(f"PASS criterion 10: bc(3) = 169/198 exact; bc(100), bc(500) "
          f"pinned, all in (0, 1] ({took:.1f} s)")


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "psi": "half",
        "k_top": 4,
        "out": str(tmp_path / "sweep.csv"),
        "pairs": {"mode": "sample", "lo": 2, "hi": 300, "count": 60, "seed": 99},
        "bc_n": 20,
        "table": {"epsilon": "3", "n_top": 64},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    snapshots = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "dsextra", "run", str(path)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        snapshots.append(tuple(
            (tmp_path / name).read_bytes()
            for name in ("sweep.csv", "sweep.bc.csv", "sweep.table.csv")
        ))
    assert snapshots[0] == snapshots[1]
    took = time.time() - t0
    assert took < 60
    print(f"PASS criterion 11: repeated seeded run reproduces byte-identical "
          f"CSV files ({took:.1f} s)")
