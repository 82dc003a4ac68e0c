"""Pair decomposition, overlap ratios, and the product/integral bounds.

The (2, 3) and (4, 6) examples are frozen from hand computation: for
psi = 1/2, E_2 = [1/4, 3/4) and E_3 = [1/6, 5/6), so the intersection
has measure 1/2 against a measure product of 1/3.
"""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_overlap
from reference_arith import iv_floored_log_bounds
from reference_overlap import integration_window, threshold_class

from dsextra import arith
from dsextra.arith import (
    MIN_PRECISION,
    Approx,
    exp_rational,
    factorize,
    log_bounds,
    totient,
)
from dsextra.circles import coprime_arcs, coprime_measure, intersection_measure
from dsextra.errors import DomainError
from dsextra.overlap import (
    CSV_COLUMNS,
    averaged_sum,
    averaging_reference,
    decompose_pair,
    disjoint_predicted,
    overlap_cutoff,
    overlap_integral_bound,
    overlap_records,
    prime_product_bound,
)
from dsextra.psi import PsiFunction, make_psi, normalize_psi


@pytest.fixture(scope="module")
def psi_half():
    return normalize_psi(make_psi("half", 400))


@pytest.fixture(scope="module")
def psi_recip():
    return normalize_psi(make_psi("recip", 400))


def ratio(m, n, psi, k):
    return overlap_records(m, n, psi, [k], with_integral=False)[0].p_exact


# ---------------------------------------------------------------------------
# decomposition

def test_decompose_coprime_pair(psi_half):
    d = decompose_pair(2, 3, psi_half)
    assert (d.r, d.s, d.t, d.gcd) == (1, 1, 6, 1)
    assert (d.delta, d.Delta) == (F(1, 6), F(1, 4))
    assert totient(d.t) == 2


def test_decompose_shared_prime(psi_half):
    d = decompose_pair(4, 6, psi_half)
    # 4 = 2^2, 6 = 2*3: exponents differ at 2, so 2 lands in s and t
    assert (d.r, d.s, d.t, d.gcd) == (1, 2, 12, 2)


def test_decompose_equal_exponents(psi_half):
    d = decompose_pair(14, 30, psi_half)
    assert (d.r, d.s, d.t) == (2, 1, 105)
    assert d.gcd == 2


def test_decompose_rejects_equal(psi_half):
    with pytest.raises(DomainError):
        decompose_pair(7, 7, psi_half)


def exponent_split(m, n):
    # reference: (r, s, t) with r the primes of equal exponent in m and n,
    # and s (t) the smaller (larger) power of every other prime
    em = dict(factorize(m))
    en = dict(factorize(n))
    r = s = t = 1
    for p in em.keys() | en.keys():
        a = em.get(p, 0)
        b = en.get(p, 0)
        if a == b:
            r *= p ** a
        else:
            lo, hi = (a, b) if a < b else (b, a)
            s *= p ** lo
            t *= p ** hi
    return r, s, t


# small numbers, prime powers, {2, 3, 5, 7}-smooth numbers (which share
# primes at equal and unequal exponents) and any n, all up to 10^6
_split_ints = st.one_of(
    st.integers(min_value=1, max_value=350),
    st.sampled_from([
        p ** e for p in (2, 3, 5, 7, 11, 997) for e in range(1, 20) if p ** e <= 10 ** 6
    ]),
    st.builds(
        lambda a, b, c, d: 2 ** a * 3 ** b * 5 ** c * 7 ** d,
        st.integers(0, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
    ),
    st.integers(min_value=1, max_value=10 ** 6),
)


@settings(max_examples=300, deadline=None)
@given(_split_ints, _split_ints)
def test_decompose_identities(m, n):
    if m == n:
        n += 1
    psi = normalize_psi(make_psi("half", max(m, n)))
    d = decompose_pair(m, n, psi)
    assert (d.r, d.s, d.t) == exponent_split(m, n)
    assert d.r * d.t == math.lcm(m, n)
    assert m * n == d.r ** 2 * d.s * d.t
    assert math.gcd(m, n) == d.r * d.s
    assert d.t % d.s == 0
    assert totient(d.s) * totient(d.r) ** 2 * totient(d.t) == totient(m) * totient(n)
    assert d.delta == min(d.psi_m / m, d.psi_n / n)
    assert d.Delta == max(d.psi_m / m, d.psi_n / n)


def test_cutoff_identity(psi_half, psi_recip):
    # Delta * r * t / ê_k equals max(n*psi(m), m*psi(n)) / (ê_k * gcd)
    for psi in (psi_half, psi_recip):
        for m, n in ((2, 3), (4, 6), (14, 30), (36, 48)):
            d = decompose_pair(m, n, psi)
            assert d.D == d.Delta * d.r * d.t
            top = max(n * psi.value(m), m * psi.value(n))
            for k in (0, 1, 3):
                e = exp_rational(k)
                assert overlap_cutoff(d, k) == d.Delta * d.r * d.t / e
                assert overlap_cutoff(d, k) == top / (e * d.gcd)


# ---------------------------------------------------------------------------
# overlap ratio and bounds, frozen (2, 3) case

def test_overlap_frozen_2_3(psi_half):
    d = decompose_pair(2, 3, psi_half)
    assert overlap_cutoff(d, 0) == F(3, 2)
    assert prime_product_bound(d, 0) == 3         # primes 2, 3 both > 3/2
    assert ratio(2, 3, psi_half, 0) == F(3, 2)
    assert not disjoint_predicted(d, 0)           # 2*Delta*r*t = 3 > 1
    assert disjoint_predicted(d, 2)               # 3 <= ê_2
    assert integration_window(d, 0) == 6


def test_threshold_classes(psi_half):
    d = decompose_pair(2, 3, psi_half)
    assert threshold_class(d, 0, 0) == "above-window"   # 6 > ê_0 = 1
    assert threshold_class(d, 1, 8) == "in-window"      # 6/e in (1, ê_8]
    assert threshold_class(d, 2, 8) == "below-1"        # 6/ê_2 <= 1
    # 6/ê_2 = 0.81... <= 1 exactly as rationals
    assert integration_window(d, 2) <= 1


def test_disjoint_prediction_is_sound(psi_recip):
    # whenever the 2*Delta*r*t/ê_k <= 1 test fires, the scaled systems
    # really are disjoint
    for m, n, k in ((10, 11, 1), (100, 101, 1), (17, 19, 2), (100, 150, 0)):
        d = decompose_pair(m, n, psi_recip)
        assert disjoint_predicted(d, k)
        e = exp_rational(k)
        a = coprime_arcs(m, psi_recip.value(m) / e)
        b = coprime_arcs(n, psi_recip.value(n) / e)
        assert intersection_measure(a, b) == 0


def test_overlap_ratio_symmetry(psi_half):
    assert ratio(2, 3, psi_half, 0) == ratio(3, 2, psi_half, 0)
    assert ratio(14, 30, psi_half, 1) == ratio(30, 14, psi_half, 1)


def test_integral_bound_zero_window(psi_recip):
    d = decompose_pair(100, 150, psi_recip)
    assert integration_window(d, 0) <= 1
    out = overlap_integral_bound(d, 0)
    assert (out.value, out.err) == (F(0), F(0))


def test_integral_bound_frozen_2_3(psi_half, pins):
    d = decompose_pair(2, 3, psi_half)
    out = overlap_integral_bound(d, 0)
    # independent enclosure: (t/phi(t)) * sum ln(6/b) over b in {1, 5} / (3/2)
    # = (6/2) * ln(36/5) / (3/2) = 2 * ln(36/5)
    truth_lo, truth_hi = log_bounds(F(36, 5))
    assert out.lo <= 2 * truth_lo and 2 * truth_hi <= out.hi
    assert out.err < F(1, 10 ** 30)
    pins.check("overlap/integral_2_3_k0", f"{float(out.value):.12e}")


# ---------------------------------------------------------------------------
# records and averaging

def test_overlap_record_row_shape(psi_half):
    rec = overlap_records(2, 3, psi_half, ks=range(1, 9))[0]
    row = rec.csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[:7] == ["2", "3", "1", "1", "1", "6", "1"]
    assert row[7] == "1/6" and row[8] == "1/4"
    assert row[15] in ("true", "false")
    assert row[16] in ("below-1", "in-window", "above-window")


def test_overlap_record_without_integral(psi_half):
    rec = overlap_records(2, 3, psi_half, ks=range(1, 9), with_integral=False)[0]
    assert rec.integral is None
    row = rec.csv_row()
    assert row[13] == "" and row[14] == ""


def test_overlap_record_zero_measure_convention():
    psi = normalize_psi(PsiFunction(9, "table", base={4: F(1, 2)}))
    [rec] = overlap_records(4, 9, psi, [0])
    assert rec.p_exact == 0     # dropped-term convention, not an error


PSI_TABLE = normalize_psi(PsiFunction(
    150, "table", base={n: F(1, 2 + n % 5) for n in range(1, 151) if n % 3}
))     # psi(n) = 0 for n divisible by 3


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=1, max_value=150),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
    st.sampled_from(["half", "recip", "table"]),
)
@example(14, 30, [2, 0, 2, 1], "half")
def test_overlap_records_match_one_k_calls_and_sweep(m, n, ks, spec):
    # one kernel call with a column per distinct k, in ascending order,
    # gives each k's one-k record in the order of ks, repeats included, and
    # P agrees with the sweep over built arcs (0 on a zero measure)
    if m == n:
        n = n % 150 + 1
    psi = PSI_TABLE if spec == "table" else normalize_psi(make_psi(spec, 150))
    dec = decompose_pair(m, n, psi)
    records = overlap_records(m, n, psi, ks)
    assert [rec.k for rec in records] == ks
    for rec in records:
        [one] = overlap_records(m, n, psi, [rec.k])
        assert rec == replace(
            one, threshold_class=threshold_class(dec, rec.k, max(ks))
        )
        e = exp_rational(rec.k)
        rm, rn = psi.value(m) / e, psi.value(n) / e
        mu = coprime_measure(m, rm) * coprime_measure(n, rn)
        sweep = intersection_measure(coprime_arcs(m, rm), coprime_arcs(n, rn))
        assert rec.p_exact == (sweep / mu if mu else 0)


_PSIS = {
    "half": normalize_psi(make_psi("half", 150)),
    "recip": normalize_psi(make_psi("recip", 150)),
    "table": PSI_TABLE,
    # Delta(1, 2) = 1/4, so D = Delta*lcm(1, 2) = 1/2 and 2*D = ê_0
    "2D=1": normalize_psi(PsiFunction(2, "table", base={1: F(1, 8), 2: F(1, 2)})),
    # psi(2) = 0: Delta(1, 2) = 1/8, so D = 1/4 and 4*D = ê_0
    "4D=1": normalize_psi(PsiFunction(2, "table", base={1: F(1, 8)})),
    # D = ê_1/4: 4*D = ê_0*ê_1 and 4*D = ê_1, the in-window and below-1 edges
    "4D=e1": normalize_psi(PsiFunction(2, "table", base={1: exp_rational(1) / 8})),
}


def test_scale_boundaries_are_inclusive():
    [rec] = overlap_records(1, 2, _PSIS["2D=1"], [0])
    assert rec.cutoff == F(1, 2) and rec.disjoint_pred
    [rec] = overlap_records(1, 2, _PSIS["4D=1"], [0])
    assert rec.cutoff == F(1, 4) and rec.threshold_class == "below-1"
    assert (rec.integral.value, rec.integral.err) == (0, 0)
    classes = [rec.threshold_class for rec in overlap_records(1, 2, _PSIS["4D=e1"], [0, 1])]
    assert classes == ["in-window", "below-1"]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=1, max_value=150),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
    st.sampled_from(["half", "recip", "table"]),
    st.booleans(),
)
@example(14, 30, [2, 0, 2, 1], "half", True)
@example(1, 2, [0, 1, 0], "2D=1", True)
@example(2, 1, [0], "2D=1", False)
@example(1, 2, [1, 0, 0], "4D=1", True)
@example(2, 1, [0], "4D=1", False)
@example(1, 2, [0, 1], "4D=e1", True)
def test_overlap_records_match_reference(m, n, ks, spec, with_integral):
    # every field of the integer route through the per-pair D equals the
    # Fraction route of reference_overlap, P from arcs and the sweep
    if m == n:
        n = n % 150 + 1
    psi = _PSIS[spec]
    assert overlap_records(m, n, psi, ks, with_integral=with_integral) == (
        reference_overlap.records(m, n, psi, ks, with_integral=with_integral)
    )


def test_averaged_sum_frozen(psi_half):
    total, records, reference = averaged_sum(6, 10, psi_half, 2)
    assert total == 0           # both scaled systems miss each other
    assert [rec.k for rec in records] == [1, 2]
    assert reference.value == 1 and reference.err == 0   # floors saturate
    with pytest.raises(DomainError):
        averaged_sum(6, 10, psi_half, 0)


def test_averaged_sum_matches_single_records(psi_half):
    total, records, _ = averaged_sum(2, 3, psi_half, 3)
    assert total == sum(rec.p_exact for rec in records)
    for rec in records:
        assert rec.p_exact == overlap_records(2, 3, psi_half, [rec.k])[0].p_exact


def test_averaging_reference_monotone():
    # ln(top) * ln(ln(n)), floored at 1: grows with both arguments
    small = averaging_reference(16, 2)
    big = averaging_reference(10 ** 6, 8)
    assert small.lo <= big.lo
    assert big.lo > 2           # ln(8) * ln(ln(10^6)) = 2.079 * 2.626 ~ 5.46


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10 ** 9), st.integers(1, 10 ** 6), st.integers(MIN_PRECISION, 256))
# around the x <= 5/2 floor test: n = 2 takes no ln at all; ln 12 < 5/2
# floors ln ln 12 with no ln call, and ln 13 > 5/2 computes ln ln 13 = 0.94
@example(2, 2, 128)
@example(12, 12, 128)
@example(13, 13, 128)
def test_averaging_reference_matches_interval_context(n, top, precision):
    lk_lo, lk_hi = iv_floored_log_bounds(top, top, precision)
    ln_n = iv_floored_log_bounds(n, n, precision)
    lln_lo, lln_hi = iv_floored_log_bounds(*ln_n, precision)
    assert averaging_reference(n, top, precision) == Approx.from_bounds(
        lk_lo * lln_lo, lk_hi * lln_hi
    )


def test_averaging_reference_logs_only_what_it_reads(monkeypatch):
    # two ln calls for ln 30 and four for ln 14 and ln ln 14 (ln 14 > 5/2);
    # ln ln 30, which the product does not read, takes none
    calls = []
    f = arith.mpf_log

    def counted(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(arith, "mpf_log", counted)
    averaging_reference(14, 30)
    assert len(calls) == 6
