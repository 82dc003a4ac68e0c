"""Exact number theory kernels and certified enclosures.

Expected values in this file are frozen from independent hand computation
(small products and gcd scans one can check on paper).
"""

import math
from fractions import Fraction as F
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from dsextra import arith
from dsextra.arith import (
    INTEGRAL_CAP,
    SCALE_CAP,
    Approx,
    coprime_density,
    coprime_harmonic,
    exp_bounds,
    exp_rational,
    factorize,
    floored_log_bounds,
    guarded_floor,
    is_prime,
    log_bounds,
    log_weight_integral,
    mertens_product,
    pow_bounds,
    primes_up_to,
    restricted_prime_product,
    sieve_upper_bound,
    totient,
)
from dsextra.errors import CapExceededError, DomainError, PrecisionGuardError
from dsextra.harness import MIN_PRECISION, divergence_table
from dsextra.psi import make_psi


# ---------------------------------------------------------------------------
# factorization and totients

def test_factorize_small_table():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(97) == ((97, 1),)


def test_factorize_beyond_table_walk():
    # large enough to take the trial-division branch
    n = (1 << 18) + 2
    f = factorize(n)
    assert math.prod(p ** e for p, e in f) == n
    assert all(is_prime(p) for p, _ in f)


def test_factorize_past_table_keeps_table():
    # an n the smallest-prime-factor table does not cover is trial-divided
    # and sieves only up to sqrt(n), so the table stays as it was
    factorize(12)
    before = len(arith._spf)
    n = before + 465          # 65536 + 465 = 70001 for the initial table
    f = factorize(n)
    assert math.prod(p ** e for p, e in f) == n
    assert len(arith._spf) == before


def test_factorize_rejects_nonpositive():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        factorize(-6)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_totient_values():
    assert [totient(n) for n in (1, 2, 3, 4, 30, 97)] == [1, 1, 2, 2, 8, 96]


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=5000))
def test_factorize_reconstructs(n):
    f = factorize(n)
    assert math.prod(p ** e for p, e in f) == n
    assert list(f) == sorted(f)
    assert all(e >= 1 and is_prime(p) for p, e in f)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=2000))
def test_totient_counts_coprimes(n):
    assert totient(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


# ---------------------------------------------------------------------------
# Euler products

def test_mertens_product_values():
    assert mertens_product(1) == 1
    assert mertens_product(2) == 2
    assert mertens_product(F(5, 2)) == 2
    assert mertens_product(10) == F(35, 8)


def test_mertens_product_is_prime_product():
    x = 50
    prod = F(1)
    for p in primes_up_to(x):
        prod *= F(p, p - 1)
    assert mertens_product(x) == prod


def test_restricted_prime_product_values():
    assert restricted_prime_product(36, F(5, 2)) == F(3, 2)
    assert restricted_prime_product(15, 1) == F(15, 8)
    assert restricted_prime_product(15, 5) == 1     # empty product
    assert restricted_prime_product(1, 0) == 1


def test_coprime_density_values():
    assert coprime_density(6, 10) == F(3, 10)
    assert coprime_density(30, 7) == F(2, 7)
    assert coprime_density(1, 10) == 1
    assert coprime_density(2, F(7, 2)) == F(4, 7)   # {1, 3} over 7/2


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=3000),
    st.fractions(min_value=1, max_value=2000, max_denominator=50),
)
def test_coprime_density_matches_scan(t, theta):
    # independent oracle: the plain gcd scan
    count = sum(1 for b in range(1, math.floor(theta) + 1) if math.gcd(b, t) == 1)
    assert coprime_density(t, theta) == count / theta


def test_coprime_harmonic_values():
    assert coprime_harmonic(6, 10) == 1 + F(1, 5) + F(1, 7)
    assert coprime_harmonic(1, 3) == F(11, 6)
    assert coprime_harmonic(6, F(1, 2)) == 0


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=400),
)
def test_coprime_harmonic_matches_scan(t, b_max):
    # independent oracle: the plain gcd scan
    direct = sum(F(1, b) for b in range(1, b_max + 1) if math.gcd(b, t) == 1)
    assert coprime_harmonic(t, b_max) == direct


def test_sieve_upper_bound_factored_identity():
    bound, (full, dividing) = sieve_upper_bound(6, 7)
    assert (bound, full, dividing) == (F(35, 24), F(35, 8), F(1, 3))
    assert bound == full * dividing
    # direct product over primes <= 7 not dividing 6: {5, 7}
    assert bound == F(5, 4) * F(7, 6)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=200),
)
def test_sieve_bound_dominates_harmonic(t, x):
    bound, (full, dividing) = sieve_upper_bound(t, x)
    assert bound == full * dividing
    assert coprime_harmonic(t, x) <= bound


# ---------------------------------------------------------------------------
# caps

def test_caps_name_their_constant():
    with pytest.raises(CapExceededError, match="HARMONIC_CAP"):
        coprime_harmonic(6, 5001)
    with pytest.raises(CapExceededError, match="INTEGRAL_CAP"):
        log_weight_integral(2, 50_001)
    with pytest.raises(CapExceededError, match="SCALE_CAP"):
        exp_rational(65)


# ---------------------------------------------------------------------------
# enclosures

def test_approx_from_bounds():
    a = Approx.from_bounds(F(1, 3), F(1, 2))
    assert (a.value, a.err) == (F(5, 12), F(1, 12))
    assert (a.lo, a.hi) == (F(1, 3), F(1, 2))
    b = a.scale(F(-2))
    assert (b.value, b.err) == (F(-5, 6), F(1, 6))
    with pytest.raises(DomainError):
        Approx(F(1), F(-1))
    with pytest.raises(DomainError):
        Approx.from_bounds(F(1), F(0))


def test_log_bounds_encloses_tightly():
    lo, hi = log_bounds(2)
    assert lo <= hi
    assert hi - lo <= F(1, 1 << 120)
    assert F(693147, 10 ** 6) < lo and hi < F(693148, 10 ** 6)
    assert log_bounds(1) == (F(0), F(0))
    with pytest.raises(DomainError):
        log_bounds(0)


def test_log_bounds_precision_controls_width():
    lo8, hi8 = log_bounds(3, precision=8)
    lo64, hi64 = log_bounds(3, precision=64)
    assert hi64 - lo64 < hi8 - lo8
    # 1.0986 < ln 3 < 1.0987, and both enclosures must contain ln 3
    assert lo8 < F(10987, 10 ** 4) and F(10986, 10 ** 4) < hi8
    assert lo64 < F(10987, 10 ** 4) and F(10986, 10 ** 4) < hi64


def test_floored_log_bounds():
    assert floored_log_bounds(2, 2) == (F(1), F(1))      # ln 2 < 1 clamps
    lo, hi = floored_log_bounds(3, 3)
    assert F(1) < lo <= hi
    assert floored_log_bounds(F(1, 10), F(1, 10)) == (F(1), F(1))
    # an interval: the lower end of ln lo and the upper end of ln hi
    assert floored_log_bounds(2, 3) == (F(1), hi)
    assert floored_log_bounds(3, 20, 64) == (log_bounds(3, 64)[0], log_bounds(20, 64)[1])
    with pytest.raises(DomainError):
        floored_log_bounds(3, 2)


def test_exp_bounds_enclose():
    lo, hi = exp_bounds(F(1), F(1))
    assert lo <= hi and hi - lo < F(1, 1 << 100)
    assert F(2718281, 10 ** 6) < lo and hi < F(2718282, 10 ** 6)
    lo, hi = exp_bounds(F(0), F(1))
    assert lo <= 1 and F(2718281, 10 ** 6) < hi


def test_pow_bounds_integer_exact():
    assert pow_bounds(F(3, 2), F(3, 2), F(2)) == (F(9, 4), F(9, 4))
    assert pow_bounds(F(2), F(3), F(0)) == (F(1), F(1))


def test_pow_bounds_fractional_encloses():
    lo, hi = pow_bounds(F(4), F(4), F(1, 2))
    assert lo <= 2 <= hi and hi - lo < F(1, 1 << 100)
    with pytest.raises(DomainError):
        pow_bounds(F(0), F(1), F(1, 2))
    with pytest.raises(DomainError):
        pow_bounds(F(1), F(2), F(-1))


# ---------------------------------------------------------------------------
# the interval-context reference route

def _iv_fraction(mpf_tuple):
    sign, man, exp, _ = mpf_tuple
    f = F(int(man)) * F(2) ** exp
    return -f if sign else f


def _iv_quotient(x):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def iv_log_bounds(x, precision=128):
    """Reference route for log_bounds: mpmath's interval context at
    precision + 32 bits, its global precision restored afterwards."""
    x = F(x)
    if x == 1:
        return F(0), F(0)
    saved = iv.prec
    iv.prec = precision + 32
    try:
        lo_t, hi_t = iv.log(_iv_quotient(x))._mpi_
    finally:
        iv.prec = saved
    return _iv_fraction(lo_t), _iv_fraction(hi_t)


def iv_exp_bounds(lo, hi, precision=128):
    """Reference route for exp_bounds, as iv_log_bounds."""
    saved = iv.prec
    iv.prec = precision + 32
    try:
        lo_t = iv.exp(_iv_quotient(F(lo)))._mpi_[0]
        hi_t = iv.exp(_iv_quotient(F(hi)))._mpi_[1]
    finally:
        iv.prec = saved
    return _iv_fraction(lo_t), _iv_fraction(hi_t)


_WIDE = st.integers(1, 1 << 400)        # wider than 256 + 32 bits
_POSITIVE = st.one_of(
    st.just(F(1)),
    st.builds(F, _WIDE, _WIDE),          # on either side of 1
    st.builds(lambda m, e: F(m) * F(2) ** e, _WIDE, st.integers(-300, 300)),
    # dyadics whose odd mantissa is too wide for the working precision
    st.builds(
        lambda m, e: F(2 * m + 1) * F(2) ** e,
        st.integers(1 << 300, 1 << 400), st.integers(-300, 300),
    ),
    st.fractions(min_value=F(1, 10 ** 6), max_value=10 ** 6, max_denominator=10 ** 6),
)
# exp arguments of either sign, |x| < 2001, some of them dyadic
_EXP_ARG = st.one_of(
    st.just(F(0)),
    st.builds(
        lambda k, n, d: k + F(n % d, d),
        st.integers(-2000, 2000), st.integers(0, 1 << 400), _WIDE,
    ),
    st.builds(lambda m, e: F(m, 1 << e), st.integers(-(1 << 64), 1 << 64), st.integers(53, 300)),
)
_PRECISION = st.integers(MIN_PRECISION, 256)


@settings(max_examples=300, deadline=None)
@given(_POSITIVE, _PRECISION)
def test_log_bounds_match_interval_context(x, precision):
    ref = iv_log_bounds(x, precision)
    assert log_bounds(x, precision) == ref
    assert arith._log_lo(x, precision) == ref[0]
    assert arith._log_hi(x, precision) == ref[1]


@settings(max_examples=300, deadline=None)
@given(_EXP_ARG, _EXP_ARG, _PRECISION)
def test_exp_bounds_match_interval_context(a, b, precision):
    lo, hi = min(a, b), max(a, b)
    assert exp_bounds(lo, hi, precision) == iv_exp_bounds(lo, hi, precision)
    assert exp_bounds(lo, lo, precision) == iv_exp_bounds(lo, lo, precision)


@settings(max_examples=100, deadline=None)
@given(_POSITIVE, _POSITIVE, st.fractions(0, 20, max_denominator=12), _PRECISION)
def test_pow_bounds_match_interval_context(a, b, exponent, precision):
    lo, hi = min(a, b), max(a, b)
    if exponent.denominator == 1:
        ref = lo ** exponent.numerator, hi ** exponent.numerator
    else:
        ref = iv_exp_bounds(
            exponent * iv_log_bounds(lo, precision)[0],
            exponent * iv_log_bounds(hi, precision)[1],
            precision,
        )
    assert pow_bounds(lo, hi, exponent, precision) == ref


def test_enclosures_ignore_mpmath_precision(fresh_log_steps, monkeypatch):
    psi = make_psi("half", 200)

    def results():
        return [
            log_bounds(F(10, 7), 64),
            exp_bounds(F(-3, 2), F(5, 3), 64),
            pow_bounds(F(2), F(3), F(1, 3), 64),
            log_weight_integral(30030, F(2999, 2), 64),
            divergence_table(F(1, 2), 200, psi, 64, F(3, 2)),
        ]

    saved = iv.prec, mpmath.mp.prec
    try:
        iv.prec, mpmath.mp.prec = 11, 20
        skewed = results()
        assert (iv.prec, mpmath.mp.prec) == (11, 20)
    finally:
        iv.prec, mpmath.mp.prec = saved
    # the table filled under the skewed precisions goes; the reference
    # fills its own at the defaults
    monkeypatch.setattr(arith, "_log_steps", (None, [0], [0]))
    assert results() == skewed


def test_guarded_floor():
    assert guarded_floor(F(5, 2), F(51, 20)) == 2
    with pytest.raises(PrecisionGuardError):
        guarded_floor(F(199, 100), F(201, 100))       # straddles 2
    with pytest.raises(PrecisionGuardError):
        guarded_floor(F(3), F(3))                      # exactly on an integer
    with pytest.raises(PrecisionGuardError):
        guarded_floor(F(3) + F(1, 1 << 70), F(3) + F(1, 1 << 69))
    with pytest.raises(DomainError):
        guarded_floor(F(2), F(1))


def test_log_weight_integral_small_window():
    # b in {1, 5, 7}: sum ln(10/b) = ln(200/7)
    out = log_weight_integral(6, 10)
    truth_lo, truth_hi = log_bounds(F(200, 7))
    assert out.lo <= truth_lo and truth_hi <= out.hi
    assert out.err <= F(1, 1 << 126)
    assert log_weight_integral(6, 1).value == 0


def test_log_weight_integral_error_contract():
    # err <= 2^-(precision - ceil(log2 count)) whenever that is meaningful
    for t, x, precision in ((1, 1000, 64), (6, 500, 128), (30, 4000, 64)):
        out = log_weight_integral(t, x, precision)
        count = sum(1 for b in range(1, x + 1) if math.gcd(b, t) == 1)
        assert out.err <= F(1, 1 << (precision - (count - 1).bit_length()))


_log_int = lru_cache(maxsize=None)(log_bounds)


def scan_log_weight_integral(t, x, precision):
    """Reference route for log_weight_integral: scan every b <= x, test
    gcd(b, t) and add the Fraction endpoints of ln b one by one."""
    x = F(x)
    lnx_lo, lnx_hi = log_bounds(x, precision)
    count = 0
    sum_lo = sum_hi = F(0)
    for b in range(1, math.floor(x) + 1):
        if math.gcd(b, t) == 1:
            blo, bhi = _log_int(b, precision)
            count += 1
            sum_lo += blo
            sum_hi += bhi
    lo = max(count * lnx_lo - sum_hi, F(0))
    return Approx.from_bounds(lo, count * lnx_hi - sum_lo)


# t is factorized, so it stays within SIEVE_CAP**2 (9973**3 < 10**12)
_PRIME_POWERS = st.builds(
    pow, st.sampled_from([2, 3, 5, 7, 11, 13, 9973]), st.integers(1, 12)
).filter(lambda t: t < 10 ** 12)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just(1), _PRIME_POWERS, st.sampled_from([30030, 510510])),
    st.fractions(min_value=1, max_value=5000, max_denominator=50),
    st.sampled_from([32, 64, 128, 200]),
)
def test_log_weight_integral_matches_scan(t, x, precision):
    assert log_weight_integral(t, x, precision) == scan_log_weight_integral(
        t, x, precision
    )


def test_log_weight_integral_independent_of_table_state(fresh_log_steps):
    calls = [(1, F(1001, 3)), (12, 97), (30030, F(2999, 2)), (510510, 40)]
    cold = [log_weight_integral(t, x, 64) for t, x in calls]
    log_weight_integral(510510, 4000, 64)      # grows the table past every x
    assert [log_weight_integral(t, x, 64) for t, x in calls] == cold
    assert cold == [scan_log_weight_integral(t, x, 64) for t, x in calls]


def test_log_steps_one_precision_bounded_at_integral_cap(fresh_log_steps):
    # the table holds the latest call's precision only, one entry per
    # b <= INTEGRAL_CAP and b = 0; switching precision replaces it
    calls = [(510510, INTEGRAL_CAP), (9699690, INTEGRAL_CAP), (30030, F(2999, 2))]
    before = {}
    for precision in (128, 64, 128):
        values = [log_weight_integral(t, x, precision) for t, x in calls]
        assert before.setdefault(precision, values) == values
        table_precision, lo, hi = arith._log_steps
        assert table_precision == precision
        assert len(lo) == len(hi) == INTEGRAL_CAP + 1
    assert before[64] != before[128]


def test_log_prefix_grid_is_checked():
    assert arith._on_grid(F(3, 32), 10) == 3 << 5
    assert arith._on_grid(F(-3, 32), 5) == -3
    assert arith._on_grid(F(0), 5) == 0
    with pytest.raises(PrecisionGuardError, match="grid"):
        arith._on_grid(F(1, 1 << 11), 10)
    with pytest.raises(PrecisionGuardError, match="grid"):
        arith._on_grid(F(1, 3), 10)


# ---------------------------------------------------------------------------
# scale ladder

def test_exp_rational_values():
    assert exp_rational(0) == 1
    e1 = exp_rational(1)
    assert abs(e1 - F(2718281828459045, 10 ** 15)) < F(1, 10 ** 12)
    for k in range(1, 9):
        rel = abs(exp_rational(k) - exp_rational(1) ** k) / exp_rational(1) ** k
        assert rel < F(1, 10 ** 7)    # limit_denominator keeps them close
    with pytest.raises(DomainError):
        exp_rational(-1)


def test_exp_rational_strictly_increasing():
    scales = [exp_rational(k) for k in range(SCALE_CAP + 1)]
    assert scales[0] == 1
    assert all(a < b for a, b in zip(scales, scales[1:]))
