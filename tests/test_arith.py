"""Exact number theory kernels and certified enclosures.

Expected values in this file are frozen from independent hand computation
(small products and gcd scans one can check on paper).
"""

import math
from fractions import Fraction as F
from functools import lru_cache, partial

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv
from mpmath.libmp import round_ceiling, round_floor
from reference_arith import (
    HARMONIC_CAP,
    coprime_density,
    coprime_harmonic,
    iv_damping_bounds,
    iv_exp_bounds,
    iv_floored_log_bounds,
    iv_log_bounds,
    mertens_product,
    pow_bounds,
    primes_up_to,
    restricted_prime_product,
    sieve_upper_bound,
)

from dsextra import arith
from dsextra.arith import (
    EPSILON_CAP,
    INTEGRAL_CAP,
    SCALE_CAP,
    SIEVE_CAP,
    Approx,
    _squarefree_divisors,
    damping_bounds,
    exp_rational,
    factorize,
    guarded_floor,
    is_prime,
    log_bounds,
    log_power_bounds,
    log_weight_integral,
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
    # trial division leaves a prime factor above sqrt(n) (43,691)
    n = (1 << 18) + 2
    f = factorize(n)
    assert math.prod(p ** e for p, e in f) == n
    assert all(is_prime(p) for p, _ in f)


def _trial_factorize(n: int) -> tuple[tuple[int, int], ...]:
    # reference: trial division by every d >= 2, independent of arith
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _ref_is_prime(n: int) -> bool:
    return n >= 2 and _trial_factorize(n) == ((n, 1),)


def test_factorize_sieves_only_to_sqrt(fresh_sieve):
    # from an empty prime list, a large n grows the list to cover
    # floor(sqrt(n)) and, doubling, to no more than twice that
    n = 9973 * 99991
    root = math.isqrt(n)
    assert factorize.__wrapped__(n) == ((9973, 1), (99991, 1))
    assert root < arith._sieved <= 2 * root
    assert arith._primes == [p for p in range(arith._sieved) if _ref_is_prime(p)]
    sieved = arith._sieved
    factorize.__wrapped__(12)               # covered: the list stays as it is
    assert arith._sieved == sieved


def test_factorize_explicit_cases():
    assert factorize(1) == ()
    assert factorize(65_535) == ((3, 1), (5, 1), (17, 1), (257, 1))
    assert factorize(65_536) == ((2, 16),)
    assert factorize(65_537) == ((65_537, 1),)
    near_256 = (241, 251, 257, 263)         # around the former table's sqrt
    for p in near_256:
        assert factorize(p * p) == ((p, 2),)
        for q in near_256:
            if p < q:
                assert factorize(p * q) == ((p, 1), (q, 1))
                assert factorize(p * p * q) == ((p, 2), (q, 1))


def test_factorize_at_sieve_growth_boundaries(fresh_sieve):
    # p^2 for the primes just below and just above each size the prime
    # list grows to: the first is covered, the second makes it grow; the
    # list holds exactly the primes below its size
    sizes = []
    while arith._sieved < 1 << 17:
        size = arith._sieved
        sizes.append(size)
        primes = [p for p in range(size) if _ref_is_prime(p)]
        assert arith._primes == primes
        below = primes[-2:]
        above = next(p for p in range(size, 2 * size + 2) if _ref_is_prime(p))
        for p in below:
            assert factorize.__wrapped__(p * p) == ((p, 2),)
            assert arith._sieved == size
        assert factorize.__wrapped__(above * above) == ((above, 2),)
        assert arith._sieved > size
        for p in below:
            assert factorize.__wrapped__(p * above) == ((p, 1), (above, 1))
    assert len(sizes) >= 16


def test_factorize_rejects_nonpositive():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        factorize(-6)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(2000) == [p for p in range(2001) if _ref_is_prime(p)]


def test_totient_values():
    assert [totient(n) for n in (1, 2, 3, 4, 30, 97)] == [1, 1, 2, 2, 8, 96]


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10 ** 8))
def test_factorize_reconstructs(n):
    f = factorize(n)
    assert math.prod(p ** e for p, e in f) == n
    assert list(f) == sorted(f)
    assert all(e >= 1 for _, e in f)
    assert f == _trial_factorize(n)


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


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]), st.booleans()),
        max_size=9, unique_by=lambda f: f[0],
    ),
    st.integers(min_value=1, max_value=400),
    st.one_of(st.none(), st.lists(
        st.tuples(st.integers(1, 60), st.integers(-3, 3).filter(bool)),
        max_size=5, unique_by=lambda t: t[0],
    )),
)
@example([(2, True), (3, True), (5, False)], 12, None)
@example([(2, True), (5, False), (7, True)], 400, [(1, 1), (3, -1), (33, 2)])
def test_squarefree_divisors_match_subset_expansion(spec, limit, seed):
    # the kernel's factors (p - 2, 1) and the Möbius factors (1, -1), mixed,
    # from the default seed [(1, 1)] or a seed of terms (d, c) with d prime
    # to every factor: the same multiset of (d, c_d) as the nonzero terms
    # of a naive sum over every seed term and every subset of the primes,
    # filtered by the limit, at the drawn limit and at one no d exceeds;
    # (2, 0, 1) zeroes every odd d, and no zero term is returned.  d = 1
    # comes first when its coefficient is nonzero
    factors = [(p, p - 2, 1) if r_side else (p, 1, -1) for p, r_side in spec]
    rad = math.prod(p for p, _ in spec)
    if seed is not None:
        seed = [(d, c) for d, c in seed if math.gcd(d, rad) == 1]
    start = [(1, 1)] if seed is None else seed
    for lim in (limit, rad * max((d for d, _ in start), default=1)):
        seeded = [(d, c) for d, c in start if d <= lim]
        naive = []
        for d0, c0 in seeded:
            for chosen in range(1 << len(factors)):
                d, c = d0, c0
                for bit, (p, a, b) in enumerate(factors):
                    if chosen >> bit & 1:
                        d *= p
                        c *= b
                    else:
                        c *= a
                if d <= lim and c:
                    naive.append((d, c))
        got = _squarefree_divisors(iter(factors), lim, None if seed is None else seeded)
        assert sorted(got) == sorted(naive)
        assert all(c for _, c in got)
        c1 = math.prod(a for _, a, _ in factors)
        if seed is None and c1:
            assert got[:1] == [(1, c1)]


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
    with pytest.raises(CapExceededError, match="HARMONIC_CAP"):
        coprime_harmonic(6, HARMONIC_CAP + 1)


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
    with pytest.raises(CapExceededError, match="INTEGRAL_CAP"):
        log_weight_integral(2, 50_001)
    with pytest.raises(CapExceededError, match="SCALE_CAP"):
        exp_rational(65)
    with pytest.raises(CapExceededError, match="SIEVE_CAP"):
        factorize((SIEVE_CAP + 1) ** 2)
    # an integer epsilon raises ln n exactly, so its cost grows with it
    for epsilon in (F(EPSILON_CAP + 1), EPSILON_CAP + F(1, 2)):
        with pytest.raises(CapExceededError, match="EPSILON_CAP"):
            log_power_bounds(3, epsilon)
        with pytest.raises(CapExceededError, match="EPSILON_CAP"):
            damping_bounds(3, epsilon, F(1))
    assert log_power_bounds(3, F(EPSILON_CAP))[0] == tuple(
        x ** EPSILON_CAP for x in log_bounds(3)
    )


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


def test_log_power_bounds_floored_logs():
    # max(1, ln n) and max(1, ln ln n), the floored logs that
    # log_power_bounds returns beside (ln n)^epsilon
    assert log_power_bounds(2, 1) == ((F(1), F(1)),) * 3     # ln 2 < 1 clamps
    power, l1, l2 = log_power_bounds(3, 1)
    assert power == l1 == log_bounds(3) and F(1) < l1[0]
    assert l2 == (F(1), F(1))                                 # ln ln 3 < 1 clamps
    # ln ln 20 > 1.09: the lower end of ln l1[0] and the upper end of ln l1[1]
    _, l1, l2 = log_power_bounds(20, F(1, 2), 64)
    assert l1 == log_bounds(20, 64)
    assert l2 == (log_bounds(l1[0], 64)[0], log_bounds(l1[1], 64)[1])
    with pytest.raises(DomainError):
        log_power_bounds(0, 1)


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
    assert log_bounds(x, precision) == iv_log_bounds(x, precision)


@settings(max_examples=300, deadline=None)
@given(_EXP_ARG, _EXP_ARG, _PRECISION)
def test_exp_ends_match_interval_context(a, b, precision):
    # the dyadic core's exp ends, which log_power_bounds and damping_bounds read
    lo, hi = min(a, b), max(a, b)
    wp = arith._working_bits(precision)
    got = (
        arith._fraction(arith._exp_end(lo.numerator, lo.denominator, wp, round_floor)),
        arith._fraction(arith._exp_end(hi.numerator, hi.denominator, wp, round_ceiling)),
    )
    assert got == iv_exp_bounds(lo, hi, precision)


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


@settings(max_examples=150, deadline=None)
@given(
    # max(1, ln n) = 1 up to n = 2, max(1, ln ln n) = 1 up to n = 12
    st.one_of(st.integers(1, 20), st.integers(21, 10 ** 5), st.integers(10 ** 5, 10 ** 12)),
    st.one_of(st.integers(0, 6).map(F), st.fractions(0, 6, max_denominator=12)),
    st.sampled_from([64, 128]),
)
@example(1000, F(3), 64)
@example(1000, F(3), 128)
@example(1000, F(1, 2), 64)
@example(1000, F(1, 2), 128)
def test_log_power_bounds_match_pow_bounds(n, epsilon, precision):
    # the table's and the thinned audit's (ln n)^epsilon, and the floored
    # logs it comes with, against pow_bounds on the interval context's
    # floored log chain
    power, l1, l2 = log_power_bounds(n, epsilon, precision)
    assert l1 == iv_floored_log_bounds(n, n, precision)
    assert l2 == iv_floored_log_bounds(*l1, precision)
    assert power == pow_bounds(*l1, epsilon, precision)


@settings(max_examples=25, deadline=None)
@given(_PRECISION)
def test_floored_log_shortcut_matches_interval_context(precision):
    # an end at x <= 5/2 is exactly 1 with no libmp call; every other end
    # makes one ln call, and both agree with the interval context
    calls = []
    wp = arith._working_bits(precision)
    k = wp - 3
    with pytest.MonkeyPatch.context() as mp:
        for name in ("mpf_log", "mpf_exp"):
            f = getattr(arith, name)

            def counted(*args, f=f, name=name):
                calls.append(name)
                return f(*args)

            mp.setattr(arith, name, counted)
        # log_power_bounds' floored ends where the test flips: on n itself
        # at n = 2, 3, and on the (man, exp) end of ln n at n = 12, 13
        for n in (2, 3, 12, 13):
            calls.clear()
            _, l1, l2 = log_power_bounds(n, 1, precision)
            assert calls == ["mpf_log"] * (2 * (n > 2) + sum(x > F(5, 2) for x in l1)), n
            assert l1 == iv_floored_log_bounds(n, n, precision)
            assert l2 == iv_floored_log_bounds(*l1, precision)
        # the ends 5/2 and one wp-bit ulp either side of it
        for end in ((5, -1), ((5 << k) - 1, -k - 1), ((5 << k) + 1, -k - 1)):
            x = arith._fraction(end)
            calls.clear()
            got = tuple(
                arith._fraction(arith._floored_ln(end, wp, rnd))
                for rnd in (round_floor, round_ceiling)
            )
            assert calls == ["mpf_log"] * 2 * (x > F(5, 2)), end
            assert got == iv_floored_log_bounds(x, x, precision)


@settings(max_examples=150, deadline=None)
@given(
    # ln ln ln n > 1 needs n > e^(e^e) ~ 3.8 million; ln ln n > 5/2, n > 195,000
    st.one_of(st.integers(1, 20), st.integers(21, 10 ** 5), st.integers(10 ** 5, 10 ** 12)),
    st.one_of(st.integers(0, 6).map(F), st.fractions(0, 6, max_denominator=12)),
    st.fractions(0, 4, max_denominator=12),
    _PRECISION,
)
# where each floor's x <= 5/2 test flips: on n itself at n = 2, 3; on the
# (man, exp) end of ln n at n = 12, 13; on that of ln ln n at n = 195,339,
# 195,340, where ln ln n crosses 5/2
@example(2, F(3), F(1), 128)
@example(3, F(1, 2), F(1), 128)
@example(12, F(3), F(1, 2), 64)
@example(13, F(1, 2), F(3, 2), 64)
@example(195_339, F(3), F(1), MIN_PRECISION)
@example(195_340, F(3), F(1), MIN_PRECISION)
@example(195_339, F(1, 2), F(2), 200)
@example(195_340, F(1, 2), F(2), 200)
def test_damping_bounds_match_interval_context(n, epsilon, hpv_c, precision):
    got = damping_bounds(n, epsilon, hpv_c, precision)
    # every end is a dyadic (man, exp) with man odd, in lowest terms
    for lo, hi in got:
        for man, _ in (lo, hi):
            assert man % 2 == 1
    assert [tuple(map(arith._fraction, ends)) for ends in got] == iv_damping_bounds(
        n, epsilon, hpv_c, precision
    )


def test_damping_bounds_domain():
    for args in ((0, F(1), F(1)), (5, F(-1, 2), F(1)), (5, F(1), F(-1)), (5, F(1), F(1), 7)):
        with pytest.raises(DomainError):
            damping_bounds(*args)
    # epsilon and hpv_c of 0 divide by nothing
    assert damping_bounds(20, 0, 0, 64) == (((1, 0), (1, 0)),) * 3


@pytest.mark.parametrize("precision", [7, 0, -32, -40])
def test_enclosures_reject_uncertifiable_precision(precision, monkeypatch):
    # below MIN_PRECISION no libmp call may run: at -32 ln 3 came back as a
    # zero-width "enclosure", and at -40 it did not return
    def fail(*args):
        raise AssertionError("libmp called below MIN_PRECISION")

    assert arith.MIN_PRECISION == MIN_PRECISION
    psi = make_psi("half", 50)
    calls = [
        partial(log_bounds, 3),
        partial(log_power_bounds, 20, F(1, 3)),
        partial(log_weight_integral, 6, 10),
        partial(damping_bounds, 20, F(1, 2), F(1)),
        partial(divergence_table, 1, 50, psi),
    ]
    with monkeypatch.context() as mp:
        mp.setattr(arith, "mpf_log", fail)
        mp.setattr(arith, "mpf_exp", fail)
        for call in calls:
            with pytest.raises(DomainError, match="precision"):
                call(precision)
    for call in calls:
        call(MIN_PRECISION)


def test_enclosures_ignore_mpmath_precision(fresh_log_steps, monkeypatch):
    psi = make_psi("half", 200)

    def results():
        return [
            log_bounds(F(10, 7), 64),
            log_power_bounds(20, F(1, 3), 64),
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
    monkeypatch.setattr(arith, "_log_steps", (None, [0], [0], [0], [0]))
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


def test_log_weight_integral_error_budget_is_checked(fresh_log_steps, monkeypatch):
    # at x = 5/2 (count 2) an ln x enclosure widened by w gives
    # err = w + (width of ln 2)/2: refused just past 2^-(precision - 1),
    # returned just inside it
    precision = 64
    budget = F(1, 1 << (precision - 1))
    ln = arith._ln

    def widened(width):
        def end(x, wp, rnd):
            if x != (5, -1):                # the end of x = 5/2
                return ln(x, wp, rnd)
            man, exp = ln(x, wp, round_floor)
            if rnd == round_ceiling:
                man += int(width * (1 << -exp))
            return man, exp

        return end

    monkeypatch.setattr(arith, "_ln", widened(budget))
    with pytest.raises(PrecisionGuardError, match="integral error"):
        log_weight_integral(1, F(5, 2), precision)
    monkeypatch.setattr(arith, "_ln", widened(budget - F(1, 1 << (precision + 8))))
    out = log_weight_integral(1, F(5, 2), precision)
    assert budget - F(1, 1 << (precision + 7)) < out.err <= budget


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
@example(1, F(1), 128)
# ln x ends below the ln b grid, so the bounds take a finer one
@example(2, F(51, 50), 64)
@example(6, 1 + F(1, 1 << 100), 128)
@example(30030, F(2999, 2), 64)
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
    # with its cumulative sums, no longer than the table and built anew
    calls = [(510510, INTEGRAL_CAP), (9699690, INTEGRAL_CAP), (30030, F(2999, 2))]
    before = {}
    sums = []
    for precision in (128, 64, 128):
        values = [log_weight_integral(t, x, precision) for t, x in calls]
        assert before.setdefault(precision, values) == values
        table_precision, lo, hi, cum_lo, cum_hi = arith._log_steps
        assert table_precision == precision
        assert len(cum_lo) == len(cum_hi) == len(lo) == len(hi) == INTEGRAL_CAP + 1
        assert (cum_lo[-1], cum_hi[-1]) == (sum(lo), sum(hi))
        assert all(cum_lo is not old and cum_hi is not old for old in sums)
        sums += [cum_lo, cum_hi]
    assert before[64] != before[128]


@pytest.mark.parametrize("precision", [8, 64, 200])
def test_log_steps_match_interval_context(precision, fresh_log_steps):
    # each entry is an end of ln b from the interval context, times the
    # 2^(precision + 33) of the grid
    log_weight_integral(1, 3000, precision)
    table_precision, lo, hi, _, _ = arith._log_steps
    assert table_precision == precision and len(lo) == len(hi) == 3001
    assert lo[0] == hi[0] == 0
    grid = 1 << (precision + 33)
    for b in range(1, 3001):
        b_lo, b_hi = iv_log_bounds(b, precision)
        assert (lo[b], hi[b]) == (b_lo * grid, b_hi * grid), b


def test_log_prefix_grid_is_checked(fresh_log_steps, monkeypatch):
    # an ln 7 end of 2^-(wp + 1) is on the grid, one of 2^-(wp + 2) is
    # refused, and the table keeps its lower and upper ends and their
    # cumulative sums in step, so the next call grows it from b = 7
    ln = arith._ln
    for below, on_grid in ((1, True), (2, False)):
        monkeypatch.setattr(arith, "_log_steps", (None, [0], [0], [0], [0]))
        monkeypatch.setattr(
            arith,
            "_ln",
            lambda x, wp, rnd, below=below: (
                (1, -(wp + below)) if x == (7, 0) else ln(x, wp, rnd)
            ),
        )
        if on_grid:
            log_weight_integral(1, 10, 64)
            _, lo, hi, cum_lo, cum_hi = arith._log_steps
            assert lo[7] == hi[7] == 1
            assert cum_lo[7] - cum_lo[6] == cum_hi[7] - cum_hi[6] == 1
        else:
            with pytest.raises(PrecisionGuardError, match="grid"):
                log_weight_integral(1, 10, 64)
            _, lo, hi, cum_lo, cum_hi = arith._log_steps
            assert len(lo) == len(hi) == len(cum_lo) == len(cum_hi) == 7
    monkeypatch.setattr(arith, "_ln", ln)
    assert log_weight_integral(1, 10, 64) == scan_log_weight_integral(1, 10, 64)


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
