"""Reference routes for dsextra.arith that the library itself does not read.

The sieve-chain helpers (Mertens products, the Euler product over the
primes of t above a cutoff, coprime densities, coprime harmonic sums and
the factored sieve upper bound) are exact quantities that the tests
check against gcd scans and against one another.  The iv_* routes
compute each certified enclosure with mpmath's interval context,
independently of arith's dyadic core.  pow_bounds raises a
Fraction enclosure to a power on arith's dyadic core, the route that
arith.log_power_bounds keeps in integers.
"""

import math
from fractions import Fraction as F
from itertools import compress

from mpmath import iv
from mpmath.libmp import round_ceiling, round_floor

from dsextra.arith import (
    _dyadic,
    _exp_end,
    _fraction,
    _ln,
    _quotient_end,
    _squarefree_divisors,
    _working_bits,
    factorize,
)
from dsextra.errors import CapExceededError, DomainError

HARMONIC_CAP = 5_000         # largest floor(X) for coprime_harmonic


# ---------------------------------------------------------------------------
# sieve-chain helpers

def _euler_product(primes) -> F:
    """Exact Π p/(p - 1) = Π (1 - 1/p)^(-1) over the given primes."""
    num = den = 1
    for p in primes:
        num *= p
        den *= p - 1
    return F(num, den)


def restricted_prime_product(t: int, lower) -> F:
    """Exact Π (1 - 1/p)^(-1) over distinct primes p | t with p > lower."""
    if t < 1:
        raise DomainError("restricted_prime_product requires t >= 1")
    return _euler_product(p for p, _ in factorize(t) if p > lower)


def primes_up_to(x: int) -> list[int]:
    """All primes p <= x, ascending, from a plain sieve of Eratosthenes."""
    if x < 2:
        return []
    sieve = bytearray([1]) * (x + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, x + 1, p)))
    return list(compress(range(x + 1), sieve))


def mertens_product(x) -> F:
    """Exact Π_{p <= x} (1 - 1/p)^(-1) over primes."""
    x = F(x)
    if x < 0:
        raise DomainError("mertens_product requires x >= 0")
    return _euler_product(primes_up_to(math.floor(x)))


def coprime_density(t: int, theta) -> F:
    """#{1 <= b <= theta : gcd(b, t) = 1} / theta, exact.

    The count is the Möbius sum Σ_{d | t} μ(d)·floor(theta/d) over the
    squarefree divisors of t.
    """
    if t < 1:
        raise DomainError("coprime_density requires t >= 1")
    theta = F(theta)
    if theta < 1:
        raise DomainError("coprime_density requires theta >= 1")
    b_max = math.floor(theta)
    count = sum(
        mu * (b_max // d)
        for d, mu in _squarefree_divisors(((p, 1, -1) for p, _ in factorize(t)), t)
    )
    return F(count) / theta


_harmonic_prefix: list[F] = [F(0)]


def _harmonic(m: int) -> F:
    """H_m = Σ_{b <= m} 1/b, served from an exact prefix cache."""
    if m > HARMONIC_CAP:
        raise CapExceededError(
            f"harmonic prefix limited to {HARMONIC_CAP} (HARMONIC_CAP); needed {m}"
        )
    h = _harmonic_prefix
    while len(h) <= m:
        h.append(h[-1] + F(1, len(h)))
    return h[m]


def coprime_harmonic(t: int, x) -> F:
    """Exact Σ_{b <= x, gcd(b,t)=1} 1/b.

    Evaluated by Moebius inversion over the squarefree divisors of t so the
    cost is ~2^omega(t) harmonic-prefix lookups instead of a fresh scan.
    """
    if t < 1:
        raise DomainError("coprime_harmonic requires t >= 1")
    x = F(x)
    if x < 0:
        raise DomainError("coprime_harmonic requires x >= 0")
    b_max = math.floor(x)
    if b_max <= 0:
        return F(0)
    total = F(0)
    for d, mu in _squarefree_divisors(((p, 1, -1) for p, _ in factorize(t)), t):
        q = b_max // d
        if q:
            total += F(mu, d) * _harmonic(q)
    return total


def sieve_upper_bound(t: int, x) -> tuple[F, tuple[F, F]]:
    """Exact Π_{p <= x, p ∤ t} (1 - 1/p)^(-1), factored.

    Returns (bound, (full, dividing)) where full = Π_{p <= x} (1 - 1/p)^(-1)
    and dividing = Π_{p <= x, p | t} (1 - 1/p), so bound = full * dividing.
    The factored pair is exposed so callers can audit the factorization
    identity against an independently computed product.
    """
    if t < 1:
        raise DomainError("sieve_upper_bound requires t >= 1")
    x = F(x)
    if x < 1:
        raise DomainError("sieve_upper_bound requires x >= 1")
    full = mertens_product(x)
    dividing = 1 / _euler_product(p for p, _ in factorize(t) if p <= x)
    return full * dividing, (full, dividing)


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
    """Enclosure of exp over [lo, hi] in the interval context, as
    iv_log_bounds: exp(lo) rounded down and exp(hi) rounded up."""
    saved = iv.prec
    iv.prec = precision + 32
    try:
        lo_t = iv.exp(_iv_quotient(F(lo)))._mpi_[0]
        hi_t = iv.exp(_iv_quotient(F(hi)))._mpi_[1]
    finally:
        iv.prec = saved
    return _iv_fraction(lo_t), _iv_fraction(hi_t)


def iv_floored_log_bounds(lo, hi, precision=128):
    """Reference route for arith's floored logs (log_power_bounds,
    damping_bounds, averaging_reference): max(1, ·) of the lower end of
    iv_log_bounds(lo) and the upper end of iv_log_bounds(hi)."""
    return (
        max(iv_log_bounds(lo, precision)[0], F(1)),
        max(iv_log_bounds(hi, precision)[1], F(1)),
    )


def iv_damping_bounds(n, epsilon, hpv_c, precision=128):
    """Reference route for damping_bounds: the floored logs of n, then
    powers and exps of their Fraction ends, through the interval context."""
    l1 = iv_floored_log_bounds(n, n, precision)
    l2 = iv_floored_log_bounds(*l1, precision)
    l3 = iv_floored_log_bounds(*l2, precision)
    if epsilon.denominator == 1:
        damped = l1[0] ** epsilon.numerator, l1[1] ** epsilon.numerator
    else:
        damped = iv_exp_bounds(
            epsilon * iv_log_bounds(l1[0], precision)[0],
            epsilon * iv_log_bounds(l1[1], precision)[1],
            precision,
        )
    hpv = iv_exp_bounds(hpv_c * l1[0] / l2[1], hpv_c * l1[1] / l2[0], precision)
    bhhv = iv_exp_bounds(epsilon * l3[0] * l2[0], epsilon * l3[1] * l2[1], precision)
    return [damped, hpv, bhhv]


def pow_bounds(lo, hi, exponent, precision=128):
    """Certified enclosure of [lo, hi]^exponent for 0 < lo, exponent >= 0.

    Integer exponents stay exact; fractional ones go through
    exp(exponent * log), outward-rounded, computing only ln(lo) rounded
    down and ln(hi) rounded up.
    """
    wp = _working_bits(precision)
    if hi < lo:
        raise DomainError("empty enclosure")
    if lo <= 0:
        raise DomainError("pow_bounds requires a positive base interval")
    exponent = F(exponent)
    if exponent < 0:
        raise DomainError("pow_bounds requires exponent >= 0")
    p, q = exponent.numerator, exponent.denominator
    if q == 1:
        return lo ** p, hi ** p
    ends = []
    for x, rnd in ((lo, round_floor), (hi, round_ceiling)):
        end = _dyadic(_quotient_end(x.numerator, x.denominator, wp, rnd))
        man, exp = _ln(end, wp, rnd)
        ends.append(_fraction(_exp_end(p * man, q, wp, rnd, exp)))
    return tuple(ends)
