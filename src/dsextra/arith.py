"""Exact arithmetic kernels: factorization, totients, certified
logarithms and the log-weight integral.

Everything here is exact (fractions.Fraction over arbitrary-size ints)
except the log helpers, which return certified enclosures: mpmath's
directed-rounding ln and exp (mpmath.libmp) at an explicit working
precision, whose ends are exact dyadic rationals, so downstream
comparisons stay exact.  One private dyadic core makes every libmp call
in the library and holds each end as the integer pair (man, exp); its
one chain of floored logs, max(1, ln n), max(1, ln ln n), ..., is what
log_power_bounds and damping_bounds read.  No mpmath context precision
is read or written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable

from mpmath.libmp import MPZ, from_int, from_man_exp, mpf_div, mpf_exp, mpf_log
from mpmath.libmp import round_ceiling, round_floor

from .errors import CapExceededError, DomainError, PrecisionGuardError

# Exact rationals are fractions.Fraction throughout: normalized big-int
# rationals with exact comparison and hashing, adopted as-is instead of a
# bespoke type.  Arguments that take a rational also accept an int.
RationalLike = Fraction | int


def frac_str(x: Fraction) -> str:
    """`num/den`, the one text form of an exact rational in CSVs and reports."""
    return f"{x.numerator}/{x.denominator}"


# Desk-scale caps.  Exact arithmetic cost grows quickly with these bounds;
# each cap raises CapExceededError naming the constant so a caller who
# accepts the cost can raise it deliberately.
SIEVE_CAP = 4_000_000        # largest prime sieve bound: factorize n < (cap+1)^2
INTEGRAL_CAP = 50_000        # largest floor(X) for log_weight_integral
SCALE_CAP = 64               # largest k for exp_rational
EPSILON_CAP = 64             # largest epsilon for (ln n)^epsilon


# ---------------------------------------------------------------------------
# primes and factorization

# every prime below _sieved, ascending; grown on demand by doubling
_primes: list[int] = []
_sieved = 2


def _ensure_sieve(limit: int) -> None:
    global _primes, _sieved
    if limit < _sieved:
        return
    if limit > SIEVE_CAP:
        raise CapExceededError(
            f"prime sieve limited to {SIEVE_CAP} (arith.SIEVE_CAP); needed {limit}"
        )
    size = min(max(limit + 1, 2 * _sieved), SIEVE_CAP + 1)
    sieve = bytearray([1]) * size
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(size - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, size, p)))
    _primes = list(compress(range(size), sieve))
    _sieved = size


@lru_cache(maxsize=1 << 17)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, multiplicity), ...) ascending.

    Trial division by the sieved primes up to sqrt(n); the prime list grows
    only as far as sqrt(n) needs, within SIEVE_CAP.
    """
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    _ensure_sieve(math.isqrt(n))
    out = []
    m = n
    for p in _primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


@lru_cache(maxsize=1 << 17)
def totient(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


# ---------------------------------------------------------------------------
# Euler products and coprime sums

def _squarefree_divisors(
    factors: Iterable[tuple[int, int, int]],
    limit: int,
    terms: list[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    """Expand Π (a + b·[p | j]) over (p, a, b) as Σ c_d·[d | j], d <= limit.

    The p are distinct primes; d runs over their squarefree products up to
    limit and c_d = Π_{p | d} b · Π_{p ∤ d} a.  With (a, b) = (1, -1) for
    every p, c_d = μ(d): the Möbius sum over the squarefree divisors of
    Π p.  The terms are not even scanned for a prime p > limit, of which no
    multiple fits.  No c_d is 0: a = 0 keeps only the multiples of p, a = 1
    keeps the terms too.  A seed list of terms (d, c), d <= limit and prime
    to every p, multiplies the product in place of [(1, 1)] and may be
    extended in place; from [(1, 1)], d = 1 comes first if c_1 != 0.
    """
    if terms is None:
        terms = [(1, 1)]
    for p, a, b in factors:
        top = limit // p
        multiples = [(d * p, c * b) for d, c in terms if d <= top] if top else []
        if a != 1:
            terms = [(d, c * a) for d, c in terms] if a else []
        terms += multiples
    return terms


# ---------------------------------------------------------------------------
# certified enclosures

@dataclass(frozen=True)
class Approx:
    """Midpoint/error certificate: the true value lies in [value-err, value+err]."""

    value: Fraction
    err: Fraction

    def __post_init__(self):
        if self.err < 0:
            raise DomainError("negative error bound")

    @property
    def lo(self) -> Fraction:
        return self.value - self.err

    @property
    def hi(self) -> Fraction:
        return self.value + self.err

    @classmethod
    def from_bounds(cls, lo: Fraction, hi: Fraction) -> "Approx":
        if hi < lo:
            raise DomainError("empty enclosure")
        return cls((lo + hi) / 2, (hi - lo) / 2)

    def scale(self, c: Fraction) -> "Approx":
        return Approx(self.value * c, self.err * abs(c))

    def __str__(self) -> str:
        return f"{float(self.value):.12g} (±{float(self.err):.3g})"


_LOG_GUARD_BITS = 32
MIN_PRECISION = 8         # fewest working bits for certified logs


# The enclosures call libmp at the explicit working precision
# wp = precision + _LOG_GUARD_BITS and read or set no context precision.
# Their endpoints are those of iv.log and iv.exp at wp bits: libmp's ln or
# exp, rounded down (up), of the lower (upper) end of iv.mpf(num) /
# iv.mpf(den), whose operands and quotient libmp rounds outward to wp bits.
#
# The dyadic core below holds one end of an enclosure as the integer pair
# (man, exp), the exact value man·2^exp that libmp returns, man odd.  A
# rational argument is rounded to an end once (_quotient_end, then
# _dyadic); the one ln (_ln) and the one floored ln (_floored_ln) take an
# end, so an end that libmp returned feeds the next ln as it is.
# _log_power walks the chain n, max(1, ln n), max(1, ln ln n) for
# log_power_bounds and damping_bounds.

_Dyadic = tuple[int, int]
_ONE: _Dyadic = (1, 0)


def _working_bits(precision: int) -> int:
    # the libmp working precision; every enclosure checks its precision here
    if precision < MIN_PRECISION:
        raise DomainError(f"precision must be >= {MIN_PRECISION}, got {precision}")
    return precision + _LOG_GUARD_BITS


def _quotient_end(num: int, den: int, wp: int, rnd: str, shift: int = 0):
    # the round_floor (lower) or round_ceiling (upper) libmp value of
    # num·2^shift/den, den >= 1, in lowest terms up to powers of two:
    # from_int rounds the operands, and only a power of two commutes with that
    if den & (den - 1) == 0:
        # den = 2^k is exact at any precision, so rounding num and then
        # dividing by 2^k rounds num·2^-k once, as from_man_exp does
        return from_man_exp(num, shift + 1 - den.bit_length(), wp, rnd)
    # num/den falls as den grows when num >= 0, and rises when num < 0
    den_rnd = rnd if num < 0 else (round_ceiling if rnd == round_floor else round_floor)
    return mpf_div(from_man_exp(num, shift, wp, rnd), from_int(den, wp, den_rnd), wp, rnd)


def _dyadic(x) -> _Dyadic:
    # a libmp value as (man, exp), the sign on man
    sign, man, exp, _ = x
    return (-int(man) if sign else int(man)), exp


def _mpf(x: _Dyadic):
    # an end x > 0 as its libmp value: the mantissa is odd and at most wp
    # bits, so it needs no rounding, only libmp's own integer type (gmpy's
    # mpz when mpmath runs on gmpy)
    man, exp = x
    return 0, MPZ(man), exp, man.bit_length()


def _ln(x: _Dyadic, wp: int, rnd: str) -> _Dyadic:
    # one end of ln x for an end x > 0; ln 1 = 0 takes no call
    if x == _ONE:
        return 0, 0
    return _dyadic(mpf_log(_mpf(x), wp, rnd))


def _exp_end(num: int, den: int, wp: int, rnd: str, shift: int = 0) -> _Dyadic:
    # one end of exp(num·2^shift/den), den >= 1; num/den is put in lowest
    # terms here, as a Fraction holds it
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return _dyadic(mpf_exp(_quotient_end(num, den, wp, rnd, shift), wp, rnd))


def _at_least_one(x: _Dyadic) -> _Dyadic:
    # max(1, x) for x >= 0: man·2^exp >= 1 exactly when bits(man) + exp >= 1
    return x if x[0].bit_length() + x[1] > 0 else _ONE


def _floored_ln(x: _Dyadic, wp: int, rnd: str) -> _Dyadic:
    # one end of max(1, ln x) for an end x > 0.  For x <= 5/2 it is exactly
    # 1 with no libmp call: ln(5/2) < 0.92 rounds to below 1 at any
    # wp >= MIN_PRECISION + 32, and a rational <= 5/2 (a dyadic) rounds to
    # an end <= 5/2.  man·2^exp <= 5/2 exactly when man·2^(exp+1) <= 5
    man, exp = x
    if (man << exp + 1 <= 5) if exp >= -1 else (man <= 5 << -1 - exp):
        return _ONE
    return _at_least_one(_ln(x, wp, rnd))


def _fraction(x: _Dyadic) -> Fraction:
    man, exp = x
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def log_bounds(x: RationalLike, precision: int = 128) -> tuple[Fraction, Fraction]:
    """Certified enclosure of ln(x) with exact dyadic rational endpoints.

    libmp's ln of the outward-rounded quotient at the explicit precision
    precision + 32 bits, as mpmath's interval context gives it, with no
    global state; ln 1 is exactly 0.  Fraction endpoints keep all later
    comparisons exact.  precision must be at least MIN_PRECISION.
    """
    wp = _working_bits(precision)
    x = Fraction(x)
    if x <= 0:
        raise DomainError("log requires x > 0")
    num, den = x.numerator, x.denominator
    return tuple(
        _fraction(_ln(_dyadic(_quotient_end(num, den, wp, rnd)), wp, rnd))
        for rnd in (round_floor, round_ceiling)
    )


def _log_power(n: int, epsilon: RationalLike, precision: int):
    # wp and the dyadic ends of (ln n)^epsilon, max(1, ln n) and
    # max(1, ln ln n), for log_power_bounds and damping_bounds
    wp = _working_bits(precision)
    if n < 1:
        raise DomainError("log requires x > 0")
    if epsilon < 0:
        raise DomainError("(ln n)^epsilon requires epsilon >= 0")
    if epsilon > EPSILON_CAP:
        raise CapExceededError(
            f"(ln n)^epsilon limited to epsilon <= {EPSILON_CAP} "
            f"(arith.EPSILON_CAP); needed {epsilon}"
        )
    ep, eq = epsilon.numerator, epsilon.denominator
    down, up = round_floor, round_ceiling
    l1 = (
        _floored_ln(_dyadic(_quotient_end(n, 1, wp, down)), wp, down),
        _floored_ln(_dyadic(_quotient_end(n, 1, wp, up)), wp, up),
    )
    (m1, e1), (m1h, e1h) = l1
    if eq == 1:
        power = (m1 ** ep, e1 * ep), (m1h ** ep, e1h * ep)
        l2 = _floored_ln(l1[0], wp, down), _floored_ln(l1[1], wp, up)
    else:
        ln_l1 = _ln(l1[0], wp, down), _ln(l1[1], wp, up)
        (m, e), (mh, eh) = ln_l1
        power = _exp_end(ep * m, eq, wp, down, e), _exp_end(ep * mh, eq, wp, up, eh)
        l2 = _at_least_one(ln_l1[0]), _at_least_one(ln_l1[1])
    return wp, power, l1, l2


def log_power_bounds(
    n: int, epsilon: RationalLike, precision: int = 128
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Certified enclosures of (ln n)^epsilon and of the two floored logs
    it comes with, max(1, ln n) and max(1, ln ln n); every log is read as
    max(1, ln x).

    Each is a (lower, upper) pair of exact dyadic Fractions, those of the
    interval context's chain of floored logs, bit for bit.  The chain
    stays in integers: an integer epsilon raises the ends of ln n
    exactly, and a fractional one is exp(epsilon·ln ln n) on ln ln n
    before the floor, which max(1, ln ln n) then reuses.  epsilon is at
    most EPSILON_CAP.  damping_bounds reads the same ends (_log_power).
    """
    _, *ends = _log_power(n, epsilon, precision)
    return tuple((_fraction(lo), _fraction(hi)) for lo, hi in ends)


def damping_bounds(
    n: int, epsilon: RationalLike, hpv_c: RationalLike, precision: int = 128
) -> tuple[tuple[_Dyadic, _Dyadic], ...]:
    """Certified enclosures of the divergence table's three damping factors
    at n: (ln n)^epsilon, exp(hpv_c·ln n/ln ln n) and
    (ln n)^(epsilon·ln ln ln n), every log read as max(1, ln x).

    Each factor is a (lower, upper) pair of dyadic ends (man, exp), the
    value man·2^exp with man odd.  The first factor and the floored logs
    ln n and ln ln n that the other two reuse are log_power_bounds' ends;
    all of them are the interval context's on its chain ln n, ln ln n,
    ln ln ln n, bit for bit.  Each log of the chain takes the end before
    it straight into libmp, and each exponent is reduced with one gcd.
    """
    if hpv_c < 0:
        raise DomainError("damping_bounds requires hpv_c >= 0")
    wp, damped, ((m1, e1), (m1h, e1h)), l2 = _log_power(n, epsilon, precision)
    ep, eq = epsilon.numerator, epsilon.denominator
    cp, cq = hpv_c.numerator, hpv_c.denominator
    down, up = round_floor, round_ceiling
    (m2, e2), (m2h, e2h) = l2
    (m3, e3), (m3h, e3h) = _floored_ln(l2[0], wp, down), _floored_ln(l2[1], wp, up)
    hpv = (
        _exp_end(cp * m1, cq * m2h, wp, down, e1 - e2h),
        _exp_end(cp * m1h, cq * m2, wp, up, e1h - e2),
    )
    bhhv = (
        _exp_end(ep * m3 * m2, eq, wp, down, e3 + e2),
        _exp_end(ep * m3h * m2h, eq, wp, up, e3h + e2h),
    )
    return damped, hpv, bhhv


_FLOOR_GUARD = Fraction(1, 1 << 64)


def guarded_floor(lo: Fraction, hi: Fraction) -> int:
    """floor of the value enclosed by [lo, hi], certified.

    Refuses (PrecisionGuardError) when the enclosure straddles an integer or
    approaches one within 2^-64: a floor read off such an enclosure could
    silently flip with precision.
    """
    if hi < lo:
        raise DomainError("empty enclosure")
    f_lo = math.floor(lo)
    if f_lo != math.floor(hi):
        raise PrecisionGuardError(
            "enclosure straddles an integer; floor not certified (retry with more bits)"
        )
    if lo - f_lo < _FLOOR_GUARD or f_lo + 1 - hi < _FLOOR_GUARD:
        raise PrecisionGuardError(
            "value within guard distance of an integer; floor not certified"
        )
    return f_lo


# ln b endpoints for log_weight_integral: _log_steps = (precision, lo, hi,
# cum_lo, cum_hi), lo[b] and hi[b] the two _ln ends of the end b (exact,
# as b <= INTEGRAL_CAP < 2^wp), those of log_bounds(b, precision), 0 at
# b = 0, as integers on the 2^-(precision + 33) grid: mpmath rounds
# ln b >= ln 2 > 1/2 to precision + 32 significant bits, so every endpoint
# is a multiple of 2^-(precision + 32), and the grid keeps a bit to spare.
# cum_lo[b] and cum_hi[b] are the sums of lo and hi over c <= b.  One
# precision at a time, grown on demand and all four lists in step: at most
# INTEGRAL_CAP + 1 entries each (b with its ends and their prefix sums).

_log_steps: tuple[int | None, list[int], list[int], list[int], list[int]] = (
    None, [0], [0], [0], [0]
)


def _log_steps_upto(
    b_max: int, precision: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The step table and its cumulative sums at precision, grown to
    cover b_max."""
    global _log_steps
    wp = _working_bits(precision)
    if _log_steps[0] != precision:
        _log_steps = (precision, [0], [0], [0], [0])
    _, lo, hi, cum_lo, cum_hi = _log_steps
    bits = wp + 1
    for b in range(len(lo), b_max + 1):
        x = _dyadic(_quotient_end(b, 1, wp, round_floor))
        ends = [_ln(x, wp, rnd) for rnd in (round_floor, round_ceiling)]
        # a nonzero libmp mantissa is odd: an exponent below -bits is off the grid
        if min(exp for _, exp in ends) < -bits:
            raise PrecisionGuardError(f"ln {b} endpoint is off the 2^-{bits} ln grid")
        for table, cum, (man, exp) in zip((lo, hi), (cum_lo, cum_hi), ends):
            step = man << (exp + bits)
            table.append(step)
            cum.append(cum[-1] + step)
    return lo, hi, cum_lo, cum_hi


def log_weight_integral(t: int, x: RationalLike, precision: int = 128) -> Approx:
    """Σ_{b <= x, gcd(b,t)=1} ln(x/b), certified.

    This equals ∫_1^x (#{b <= θ : gcd(b,t)=1}/θ) dθ/θ ... the distribution-
    function integral behind the overlap bound, collapsed to a finite log sum.
    Error is guaranteed <= 2^(-precision + ceil(log2 count)).

    The count and the endpoint sums of the ln b are Möbius sums
    Σ_{d | t} μ(d)·S_d(floor(x/d)) over the squarefree divisors d <= x of
    t, where S_d(q) sums the grid endpoints of ln(c·d) for c <= q.  S_1 is
    one lookup in the step table's cumulative sums; each d > 1 is a
    strided slice of the table, O(x·(Π_{p | t}(1 + 1/p) - 1)) integer
    additions in all.  The ends of ln x stay libmp's dyadic (man, exp)
    pairs, and both bounds are integers on one 2^-S grid, S >= precision
    + 33, until the result's two Fractions.  t is factorized, so it is
    bounded through SIEVE_CAP.
    """
    if t < 1:
        raise DomainError("log_weight_integral requires t >= 1")
    x = Fraction(x)
    if x < 1:
        raise DomainError("log_weight_integral requires x >= 1")
    b_max = math.floor(x)
    if b_max > INTEGRAL_CAP:
        raise CapExceededError(
            f"log_weight_integral limited to {INTEGRAL_CAP} "
            f"(arith.INTEGRAL_CAP); needed {b_max}"
        )
    wp = _working_bits(precision)
    num, den = x.numerator, x.denominator
    (man_lo, exp_lo), (man_hi, exp_hi) = (
        _ln(_dyadic(_quotient_end(num, den, wp, rnd)), wp, rnd)
        for rnd in (round_floor, round_ceiling)
    )
    steps_lo, steps_hi, cum_lo, cum_hi = _log_steps_upto(b_max, precision)
    count = sum_lo = sum_hi = 0
    for d, mu in _squarefree_divisors(((p, 1, -1) for p, _ in factorize(t)), b_max):
        q = b_max // d
        count += mu * q
        if d == 1:
            sum_lo += mu * cum_lo[q]
            sum_hi += mu * cum_hi[q]
        else:
            sum_lo += mu * sum(steps_lo[d : q * d + 1 : d])
            sum_hi += mu * sum(steps_hi[d : q * d + 1 : d])
    # count·ln x - Σ ln b on the 2^-shift grid: the ln b sums sit on the
    # 2^-(wp + 1) grid, and the ends of ln x may fall below it
    grid = wp + 1
    shift = max(grid, -exp_lo, -exp_hi)
    lo = (count * man_lo << (exp_lo + shift)) - (sum_hi << (shift - grid))
    hi = (count * man_hi << (exp_hi + shift)) - (sum_lo << (shift - grid))
    if lo < 0:
        lo = 0  # integrand is nonnegative; rounding can dip below
    if hi < lo:
        raise DomainError("empty enclosure")
    den = 1 << (shift + 1)
    out = Approx(Fraction(lo + hi, den), Fraction(hi - lo, den))
    ceil_log2 = (count - 1).bit_length() if count else 0
    if precision > ceil_log2 and hi - lo > 1 << (shift + 1 - precision + ceil_log2):
        raise PrecisionGuardError(
            f"integral error {float(out.err):.3g} exceeds 2^-{precision - ceil_log2}"
        )
    return out


# ---------------------------------------------------------------------------
# rational scales ê_k for e^k

_E_SERIES_TERMS = 40
# Σ_{i<=40} 1/i!; truncation error 0 < e - _E_SERIES < 2/41! < 1.9e-50.
_E_SERIES = sum(Fraction(1, math.factorial(i)) for i in range(_E_SERIES_TERMS + 1))

_EHAT_DEN_LIMIT = 10 ** 8
# Budget left to limit_denominator: 9e-13 here plus k * 2e-50 series effect
# stays under the contracted relative 1e-12 for all k <= SCALE_CAP.
_EHAT_BUILD_TOL = Fraction(9, 10 ** 13)


@lru_cache(maxsize=None)
def exp_rational(k: int) -> Fraction:
    """Small-denominator rational ê_k with |ê_k - e^k| <= e^k * 1e-12.

    The scales increase strictly, 1 = ê_0 < ê_1 < ...; each k checks
    ê_k > ê_(k-1) once, on its first (cached) call.
    """
    if k < 0:
        raise DomainError("exp_rational requires k >= 0")
    if k > SCALE_CAP:
        raise CapExceededError(
            f"scale ladder limited to k <= {SCALE_CAP} (arith.SCALE_CAP); needed {k}"
        )
    if k == 0:
        return Fraction(1)
    target = _E_SERIES ** k
    approx = target.limit_denominator(_EHAT_DEN_LIMIT)
    if abs(approx - target) > target * _EHAT_BUILD_TOL:
        raise PrecisionGuardError(f"exp_rational({k}) misses its tolerance")
    if approx <= exp_rational(k - 1):
        raise PrecisionGuardError(f"exp_rational({k}) does not exceed ê_{k - 1}")
    return approx
