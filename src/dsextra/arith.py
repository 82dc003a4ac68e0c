"""Exact arithmetic kernels: primes, totients, Euler products, harmonic
sums over coprime residues, and certified logarithms.

Everything here is exact (fractions.Fraction over arbitrary-size ints)
except the log helpers, which return certified enclosures: mpmath's
directed-rounding ln and exp (mpmath.libmp) at an explicit working
precision, converted back to exact dyadic rationals, so downstream
comparisons stay exact.  No mpmath context precision is read or written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable

from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_exp, mpf_log
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
SIEVE_CAP = 4_000_000        # largest prime table we will build
HARMONIC_CAP = 5_000         # largest floor(X) for coprime_harmonic
INTEGRAL_CAP = 50_000        # largest floor(X) for log_weight_integral
SCALE_CAP = 64               # largest k for exp_rational


# ---------------------------------------------------------------------------
# primes and factorization

_spf: list[int] = [0, 1]   # smallest-prime-factor table; _spf[0] unused
_primes: list[int] = []


def _ensure_sieve(limit: int) -> None:
    global _spf, _primes
    if limit < len(_spf):
        return
    if limit > SIEVE_CAP:
        raise CapExceededError(
            f"prime sieve limited to {SIEVE_CAP} (arith.SIEVE_CAP); needed {limit}"
        )
    size = min(max(limit + 1, 2 * len(_spf), 1 << 16), SIEVE_CAP + 1)
    spf = list(range(size))
    for p in range(2, math.isqrt(size - 1) + 1):
        if spf[p] == p:
            for q in range(p * p, size, p):
                if spf[q] == q:
                    spf[q] = p
    _spf = spf
    _primes = [i for i in range(2, size) if spf[i] == i]


@lru_cache(maxsize=1 << 17)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, multiplicity), ...) ascending.

    Walks the smallest-prime-factor table when it already covers n, and
    otherwise trial-divides by the sieved primes up to sqrt(n): a large n
    never grows the table past sqrt(n).
    """
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return ()
    if n < len(_spf):
        out = []
        m = n
        while m > 1:
            p = _spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        return tuple(out)
    # beyond the table: trial division by sieved primes up to sqrt(n)
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


def primes_up_to(x: int) -> list[int]:
    """All primes p <= x, ascending."""
    if x < 2:
        return []
    _ensure_sieve(x)
    import bisect

    return _primes[: bisect.bisect_right(_primes, x)]


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

def _euler_product(primes: Iterable[int]) -> Fraction:
    """Exact Π p/(p - 1) = Π (1 - 1/p)^(-1) over the given primes."""
    num = den = 1
    for p in primes:
        num *= p
        den *= p - 1
    return Fraction(num, den)


def _squarefree_divisors(
    factors: Iterable[tuple[int, int, int]], limit: int | None = None
) -> list[tuple[int, int]]:
    """Expand Π (a + b·[p | j]) over (p, a, b) as Σ c_d·[d | j].

    The p are distinct primes; d runs over their squarefree products and
    c_d = Π_{p | d} b · Π_{p ∤ d} a.  With (a, b) = (1, -1) for every p,
    c_d = μ(d): the Möbius sum over the squarefree divisors of Π p.  With a
    limit, only the d <= limit are expanded, d = 1 first.
    """
    terms = [(1, 1)]
    for p, a, b in factors:
        terms = [(d, c * a) for d, c in terms] + [
            (d * p, c * b) for d, c in terms if limit is None or d * p <= limit
        ]
    return terms


def mertens_product(x: RationalLike) -> Fraction:
    """Exact Π_{p <= x} (1 - 1/p)^(-1) over primes."""
    x = Fraction(x)
    if x < 0:
        raise DomainError("mertens_product requires x >= 0")
    return _euler_product(primes_up_to(math.floor(x)))


def restricted_prime_product(t: int, lower: RationalLike) -> Fraction:
    """Exact Π (1 - 1/p)^(-1) over distinct primes p | t with p > lower."""
    if t < 1:
        raise DomainError("restricted_prime_product requires t >= 1")
    return _euler_product(p for p, _ in factorize(t) if p > lower)


def coprime_density(t: int, theta: RationalLike) -> Fraction:
    """#{1 <= b <= theta : gcd(b, t) = 1} / theta, exact.

    The count is the Möbius sum Σ_{d | t} μ(d)·floor(theta/d) over the
    squarefree divisors of t.
    """
    if t < 1:
        raise DomainError("coprime_density requires t >= 1")
    theta = Fraction(theta)
    if theta < 1:
        raise DomainError("coprime_density requires theta >= 1")
    b_max = math.floor(theta)
    count = sum(
        mu * (b_max // d)
        for d, mu in _squarefree_divisors((p, 1, -1) for p, _ in factorize(t))
    )
    return Fraction(count) / theta


_harmonic_prefix: list[Fraction] = [Fraction(0)]


def _harmonic(m: int) -> Fraction:
    """H_m = Σ_{b <= m} 1/b, served from an exact prefix cache."""
    if m > HARMONIC_CAP:
        raise CapExceededError(
            f"harmonic prefix limited to {HARMONIC_CAP} (arith.HARMONIC_CAP); needed {m}"
        )
    h = _harmonic_prefix
    while len(h) <= m:
        h.append(h[-1] + Fraction(1, len(h)))
    return h[m]


def coprime_harmonic(t: int, x: RationalLike) -> Fraction:
    """Exact Σ_{b <= x, gcd(b,t)=1} 1/b.

    Evaluated by Moebius inversion over the squarefree divisors of t so the
    cost is ~2^omega(t) harmonic-prefix lookups instead of a fresh scan.
    """
    if t < 1:
        raise DomainError("coprime_harmonic requires t >= 1")
    x = Fraction(x)
    if x < 0:
        raise DomainError("coprime_harmonic requires x >= 0")
    b_max = math.floor(x)
    if b_max <= 0:
        return Fraction(0)
    total = Fraction(0)
    for d, mu in _squarefree_divisors((p, 1, -1) for p, _ in factorize(t)):
        q = b_max // d
        if q:
            total += Fraction(mu, d) * _harmonic(q)
    return total


def sieve_upper_bound(
    t: int, x: RationalLike
) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """Exact Π_{p <= x, p ∤ t} (1 - 1/p)^(-1), factored.

    Returns (bound, (full, dividing)) where full = Π_{p <= x} (1 - 1/p)^(-1)
    and dividing = Π_{p <= x, p | t} (1 - 1/p), so bound = full * dividing.
    The factored pair is exposed so callers can audit the factorization
    identity against an independently computed product.
    """
    if t < 1:
        raise DomainError("sieve_upper_bound requires t >= 1")
    x = Fraction(x)
    if x < 1:
        raise DomainError("sieve_upper_bound requires x >= 1")
    full = mertens_product(x)
    dividing = 1 / _euler_product(p for p, _ in factorize(t) if p <= x)
    return full * dividing, (full, dividing)


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


# The enclosures below call libmp at the explicit working precision
# wp = precision + _LOG_GUARD_BITS and read or set no context precision.
# Their endpoints are those of iv.log and iv.exp at wp bits: libmp's ln or
# exp, rounded down (up), of the lower (upper) end of iv.mpf(num) /
# iv.mpf(den), whose operands and quotient libmp rounds outward to wp bits.

def _quotient_end(num: int, den: int, wp: int, rnd: str):
    # the round_floor (lower) or round_ceiling (upper) end of num/den, den >= 1
    if den & (den - 1) == 0:
        # den = 2^k is exact at any precision, so rounding num and then
        # dividing by 2^k rounds num·2^-k once, as from_man_exp does
        return from_man_exp(num, 1 - den.bit_length(), wp, rnd)
    # num/den falls as den grows when num >= 0, and rises when num < 0
    den_rnd = rnd if num < 0 else (round_ceiling if rnd == round_floor else round_floor)
    return mpf_div(from_int(num, wp, rnd), from_int(den, wp, den_rnd), wp, rnd)


def _end(f, x: Fraction, precision: int, rnd: str) -> Fraction:
    # one end of the enclosure of the increasing libmp function f at x, exactly
    wp = precision + _LOG_GUARD_BITS
    sign, man, exp, _ = f(_quotient_end(x.numerator, x.denominator, wp, rnd), wp, rnd)
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _log_end(x: RationalLike, precision: int, rnd: str) -> Fraction:
    x = Fraction(x)
    if x <= 0:
        raise DomainError("log requires x > 0")
    return Fraction(0) if x == 1 else _end(mpf_log, x, precision, rnd)


# log_bounds(x, precision)[0] and [1], each computed alone
_log_lo = partial(_log_end, rnd=round_floor)
_log_hi = partial(_log_end, rnd=round_ceiling)


def log_bounds(x: RationalLike, precision: int = 128) -> tuple[Fraction, Fraction]:
    """Certified enclosure of ln(x) with exact dyadic rational endpoints.

    libmp's ln of the outward-rounded quotient at the explicit precision
    precision + 32 bits, as mpmath's interval context gives it, with no
    global state; ln 1 is exactly 0.  Fraction endpoints keep all later
    comparisons exact.
    """
    return _log_lo(x, precision), _log_hi(x, precision)


def floored_log_bounds(
    lo: RationalLike, hi: RationalLike, precision: int = 128
) -> tuple[Fraction, Fraction]:
    """Enclosure of max(1, ln x) over x in [lo, hi] — the all-logs-positive
    convention; a single point x is the interval [x, x]."""
    if hi < lo:
        raise DomainError("empty enclosure")
    one = Fraction(1)
    return max(_log_lo(lo, precision), one), max(_log_hi(hi, precision), one)


def exp_bounds(lo: Fraction, hi: Fraction, precision: int = 128) -> tuple[Fraction, Fraction]:
    """Certified enclosure of exp over the interval [lo, hi].

    Only exp(lo) rounded down and exp(hi) rounded up are computed, by libmp
    at precision + 32 bits as for log_bounds, with no global state.
    """
    if hi < lo:
        raise DomainError("empty enclosure")
    return _end(mpf_exp, lo, precision, round_floor), _end(mpf_exp, hi, precision, round_ceiling)


def pow_bounds(
    lo: Fraction, hi: Fraction, exponent: Fraction, precision: int = 128
) -> tuple[Fraction, Fraction]:
    """Certified enclosure of [lo, hi]^exponent for 0 < lo, exponent >= 0.

    Integer exponents stay exact; fractional ones go through
    exp(exponent * log), outward-rounded, computing only ln(lo) rounded
    down and ln(hi) rounded up.
    """
    if hi < lo:
        raise DomainError("empty enclosure")
    if lo <= 0:
        raise DomainError("pow_bounds requires a positive base interval")
    exponent = Fraction(exponent)
    if exponent < 0:
        raise DomainError("pow_bounds requires exponent >= 0")
    if exponent.denominator == 1:
        e = exponent.numerator
        return lo ** e, hi ** e
    return exp_bounds(
        exponent * _log_lo(lo, precision), exponent * _log_hi(hi, precision), precision
    )


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


# ln b endpoints for log_weight_integral: _log_steps = (precision, lo, hi),
# lo[b] and hi[b] the ends of log_bounds(b, precision) (0 at b = 0) as
# integers on the 2^-(precision + 33) grid: mpmath rounds ln b >= ln 2 > 1/2
# to precision + 32 significant bits, so every endpoint is a multiple of
# 2^-(precision + 32), and the grid keeps a bit to spare.  One precision at
# a time, grown on demand: at most INTEGRAL_CAP + 1 entries (b with its ends).

_log_steps: tuple[int | None, list[int], list[int]] = (None, [0], [0])


def _on_grid(x: Fraction, bits: int) -> int:
    # x times 2^bits, which must be an integer
    if (1 << bits) % x.denominator:
        raise PrecisionGuardError(f"log endpoint {x} is off the 2^-{bits} ln-endpoint grid")
    return x.numerator * ((1 << bits) // x.denominator)


def _log_steps_upto(b_max: int, precision: int) -> tuple[list[int], list[int]]:
    """The step table at precision, grown to cover b_max."""
    global _log_steps
    if _log_steps[0] != precision:
        _log_steps = (precision, [0], [0])
    _, lo, hi = _log_steps
    new = range(len(lo), b_max + 1)
    bits = precision + _LOG_GUARD_BITS + 1
    lo.extend(_on_grid(_log_lo(b, precision), bits) for b in new)
    hi.extend(_on_grid(_log_hi(b, precision), bits) for b in new)
    return lo, hi


def log_weight_integral(t: int, x: RationalLike, precision: int = 128) -> Approx:
    """Σ_{b <= x, gcd(b,t)=1} ln(x/b), certified.

    This equals ∫_1^x (#{b <= θ : gcd(b,t)=1}/θ) dθ/θ ... the distribution-
    function integral behind the overlap bound, collapsed to a finite log sum.
    Error is guaranteed <= 2^(-precision + ceil(log2 count)).

    The count and the endpoint sums of the ln b are Möbius sums
    Σ_{d | t} μ(d)·S_d(floor(x/d)) over the squarefree divisors d <= x of
    t, where S_d(q) sums the grid endpoints of ln(c·d) for c <= q: a
    strided slice of the step table, O(x·Π_{p | t}(1 + 1/p)) integer
    additions.  t is factorized, so like coprime_density it is bounded
    through SIEVE_CAP.
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
    lnx_lo, lnx_hi = log_bounds(x, precision)
    steps_lo, steps_hi = _log_steps_upto(b_max, precision)
    count = sum_lo = sum_hi = 0
    for d, mu in _squarefree_divisors(((p, 1, -1) for p, _ in factorize(t)), b_max):
        q = b_max // d
        count += mu * q
        sum_lo += mu * sum(steps_lo[d : q * d + 1 : d])
        sum_hi += mu * sum(steps_hi[d : q * d + 1 : d])
    grid = 1 << (precision + _LOG_GUARD_BITS + 1)
    lo = count * lnx_lo - Fraction(sum_hi, grid)
    hi = count * lnx_hi - Fraction(sum_lo, grid)
    if lo < 0:
        lo = Fraction(0)  # integrand is nonnegative; rounding can dip below
    out = Approx.from_bounds(lo, hi)
    ceil_log2 = (count - 1).bit_length() if count else 0
    if precision > ceil_log2:
        budget = Fraction(1, 1 << (precision - ceil_log2))
        if out.err > budget:
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
