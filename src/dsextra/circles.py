"""Coprime arc systems on the unit circle and their exact overlaps.

Production code uses only the measure law (coprime_measure) and the
closed-form overlap kernel (coprime_intersection_sums), which build no
arcs.  The arc sets (CircleIntervalSet: sorted, merged integer endpoints
over one gcd-reduced denominator) and intersect, intersection_measure and
midpoint_grid_measure are the tests' independent reference routes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .arith import RationalLike, _squarefree_divisors, factorize, totient
from .errors import DomainError


class CircleIntervalSet:
    """Finite union of half-open arcs [lo, hi) in [0, 1].

    Instances are immutable by convention.  The raw constructor trusts its
    arguments; build arbitrary input through from_intervals, which
    canonicalizes.
    """

    __slots__ = ("denominator", "ends", "_fractions")

    def __init__(self, denominator: int, ends: tuple[tuple[int, int], ...]):
        self.denominator = denominator
        self.ends = ends
        self._fractions = None

    @classmethod
    def _merged(cls, denominator: int, ends) -> "CircleIntervalSet":
        # canonical form of integer arcs [l, r) over `denominator`, sorted
        # by l: merge touching or overlapping arcs, then reduce by the gcd
        merged: list[list[int]] = []
        for l, r in ends:
            if merged and l <= merged[-1][1]:
                if r > merged[-1][1]:
                    merged[-1][1] = r
            else:
                merged.append([l, r])
        ends = [(l, r) for l, r in merged]
        g = denominator
        for l, r in ends:
            g = math.gcd(g, l, r)
            if g == 1:
                break
        if g > 1:
            denominator //= g
            ends = [(l // g, r // g) for l, r in ends]
        return cls(denominator, tuple(ends))

    @classmethod
    def from_intervals(
        cls, pairs: Iterable[tuple[RationalLike, RationalLike]]
    ) -> "CircleIntervalSet":
        """Canonicalize arbitrary [lo, hi) pairs: sort, merge, reduce."""
        fr = []
        for lo, hi in pairs:
            lo = Fraction(lo)
            hi = Fraction(hi)
            if not 0 <= lo < hi <= 1:
                raise DomainError(f"arc [{lo}, {hi}) outside the unit circle")
            fr.append((lo, hi))
        if not fr:
            return EMPTY_SET
        d = math.lcm(*[x.denominator for pair in fr for x in pair])
        return cls._merged(d, sorted(
            (lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator))
            for lo, hi in fr
        ))

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        if self._fractions is None:
            d = self.denominator
            self._fractions = tuple(
                (Fraction(l, d), Fraction(r, d)) for l, r in self.ends
            )
        return self._fractions

    def measure(self) -> Fraction:
        return Fraction(sum(r - l for l, r in self.ends), self.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircleIntervalSet):
            return NotImplemented
        return self.denominator == other.denominator and self.ends == other.ends

    def __hash__(self) -> int:
        return hash((self.denominator, self.ends))

    def __repr__(self) -> str:
        return f"CircleIntervalSet({len(self.ends)} arcs, measure {self.measure()})"


EMPTY_SET = CircleIntervalSet(1, ())
FULL_SET = CircleIntervalSet(1, ((0, 1),))


@lru_cache(maxsize=4096)
def _coprime_residues(n: int) -> tuple[int, ...]:
    if n == 1:
        return (1,)
    return tuple(a for a in range(1, n) if math.gcd(a, n) == 1)


def _arc_radius(n: int, radius: RationalLike) -> Fraction:
    # the domain of a coprime arc system: n >= 1 and radius in [0, 1/2]
    if n < 1:
        raise DomainError("coprime arc systems require n >= 1")
    if not isinstance(radius, Fraction):
        radius = Fraction(radius)
    if radius.numerator < 0 or 2 * radius.numerator > radius.denominator:
        raise DomainError(f"radius {radius} outside [0, 1/2]")
    return radius


@lru_cache(maxsize=4096)
def coprime_arcs(n: int, radius: Fraction) -> CircleIntervalSet:
    """Union over reduced fractions a/n of arcs [(a-radius)/n, (a+radius)/n) mod 1.

    radius is the numerator-level half-width: each arc has half-width
    radius/n, so the total measure is exactly 2 * radius * phi(n) / n
    (consecutive coprime residues are 1/n apart, so arcs never properly
    overlap while radius <= 1/2).
    """
    radius = _arc_radius(n, radius)
    if radius == 0:
        return EMPTY_SET
    p, q = radius.numerator, radius.denominator
    d = n * q
    if n == 1:
        # single arc around 0/1 wraps the circle edge: split at 0
        ends = [(0, p), (q - p, q)]
    else:
        ends = [(a * q - p, a * q + p) for a in _coprime_residues(n)]
    return CircleIntervalSet._merged(d, ends)


def coprime_measure(n: int, radius: RationalLike) -> Fraction:
    """measure(coprime_arcs(n, radius)) = 2 * radius * phi(n) / n, from the
    measure law alone."""
    radius = _arc_radius(n, radius)
    return Fraction(2 * radius.numerator * totient(n), radius.denominator * n)


def _pair_weights(
    fm: tuple[tuple[int, int], ...], fn: tuple[tuple[int, int], ...]
) -> tuple[int, int, int, int, list[tuple[int, int, int]]]:
    """(r, t, base, w(0)/base, factors) for the pair with factorizations fm, fn.

    The exponent split of m, n: r collects the primes with equal exponents;
    for the others s takes the smaller and t the larger power.  So
    m*n = r^2*s*t, gcd(m, n) = r*s, lcm(m, n) = r*t = P and s | t.  The
    centres a/m and b/n of two arcs differ by j/P mod 1, and the number of
    pairs of units a mod m, b mod n at offset j is w(j) = base *
    [gcd(j, t) = 1] * prod over p | r of (p - 2 + [p | j]), base =
    phi(s) * r / rad(r).  The factors (p, a_p, b_p), in no particular
    order, give that product as prod of (a_p + b_p * [p | j]) over the
    primes of r*t, for _squarefree_divisors to expand.
    """
    em = dict(fm)
    r = t = base = w0 = 1
    factors = []
    for p, b in fn:
        a = em.pop(p, 0)
        if a == b:              # p | r
            r *= p ** a
            base *= p ** (a - 1)
            w0 *= p - 1
            factors.append((p, p - 2, 1))
        else:                   # p | t, and p | s when both exponents are > 0
            lo, hi = (a, b) if a < b else (b, a)
            t *= p ** hi
            if lo:
                base *= (p - 1) * p ** (lo - 1)
            w0 = 0
            factors.append((p, 1, -1))
    for p, a in em.items():     # the primes of m alone: p | t
        t *= p ** a
        w0 = 0
        factors.append((p, 1, -1))
    return r, t, base, w0, factors


def _half_widths(
    m: int, rad_m: Fraction, n: int, rad_n: Fraction
) -> tuple[int, int, int]:
    """(q, a, b) with the half-widths rad_m/m and rad_n/n equal to a/q and
    b/q in some order, a <= b, over their least common denominator q."""
    den_m = rad_m.denominator * m
    den_n = rad_n.denominator * n
    q = math.lcm(den_m, den_n)
    a = rad_m.numerator * (q // den_m)
    b = rad_n.numerator * (q // den_n)
    return (q, a, b) if a <= b else (q, b, a)


def _overlap_sum(
    a: int, b: int, q: int, period: int, w0: int, terms: Iterable[tuple[int, int]]
) -> int:
    """measure(E_m ∩ E_n) times q*P/(2*base), half-widths δ = a/q <= Δ = b/q.

    Two arcs whose centres are j/P apart overlap in
    L(j) = max(0, min(2δ, Δ + δ - |j|/P)); the sum of w(j) * L(j) over j is,
    per term (D, c_D) of the weights, an arithmetic series with
    q1 = floor((Δ - δ)P/D) <= q2 = floor((Δ + δ)P/D) terms.  A term with
    q2 = 0, D beyond (Δ + δ)P, has q1 = 0 and adds exactly 0; it is
    skipped, so the terms may come in any order and may be expanded for
    a wider pair of radii.
    """
    # half the j = 0 term, then the j > 0 terms, which the j < 0 terms mirror
    acc = a * w0 * period
    lo = (b - a) * period
    hi = (b + a) * period
    for d, c in terms:
        qd = q * d
        q2 = hi // qd
        if not q2:
            continue
        q1 = lo // qd
        acc += c * (
            period * (2 * a * q1 + (a + b) * (q2 - q1))
            - qd * (q2 * (q2 + 1) - q1 * (q1 + 1)) // 2
        )
    return acc


def coprime_intersection_sums(
    n: int,
    rads_n: Sequence[RationalLike],
    events: Iterable[tuple[int, Sequence[RationalLike]]],
) -> list[Fraction]:
    """Column i: the sum over (m, rads_m) in events of
    measure(coprime_arcs(m, rads_m[i]) ∩ coprime_arcs(n, rads_n[i])).

    The closed form of the pairwise overlaps, without building arcs: the
    pairs of arcs at each centre offset j/lcm(m, n) are counted from the
    prime exponents of m and n (_pair_weights) and their overlaps summed as
    arithmetic series (_overlap_sum).  n is factorized once; each event's
    weights are expanded once for all columns, over the squarefree
    D <= (h_m + h_n)·P of its widest column; each column adds its pairs as
    integers over one common denominator, one Fraction per column.  Cost:
    O(2^omega(r*t)) integer operations per pair and column, whatever m, n
    and the radii.  The sum runs over all integers j, not over j mod P: it
    intersects the two systems lifted to the real line, so arcs that meet
    on both sides of the circle count once at j and once at j - P.  That
    is exact whenever each system's arcs are disjoint, which holds for
    every radius in [0, 1/2], the domain of coprime_arcs.
    """
    rads_n = [_arc_radius(n, r) for r in rads_n]
    fn = factorize(n)
    nums = [0] * len(rads_n)
    dens = [1] * len(rads_n)    # column i sums to 2*nums[i]/dens[i]
    for m, rads_m in events:
        if len(rads_m) != len(rads_n):
            raise DomainError(
                f"event {m} has {len(rads_m)} radii for {len(rads_n)} columns"
            )
        r, t, base, w0, factors = _pair_weights(factorize(m), fn)
        period = r * t
        widths = []
        limit = 0
        for i, rad_m in enumerate(rads_m):
            rad_m = _arc_radius(m, rad_m)
            rad_n = rads_n[i]
            if rad_m and rad_n:
                q, a, b = _half_widths(m, rad_m, n, rad_n)
                widths.append((i, q, a, b))
                limit = max(limit, (a + b) * period // q)
        terms = _squarefree_divisors(factors, limit)
        for i, q, a, b in widths:
            acc = _overlap_sum(a, b, q, period, w0, terms)
            if acc:
                # add base*acc/(q*P) over the lcm of the column's denominators
                pair_den = q * period
                g = math.gcd(dens[i], pair_den)
                nums[i] = nums[i] * (pair_den // g) + base * acc * (dens[i] // g)
                dens[i] *= pair_den // g
    return [Fraction(2 * num, den) for num, den in zip(nums, dens)]


def intersect(a: CircleIntervalSet, b: CircleIntervalSet) -> CircleIntervalSet:
    """Exact intersection as a set, via Fraction comparisons.

    Deliberately a separate code path from intersection_measure (which
    works in scaled integers) so the two can cross-check each other.
    """
    ia, ib = a.intervals, b.intervals
    out = []
    i = j = 0
    while i < len(ia) and j < len(ib):
        lo = ia[i][0] if ia[i][0] >= ib[j][0] else ib[j][0]
        hi = ia[i][1] if ia[i][1] <= ib[j][1] else ib[j][1]
        if lo < hi:
            out.append((lo, hi))
        if ia[i][1] <= ib[j][1]:
            i += 1
        else:
            j += 1
    return CircleIntervalSet.from_intervals(out)


def intersection_measure(a: CircleIntervalSet, b: CircleIntervalSet) -> Fraction:
    """Exact Lebesgue measure of the intersection, integer sweep kernel."""
    if not a.ends or not b.ends:
        return Fraction(0)
    d = math.lcm(a.denominator, b.denominator)
    fa = d // a.denominator
    fb = d // b.denominator
    ea = a.ends if fa == 1 else [(l * fa, r * fa) for l, r in a.ends]
    eb = b.ends if fb == 1 else [(l * fb, r * fb) for l, r in b.ends]
    acc = 0
    i = j = 0
    la, lb = len(ea), len(eb)
    while i < la and j < lb:
        alo, ahi = ea[i]
        blo, bhi = eb[j]
        lo = alo if alo > blo else blo
        hi = ahi if ahi < bhi else bhi
        if lo < hi:
            acc += hi - lo
        if ahi <= bhi:
            i += 1
        else:
            j += 1
    return Fraction(acc, d)


def midpoint_grid_measure(
    a: CircleIntervalSet, b: CircleIntervalSet, m: int
) -> Fraction:
    """Counting oracle: fraction of midpoints (2i+1)/(2m) inside both sets.

    Independent of the sweep kernels (pure lattice counting), off from the
    exact intersection measure by at most (len(a.ends) + len(b.ends) + 2) / m.
    """
    if m < 1:
        raise DomainError("grid size must be >= 1")
    ra = _grid_ranges(a, m)
    rb = _grid_ranges(b, m)
    count = 0
    i = j = 0
    while i < len(ra) and j < len(rb):
        lo = max(ra[i][0], rb[j][0])
        hi = min(ra[i][1], rb[j][1])
        if lo < hi:
            count += hi - lo
        if ra[i][1] <= rb[j][1]:
            i += 1
        else:
            j += 1
    return Fraction(count, m)


def _grid_ranges(s: CircleIntervalSet, m: int) -> list[tuple[int, int]]:
    # indices i in [0, m) with lo <= (2i+1)/(2m) < hi, as half-open ranges
    out = []
    d = s.denominator
    for l, r in s.ends:
        first = -((-(2 * m * l - d)) // (2 * d))
        stop = -((-(2 * m * r - d)) // (2 * d))
        if first < 0:
            first = 0
        if stop > m:
            stop = m
        if stop > first:
            out.append((first, stop))
    return out
