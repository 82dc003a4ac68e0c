"""Coprime arc systems on the unit circle and their exact overlaps.

Production code uses only the measure law (coprime_measure) and the
closed-form overlap kernel (coprime_intersection_sums), which build no
arcs.  The kernel reads prepared events: arc_event validates m and its
radii, refuses a column wider than the one before it, factorizes m and
stores each radius as integers, once per event, and callers hold the
event for every row it joins.  Per pair, the kernel turns the two prime
factorizations into its inclusion-exclusion terms in one pass
(_pair_terms), and one walk over the columns sums them, one column at a
time.  The arc sets (CircleIntervalSet: sorted, merged integer endpoints
over one gcd-reduced denominator) and intersect, intersection_measure
and midpoint_grid_measure are the tests' independent reference routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .arith import RationalLike, factorize, totient
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


@dataclass(frozen=True, slots=True)
class ArcEvent:
    """The coprime arc systems E_m(radius) of one m, one per column,
    prepared for coprime_intersection_sums; built only by arc_event.

    factors is factorize(m); radii[i] is the radius of column i in lowest
    terms, as the integer pair (numerator, denominator), and no radius
    exceeds the one before it.
    """

    m: int
    factors: tuple[tuple[int, int], ...]
    radii: tuple[tuple[int, int], ...]


def arc_event(m: int, rads: Sequence[RationalLike]) -> ArcEvent:
    """The event E_m with column radii rads, in lowest terms, for the kernel.

    Validates m and each radius as coprime_arcs does (DomainError outside
    m >= 1 and [0, 1/2]), refuses a radius wider than the column before
    it (DomainError naming the column) and factorizes m, here and only
    here: callers build one event per m and pass the same object as a
    row's target and in the event list of every row it joins.
    """
    checked = [_arc_radius(m, radius) for radius in rads]
    radii = tuple((r.numerator, r.denominator) for r in checked)
    for i, ((x, d), (x_next, d_next)) in enumerate(zip(radii, radii[1:]), 1):
        if x_next * d > x * d_next:
            raise DomainError(
                f"event {m}: column {i} radius {checked[i]} is wider than "
                f"column {i - 1} radius {checked[i - 1]}"
            )
    return ArcEvent(m, factorize(m), radii)


def _pair_terms(
    fm: tuple[tuple[int, int], ...], primes_n: dict[int, int], g: int, reach: int
) -> tuple[int, int, list[tuple[int, int]]]:
    """(base, w(0)/base, terms) for m = Π p^a over fm and n = Π p^b over
    primes_n, with g = gcd(m, n): the pair's weights, expanded up to reach.

    The exponent split of m, n: r collects the primes with equal exponents;
    for the others s takes the smaller and t the larger power.  So
    m*n = r^2*s*t, gcd(m, n) = r*s, lcm(m, n) = r*t = P and s | t.  The
    centres a/m and b/n of two arcs differ by j/P mod 1, and the number of
    pairs of units a mod m, b mod n at offset j is w(j) = base *
    [gcd(j, t) = 1] * prod over p | r of (p - 2 + [p | j]), base =
    phi(s) * r / rad(r).  One walk over the primes of m, then over those of
    n prime to m (p ∤ g), builds base, w(0)/base and the expansion of
    w(j)/base as sum of c_D * [D | j] over the squarefree D <= reach with
    c_D != 0, in no particular order: a prime p | t contributes the
    factor (1 - [p | j]) and a prime p | r the factor (p - 2 + [p | j]),
    which is [2 | j] at p = 2, so no odd D is kept when 2 | r.
    """
    base = w0 = 1
    terms = [(1, 1)]
    for p, a in fm:
        b = primes_n.get(p, 0)
        top = reach // p
        if a == b:              # p | r
            if a > 1:
                base *= p ** (a - 1)
            w0 *= p - 1
            multiples = [(d * p, c) for d, c in terms if d <= top] if top else []
            if p == 2:
                terms = multiples
                continue
            if p > 3:
                terms = [(d, c * (p - 2)) for d, c in terms]
        else:                   # p | t, and p | s when both exponents are > 0
            lo = a if a < b else b
            if lo:
                base *= (p - 1) * p ** (lo - 1)
            w0 = 0
            if not top:
                continue
            multiples = [(d * p, -c) for d, c in terms if d <= top]
        terms += multiples
    for p in primes_n:          # the primes of n alone: p | t
        if g % p:
            w0 = 0
            top = reach // p
            if top:
                terms += [(d * p, -c) for d, c in terms if d <= top]
    return base, w0, terms


def coprime_intersection_sums(
    target: ArcEvent, events: Sequence[ArcEvent]
) -> list[Fraction]:
    """Column i: the sum over the events E_m of measure(E_m ∩ E_n) at the
    radii of column i, for the target E_n.

    The closed form of the pairwise overlaps, without building arcs: the
    pairs of arcs at each centre offset j/P, P = lcm(m, n), are counted
    from the prime exponents of m and n and their overlaps summed as
    arithmetic series.  The events come from arc_event, validated and
    factorized once each, so the walk reads integers only: with
    g = gcd(m, n), P = m·(n/g) and a radius x/d of m gives
    h_m·P = x·(n/g)/d, so per column h_m·P and h_n·P are a/q and b/q over
    q = lcm(d_m, d_n), which is d_m when the two agree.

    Each pair walks its columns in order.  A column is dead when a radius
    is 0, or when m != n and its reach floor((h_m + h_n)·P) is 0: a zero
    radius is the empty set, arcs whose centres are j/P apart with j != 0
    do not meet when the reach is 0, and w(0) = 0 unless m = n.  No column
    of an event is wider than the one before it (arc_event), so every
    column after a dead one is dead too, and the pair's first dead column
    ends its walk; a pair with a zero radius at column 0 stops before its
    gcd is taken.  At column 0, the widest reach, one pass over the
    primes of m against the target's prime exponents (a dict built once
    per call) gives the pair's weights already expanded over the
    squarefree D up to that reach (_pair_terms); they are sorted by D
    when a second column is live.

    Every live column then sums the same way, with h_m·P = a/q <=
    h_n·P = b/q after a swap.  Two arcs whose centres are j/P apart
    overlap in L(j) = max(0, min(2a, a + b - q|j|))/(q·P); the sum of
    w(j)·L(j) over j is, per term (D, c_D) of the weights, an arithmetic
    series with q1 = floor((b - a)/(qD)) <= q2 = floor((a + b)/(qD))
    terms.  reach is floor((a + b)/q): a term with D > reach has
    q2 = q1 = 0 and adds exactly 0, and the sum stops at the first one.
    That is exact on later columns because the terms are sorted, and on
    column 0 unsorted because _pair_terms returns only D <= reach, except
    D = 1 at reach 0, which adds 0.  The sum adds up small integers only:
    c_D·q1, c_D·q2 and c_D·D·(q2(q2 + 1) - q1(q1 + 1)), the last always
    even; a, b and q multiply the three sums once.  So each live column
    gives an integer over q·P; scaled to q·L, L = lcm(n, every m)
    (common), it joins the column's sum over the lcm of its q, which takes
    no gcd while the q agree, as in every column of select_scale.  Cost:
    O(2^omega(r*t)) integer operations per pair and live column, whatever
    m, n and the radii.  The sum runs over all integers j, not over
    j mod P: it intersects the two systems lifted to the real line, so
    arcs that meet on both sides of the circle count once at j and once
    at j - P.  That is exact whenever each system's arcs are disjoint,
    which holds for every radius in [0, 1/2], the domain of arc_event.
    """
    radii_n = target.radii
    n = target.m
    columns = len(radii_n)
    for event in events:
        if len(event.radii) != columns:
            raise DomainError(
                f"event {event.m} has {len(event.radii)} radii for {columns} columns"
            )
    if not columns:
        return []
    primes_n = dict(target.factors)     # read by every pair's _pair_terms
    common = math.lcm(n, *(e.m for e in events))    # L: each P divides it
    nums, dens = [0] * columns, [1] * columns   # column i: 2*num/(den*common)
    x_n = radii_n[0][0]
    for event in events:
        m = event.m
        radii_m = event.radii
        if not (radii_m[0][0] and x_n):
            continue
        g = math.gcd(m, n)
        co_m, co_n = n // g, m // g     # the cofactors n/g and m/g
        i = 0
        while i < columns:
            (x_m, d_m), (x_i, d_i) = radii_m[i], radii_n[i]
            if not (x_m and x_i):
                break
            q, a, b = d_m, x_m * co_m, x_i * co_n
            if d_m != d_i:
                q = math.lcm(d_m, d_i)
                a, b = a * (q // d_m), b * (q // d_i)
            if a > b:
                a, b = b, a
            reach = (a + b) // q
            if not (reach or m == n):
                break
            if not i:
                base, w0, terms = _pair_terms(event.factors, primes_n, g, reach)
                base *= common // (m * co_m)
            elif i == 1:
                terms.sort()
            low = (b - a) // q
            s1 = s2 = s3 = 0
            for d, c in terms:
                if d > reach:
                    break
                q1 = low // d
                q2 = reach // d
                s1 += c * q1
                s2 += c * q2
                s3 += c * d * (q2 * (q2 + 1) - q1 * (q1 + 1))
            # half the j = 0 term, then the j > 0 terms, which the j < 0
            # terms mirror
            acc = a * w0 + (a + b) * s2 - (b - a) * s1 - q * (s3 // 2)
            if acc:
                # add base*acc/q over dens[i], the lcm of the column's q
                if dens[i] != q:
                    den = math.lcm(dens[i], q)
                    nums[i] *= den // dens[i]
                    dens[i] = den
                    acc *= den // q
                nums[i] += base * acc
            i += 1
    return [Fraction(2 * num, den * common) for num, den in zip(nums, dens)]


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
