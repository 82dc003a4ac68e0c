"""Unions of half-open arcs on the unit circle with exact rational endpoints.

The primary representation is integer endpoints over one common denominator
(made minimal by a global gcd reduction), so bulk measure and intersection
work stays in pure integer arithmetic; Fraction views are materialized
lazily.  Canonical form: arcs [lo, hi) with 0 <= lo < hi <= D, sorted,
pairwise separated (touching arcs are merged).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .arith import RationalLike
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

    def is_empty(self) -> bool:
        return not self.ends

    def __len__(self) -> int:
        return len(self.ends)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircleIntervalSet):
            return NotImplemented
        return self.denominator == other.denominator and self.ends == other.ends

    def __hash__(self) -> int:
        return hash((self.denominator, self.ends))

    def __repr__(self) -> str:
        return f"CircleIntervalSet({len(self.ends)} arcs, measure {self.measure()})"

    def contains(self, x: RationalLike) -> bool:
        """Membership of x (taken mod 1) in the union of half-open arcs."""
        x = Fraction(x)
        x -= math.floor(x)
        a, b = x.numerator, x.denominator
        d = self.denominator
        lo_i, hi_i = 0, len(self.ends)
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            if self.ends[mid][0] * b <= a * d:
                lo_i = mid + 1
            else:
                hi_i = mid
        if lo_i == 0:
            return False
        return a * d < self.ends[lo_i - 1][1] * b

    def covers(self, other: "CircleIntervalSet") -> bool:
        """True when every arc of `other` lies inside an arc of self."""
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        d = math.lcm(self.denominator, other.denominator)
        fs = d // self.denominator
        fo = d // other.denominator
        outer = self.ends
        j = 0
        for l, r in other.ends:
            l *= fo
            r *= fo
            while j < len(outer) and outer[j][1] * fs < r:
                j += 1
            if j == len(outer) or outer[j][0] * fs > l:
                return False
        return True

    def validate(self) -> None:
        """Raise DomainError unless in canonical form (test hook)."""
        d = self.denominator
        if d < 1:
            raise DomainError("nonpositive denominator")
        g = d
        prev_hi = None
        for l, r in self.ends:
            if not 0 <= l < r <= d:
                raise DomainError(f"arc ({l}, {r}) outside [0, {d}]")
            if prev_hi is not None and l <= prev_hi:
                raise DomainError("arcs out of order or not separated")
            prev_hi = r
            g = math.gcd(g, l, r)
        if self.ends and g != 1:
            raise DomainError("denominator not minimal")
        if not self.ends and d != 1:
            raise DomainError("empty set must have denominator 1")


EMPTY_SET = CircleIntervalSet(1, ())
FULL_SET = CircleIntervalSet(1, ((0, 1),))


@lru_cache(maxsize=4096)
def _coprime_residues(n: int) -> tuple[int, ...]:
    if n == 1:
        return (1,)
    return tuple(a for a in range(1, n) if math.gcd(a, n) == 1)


@lru_cache(maxsize=4096)
def coprime_arcs(n: int, radius: Fraction) -> CircleIntervalSet:
    """Union over reduced fractions a/n of arcs [(a-radius)/n, (a+radius)/n) mod 1.

    radius is the numerator-level half-width: each arc has half-width
    radius/n, so the total measure is exactly 2 * radius * phi(n) / n
    (consecutive coprime residues are 1/n apart, so arcs never properly
    overlap while radius <= 1/2).
    """
    if n < 1:
        raise DomainError("coprime_arcs requires n >= 1")
    radius = Fraction(radius)
    if radius < 0 or radius > Fraction(1, 2):
        raise DomainError(f"radius {radius} outside [0, 1/2]")
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


def union_measure(sets: Iterable[CircleIntervalSet]) -> Fraction:
    """Exact measure of the union of several arc systems."""
    intervals = sorted(
        (lo, hi) for s in sets for lo, hi in s.intervals
    )
    total = Fraction(0)
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def midpoint_grid_measure(
    a: CircleIntervalSet, b: CircleIntervalSet, m: int
) -> Fraction:
    """Counting oracle: fraction of midpoints (2i+1)/(2m) inside both sets.

    Independent of the sweep kernels (pure lattice counting), off from the
    exact intersection measure by at most (len(a) + len(b) + 2) / m.
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
