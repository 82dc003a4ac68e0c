"""Pairwise overlap machinery for coprime arc systems.

Decomposes a pair (m, n) by equal/unequal prime exponents and computes, at
each scale ê_k of a ladder, the exact overlap ratio of the scaled arc
systems, the restricted Euler product bounding it and the certified
integral form of that bound, all scales of a pair in one kernel call.

Every other per-scale field comes from one per-pair scale
D = Delta*r*t = Delta*lcm(m, n), compared with ê_k in integers: the
cutoff D_k = D/ê_k, the primes p | t above it, the disjoint test
2*D_k <= 1 and the window 4*D_k of the threshold class and the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import (
    Approx,
    exp_rational,
    factorize,
    floored_log_bounds,
    frac_str,
    log_weight_integral,
    totient,
)
from .circles import arc_event, coprime_intersection_sums, coprime_measure
from .errors import DomainError
from .psi import PsiFunction

CSV_COLUMNS = (
    "m", "n", "k", "r", "s", "t", "gcd", "delta", "Delta", "D_k",
    "pv_product", "P_exact_num", "P_exact_den", "integral_bound",
    "integral_err", "disjoint_pred", "threshold_class",
)


@dataclass(frozen=True)
class PairDecomposition:
    """Split of (m, n) by prime exponents: r collects the equal-exponent
    part, s the smaller and t the larger unequal-exponent parts, so that
    m*n = r^2*s*t and gcd(m, n) = r*s with s | t.

    delta/Delta are the scaled half-widths min/max of psi(m)/m, psi(n)/n.
    """

    m: int
    n: int
    gcd: int
    r: int
    s: int
    t: int
    psi_m: Fraction
    psi_n: Fraction
    delta: Fraction
    Delta: Fraction


def decompose_pair(m: int, n: int, psi: PsiFunction) -> PairDecomposition:
    """Exponent-comparison decomposition of a distinct pair: r = Π p^e over
    the primes p whose exponent e is the same in m and n, t = lcm(m, n)/r
    and s = gcd(m, n)/r."""
    if m == n:
        raise DomainError("pair decomposition requires m != n")
    if m < 1 or n < 1:
        raise DomainError("pair entries must be >= 1")
    em = dict(factorize(m))
    r = math.prod(p ** e for p, e in factorize(n) if em.get(p) == e)
    gcd = math.gcd(m, n)
    psi_m = psi.value(m)
    psi_n = psi.value(n)
    dm = psi_m / m
    dn = psi_n / n
    return PairDecomposition(
        m=m, n=n, gcd=gcd, r=r, s=gcd // r, t=m // gcd * n // r,
        psi_m=psi_m, psi_n=psi_n,
        delta=min(dm, dn), Delta=max(dm, dn),
    )


class _PairScale:
    """A pair's scale D = Delta*r*t = Delta*lcm(m, n) as the integers dn/dd.

    Each method reads one field at a scale e = ê_k by comparing D with e
    through cross-multiplication, and builds at most one Fraction.
    """

    __slots__ = ("dn", "dd", "t", "primes", "div_n", "div_d")

    def __init__(self, dec: PairDecomposition):
        d = dec.Delta * (dec.r * dec.t)
        self.dn, self.dd = d.numerator, d.denominator
        self.t = dec.t
        self.primes = [p for p, _ in factorize(dec.t)]
        # phi(t)*Delta*r = phi(t)*D/t, the divisor of the integral bound
        self.div_n, self.div_d = totient(dec.t) * self.dn, self.dd * dec.t

    def cutoff(self, e: Fraction) -> Fraction:
        return Fraction(self.dn * e.denominator, self.dd * e.numerator)

    def pv_product(self, e: Fraction) -> Fraction:
        lower, unit = self.dn * e.denominator, self.dd * e.numerator
        num = den = 1
        for p in self.primes:
            if p * unit > lower:
                num *= p
                den *= p - 1
        return Fraction(num, den)

    def disjoint(self, e: Fraction) -> bool:
        return 2 * self.dn * e.denominator <= self.dd * e.numerator

    def threshold_class(self, e: Fraction, e_top: Fraction) -> str:
        window, unit = 4 * self.dn * e.denominator, self.dd * e.numerator
        if window <= unit:
            return "below-1"
        if window * e_top.denominator <= unit * e_top.numerator:
            return "in-window"
        return "above-window"

    def integral(self, e: Fraction, precision: int) -> Approx:
        window, unit = 4 * self.dn * e.denominator, self.dd * e.numerator
        if window <= unit:
            return Approx(Fraction(0), Fraction(0))
        integral = log_weight_integral(self.t, Fraction(window, unit), precision)
        return integral.scale(
            Fraction(e.numerator * self.div_d, e.denominator * self.div_n)
        )


def overlap_cutoff(dec: PairDecomposition, k: int = 0) -> Fraction:
    """The prime cutoff D_k = Delta*r*t/ê_k = max(n*psi(m), m*psi(n)) / (ê_k * gcd).

    Kept as the raw rational (no floor at 1); an empty product handles
    small cutoffs naturally.
    """
    return _PairScale(dec).cutoff(exp_rational(k))


def prime_product_bound(dec: PairDecomposition, k: int = 0) -> Fraction:
    """Exact Π (1 - 1/p)^(-1) over primes p | t with p > D_k; >= 1.

    Every unequal exponent strictly increases from s to t, so these are
    also the primes of t/s.
    """
    return _PairScale(dec).pv_product(exp_rational(k))


def disjoint_predicted(dec: PairDecomposition, k: int = 0) -> bool:
    """Exact disjointness test: 2*D_k = 2*Delta*r*t/ê_k <= 1 forces empty overlap."""
    return _PairScale(dec).disjoint(exp_rational(k))


def overlap_integral_bound(
    dec: PairDecomposition, k: int = 0, precision: int = 128
) -> Approx:
    """Certified (t/phi(t)) * integral / D_k diagnostic bound.

    The integral is the coprime log-weight sum over b <= 4*D_k; an empty
    window (4*D_k <= 1) gives exactly 0.
    """
    return _PairScale(dec).integral(exp_rational(k), precision)


@dataclass(frozen=True)
class OverlapRecord:
    """One (m, n, k) overlap computation, shaped for the fixed CSV columns."""

    m: int
    n: int
    k: int
    r: int
    s: int
    t: int
    gcd: int
    delta: Fraction
    Delta: Fraction
    cutoff: Fraction
    pv_product: Fraction
    p_exact: Fraction
    integral: Approx | None
    disjoint_pred: bool
    threshold_class: str

    def csv_row(self) -> list[str]:
        return [
            str(self.m), str(self.n), str(self.k),
            str(self.r), str(self.s), str(self.t), str(self.gcd),
            frac_str(self.delta), frac_str(self.Delta), frac_str(self.cutoff),
            frac_str(self.pv_product),
            str(self.p_exact.numerator), str(self.p_exact.denominator),
            frac_str(self.integral.value) if self.integral is not None else "",
            frac_str(self.integral.err) if self.integral is not None else "",
            "true" if self.disjoint_pred else "false",
            self.threshold_class,
        ]


def overlap_records(
    m: int,
    n: int,
    psi: PsiFunction,
    ks: Sequence[int],
    precision: int = 128,
    with_integral: bool = True,
) -> list[OverlapRecord]:
    """Overlap records of one pair, one per k in ks, in the order of ks.

    P = measure(A ∩ B)/(measure(A)·measure(B)) for the coprime arc systems
    of m, n with radii psi/ê_k, from one decomposition, two events with a
    column per distinct k in ascending order (so no column is wider than
    the one before it), one kernel call and the measure law.  A zero
    measure gives P = 0 (the dropped-term convention).  Windows are
    classified against ê_max(ks).
    """
    dec = decompose_pair(m, n, psi)
    scales = sorted(set(ks))
    ladder = [exp_rational(k) for k in scales]
    e_top = exp_rational(max(ks, default=0))
    rads_m = [dec.psi_m / e for e in ladder]
    rads_n = [dec.psi_n / e for e in ladder]
    overlaps = coprime_intersection_sums(
        arc_event(n, rads_n), [arc_event(m, rads_m)]
    )
    pair = _PairScale(dec)
    fields = {}
    for k, e, rm, rn, overlap in zip(scales, ladder, rads_m, rads_n, overlaps):
        mu = coprime_measure(m, rm) * coprime_measure(n, rn)
        fields[k] = dict(
            cutoff=pair.cutoff(e),
            pv_product=pair.pv_product(e),
            p_exact=overlap / mu if mu else Fraction(0),
            integral=pair.integral(e, precision) if with_integral else None,
            disjoint_pred=pair.disjoint(e),
            threshold_class=pair.threshold_class(e, e_top),
        )
    return [
        OverlapRecord(
            m=m, n=n, k=k, r=dec.r, s=dec.s, t=dec.t, gcd=dec.gcd,
            delta=dec.delta, Delta=dec.Delta, **fields[k],
        )
        for k in ks
    ]


def averaging_reference(n: int, top: int, precision: int = 128) -> Approx:
    """Certified max(1, ln top) * max(1, ln max(1, ln n)).

    The comparison value the averaged sum is measured against, under the
    all-logs-positive convention.
    """
    lk_lo, lk_hi = floored_log_bounds(top, top, precision)
    ln = floored_log_bounds(n, n, precision)
    lln_lo, lln_hi = floored_log_bounds(*ln, precision)
    return Approx.from_bounds(lk_lo * lln_lo, lk_hi * lln_hi)


def averaged_sum(
    m: int,
    n: int,
    psi: PsiFunction,
    top: int,
    precision: int = 128,
) -> tuple[Fraction, list[OverlapRecord], Approx]:
    """Σ_{k=1..top} of the exact overlap ratios, with per-k records.

    Returns (total, records, reference) where reference is the certified
    ln(top)*ln(ln(n)) comparison value.  Every record carries its certified
    integral bound.
    """
    if top < 1:
        raise DomainError("averaged_sum requires top >= 1")
    records = overlap_records(m, n, psi, range(1, top + 1), precision)
    total = sum((rec.p_exact for rec in records), Fraction(0))
    return total, records, averaging_reference(n, top, precision)
