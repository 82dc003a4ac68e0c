"""Pairwise overlap machinery for coprime arc systems.

Decomposes a pair (m, n) by equal/unequal prime exponents and computes, at
each scale ê_k of a ladder, the exact overlap ratio of the scaled arc
systems, the restricted Euler product bounding it and the certified
integral form of that bound, all scales of a pair in one kernel call.

decompose_pair stores the pair's scale D = Delta*r*t = Delta*lcm(m, n).
Every other per-scale field is one function of D and ê_k, compared in
integers by cross-multiplication: overlap_cutoff (D_k = D/ê_k),
prime_product_bound (the primes p | t above D_k), disjoint_predicted
(2*D_k <= 1), _threshold_class and overlap_integral_bound (the window
4*D_k).  overlap_records reads each field through these functions.
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
    frac_str,
    log_bounds,
    log_power_bounds,
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

    delta/Delta are the scaled half-widths min/max of psi(m)/m, psi(n)/n,
    and D = Delta*r*t = Delta*lcm(m, n) is the pair's scale.
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
    D: Fraction


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
    lcm = m // gcd * n
    psi_m = psi.value(m)
    psi_n = psi.value(n)
    dm = psi_m / m
    dn = psi_n / n
    Delta = max(dm, dn)
    return PairDecomposition(
        m=m, n=n, gcd=gcd, r=r, s=gcd // r, t=lcm // r,
        psi_m=psi_m, psi_n=psi_n,
        delta=min(dm, dn), Delta=Delta, D=Delta * lcm,
    )


def _scaled(dec: PairDecomposition, k: int) -> tuple[int, int]:
    """D_k = D/ê_k as the integers (x, u) with D_k = x/u, uncancelled, so
    each field compares D with ê_k by cross-multiplication."""
    e = exp_rational(k)
    return dec.D.numerator * e.denominator, dec.D.denominator * e.numerator


def overlap_cutoff(dec: PairDecomposition, k: int = 0) -> Fraction:
    """The prime cutoff D_k = Delta*r*t/ê_k = max(n*psi(m), m*psi(n)) / (ê_k * gcd).

    Kept as the raw rational (no floor at 1); an empty product handles
    small cutoffs naturally.
    """
    return Fraction(*_scaled(dec, k))


def prime_product_bound(dec: PairDecomposition, k: int = 0) -> Fraction:
    """Exact Π (1 - 1/p)^(-1) over primes p | t with p > D_k; >= 1.

    Every unequal exponent strictly increases from s to t, so these are
    also the primes of t/s.
    """
    x, u = _scaled(dec, k)
    num = den = 1
    for p, _ in factorize(dec.t):
        if p * u > x:
            num *= p
            den *= p - 1
    return Fraction(num, den)


def disjoint_predicted(dec: PairDecomposition, k: int = 0) -> bool:
    """Exact disjointness test: 2*D_k = 2*Delta*r*t/ê_k <= 1 forces empty overlap."""
    x, u = _scaled(dec, k)
    return 2 * x <= u


def _threshold_class(dec: PairDecomposition, k: int, top: int) -> str:
    """Place the window 4*D_k against 1 and the ladder top ê_top."""
    x, u = _scaled(dec, k)
    e_top = exp_rational(top)
    if 4 * x <= u:
        return "below-1"
    if 4 * x * e_top.denominator <= u * e_top.numerator:
        return "in-window"
    return "above-window"


def overlap_integral_bound(
    dec: PairDecomposition, k: int = 0, precision: int = 128
) -> Approx:
    """Certified (t/phi(t)) * integral / D_k diagnostic bound.

    The integral is the coprime log-weight sum over b <= 4*D_k; an empty
    window (4*D_k <= 1) gives exactly 0.
    """
    x, u = _scaled(dec, k)
    if 4 * x <= u:
        return Approx(Fraction(0), Fraction(0))
    integral = log_weight_integral(dec.t, Fraction(4 * x, u), precision)
    # t/(phi(t)*D_k) = ê_k/(phi(t)*Delta*r)
    return integral.scale(Fraction(dec.t * u, totient(dec.t) * x))


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
    top = max(ks, default=0)
    rads_m = [dec.psi_m / e for e in ladder]
    rads_n = [dec.psi_n / e for e in ladder]
    overlaps = coprime_intersection_sums(
        arc_event(n, rads_n), [arc_event(m, rads_m)]
    )
    records = {}
    for k, rm, rn, overlap in zip(scales, rads_m, rads_n, overlaps):
        mu = coprime_measure(m, rm) * coprime_measure(n, rn)
        records[k] = OverlapRecord(
            m=m, n=n, k=k, r=dec.r, s=dec.s, t=dec.t, gcd=dec.gcd,
            delta=dec.delta, Delta=dec.Delta,
            cutoff=overlap_cutoff(dec, k),
            pv_product=prime_product_bound(dec, k),
            p_exact=overlap / mu if mu else Fraction(0),
            integral=(
                overlap_integral_bound(dec, k, precision) if with_integral else None
            ),
            disjoint_pred=disjoint_predicted(dec, k),
            threshold_class=_threshold_class(dec, k, top),
        )
    return [records[k] for k in ks]


def averaging_reference(n: int, top: int, precision: int = 128) -> Approx:
    """Certified max(1, ln top) * max(1, ln max(1, ln n)).

    The comparison value the averaged sum is measured against, under the
    all-logs-positive convention: the ends of log_bounds(top) floored at 1,
    and the floored ln ln n that arith.log_power_bounds returns for n.
    """
    lk_lo, lk_hi = (max(1, end) for end in log_bounds(top, precision))
    _, _, (lln_lo, lln_hi) = log_power_bounds(n, 1, precision)
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
