"""Pairwise overlap machinery for coprime arc systems.

Decomposes a pair (m, n) by equal/unequal prime exponents and computes, at
each scale ê_k of a ladder, the exact overlap ratio of the scaled arc
systems, the restricted Euler product bounding it and the certified
integral form of that bound, all scales of a pair in one kernel call.
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
    restricted_prime_product,
    totient,
)
from .circles import _pair_weights, coprime_intersection_sums, coprime_measure
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
    """Exponent-comparison decomposition of a distinct pair: r and t from
    the kernel's exponent walk (circles._pair_weights), s = gcd(m, n)/r."""
    if m == n:
        raise DomainError("pair decomposition requires m != n")
    if m < 1 or n < 1:
        raise DomainError("pair entries must be >= 1")
    r, t = _pair_weights(factorize(m), factorize(n))[:2]
    gcd = math.gcd(m, n)
    psi_m = psi.value(m)
    psi_n = psi.value(n)
    dm = psi_m / m
    dn = psi_n / n
    return PairDecomposition(
        m=m, n=n, gcd=gcd, r=r, s=gcd // r, t=t,
        psi_m=psi_m, psi_n=psi_n,
        delta=min(dm, dn), Delta=max(dm, dn),
    )


def overlap_cutoff(dec: PairDecomposition, k: int = 0) -> Fraction:
    """The prime cutoff max(n*psi(m), m*psi(n)) / (ê_k * gcd).

    Kept as the raw rational (no floor at 1); an empty product handles
    small cutoffs naturally.
    """
    return max(dec.n * dec.psi_m, dec.m * dec.psi_n) / (exp_rational(k) * dec.gcd)


def prime_product_bound(dec: PairDecomposition, k: int = 0) -> Fraction:
    """Exact Π (1 - 1/p)^(-1) over primes p | t with p > cutoff; >= 1.

    Every unequal exponent strictly increases from s to t, so these are
    also the primes of t/s.
    """
    return restricted_prime_product(dec.t, overlap_cutoff(dec, k))


def disjoint_predicted(dec: PairDecomposition, k: int = 0) -> bool:
    """Exact disjointness test: 2*Delta*r*t/ê_k <= 1 forces empty overlap."""
    return 2 * dec.Delta * dec.r * dec.t <= exp_rational(k)


def integration_window(dec: PairDecomposition, k: int = 0) -> Fraction:
    return 4 * dec.Delta * dec.r * dec.t / exp_rational(k)


def threshold_class(dec: PairDecomposition, k: int, top: int) -> str:
    """Classify the integration window against 1 and the ladder top ê_top."""
    w = integration_window(dec, k)
    if w <= 1:
        return "below-1"
    if w <= exp_rational(top):
        return "in-window"
    return "above-window"


def overlap_integral_bound(
    dec: PairDecomposition, k: int = 0, precision: int = 128
) -> Approx:
    """Certified (t/phi(t)) * integral / (Delta*r*t/ê_k) diagnostic bound.

    The integral is the coprime log-weight sum over b <= 4*Delta*r*t/ê_k;
    an empty window (<= 1) gives exactly 0.
    """
    window = integration_window(dec, k)
    if window <= 1:
        return Approx(Fraction(0), Fraction(0))
    integral = log_weight_integral(dec.t, window, precision)
    c = exp_rational(k) / (totient(dec.t) * dec.Delta * dec.r)
    return integral.scale(c)


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
    of m, n with radii psi/ê_k, from one decomposition, one kernel call with
    a column per k and the measure law.  A zero measure gives P = 0 (the
    dropped-term convention).  Windows are classified against ê_max(ks).
    """
    top = max(ks, default=0)
    dec = decompose_pair(m, n, psi)
    rads_m = [dec.psi_m / exp_rational(k) for k in ks]
    rads_n = [dec.psi_n / exp_rational(k) for k in ks]
    overlaps = coprime_intersection_sums(n, rads_n, [(m, rads_m)])
    records = []
    for k, rm, rn, overlap in zip(ks, rads_m, rads_n, overlaps):
        mu = coprime_measure(m, rm) * coprime_measure(n, rn)
        integ = overlap_integral_bound(dec, k, precision) if with_integral else None
        records.append(OverlapRecord(
            m=m, n=n, k=k, r=dec.r, s=dec.s, t=dec.t, gcd=dec.gcd,
            delta=dec.delta, Delta=dec.Delta,
            cutoff=overlap_cutoff(dec, k), pv_product=prime_product_bound(dec, k),
            p_exact=overlap / mu if mu else Fraction(0), integral=integ,
            disjoint_pred=disjoint_predicted(dec, k),
            threshold_class=threshold_class(dec, k, top),
        ))
    return records


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
