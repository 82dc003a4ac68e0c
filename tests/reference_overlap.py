"""Reference routes for dsextra.overlap, through Fraction arithmetic.

overlap.overlap_records reads every per-scale field of a record from one
per-pair scale D = Delta*r*t, compared with ê_k in integers.  These
routes rebuild each field from the decomposition with Fraction
operations instead: the cutoff Delta*r*t/ê_k, the window 4*Delta*r*t/ê_k,
arith.restricted_prime_product above the cutoff, the disjoint test
2*Delta*r*t <= ê_k, the threshold class of the window and the integral
log_weight_integral(t, window) scaled by ê_k/(phi(t)*Delta*r).  The
overlap ratio comes from arcs built by coprime_arcs and the integer
sweep intersection_measure, not from the kernel.
"""

from fractions import Fraction as F

from dsextra.arith import (
    Approx,
    exp_rational,
    log_weight_integral,
    restricted_prime_product,
    totient,
)
from dsextra.circles import coprime_arcs, coprime_measure, intersection_measure
from dsextra.overlap import OverlapRecord, PairDecomposition, decompose_pair


def cutoff(dec: PairDecomposition, k: int) -> F:
    return dec.Delta * dec.r * dec.t / exp_rational(k)


def integration_window(dec: PairDecomposition, k: int) -> F:
    return 4 * dec.Delta * dec.r * dec.t / exp_rational(k)


def pv_product(dec: PairDecomposition, k: int) -> F:
    return restricted_prime_product(dec.t, cutoff(dec, k))


def disjoint(dec: PairDecomposition, k: int) -> bool:
    return 2 * dec.Delta * dec.r * dec.t <= exp_rational(k)


def threshold_class(dec: PairDecomposition, k: int, top: int) -> str:
    """Classify the integration window against 1 and the ladder top ê_top."""
    w = integration_window(dec, k)
    if w <= 1:
        return "below-1"
    if w <= exp_rational(top):
        return "in-window"
    return "above-window"


def integral(dec: PairDecomposition, k: int, precision: int = 128) -> Approx:
    window = integration_window(dec, k)
    if window <= 1:
        return Approx(F(0), F(0))
    c = exp_rational(k) / (totient(dec.t) * dec.Delta * dec.r)
    return log_weight_integral(dec.t, window, precision).scale(c)


def swept_ratio(m: int, n: int, psi, k: int) -> F:
    """measure(E_m ∩ E_n)/(measure(E_m)·measure(E_n)) at radii psi/ê_k,
    from built arcs; 0 on a zero measure."""
    e = exp_rational(k)
    rm, rn = psi.value(m) / e, psi.value(n) / e
    mu = coprime_measure(m, rm) * coprime_measure(n, rn)
    if not mu:
        return F(0)
    return intersection_measure(coprime_arcs(m, rm), coprime_arcs(n, rn)) / mu


def records(m, n, psi, ks, precision=128, with_integral=True) -> list[OverlapRecord]:
    """overlap_records(m, n, psi, ks, precision, with_integral), field by field."""
    dec = decompose_pair(m, n, psi)
    top = max(ks, default=0)
    return [
        OverlapRecord(
            m=m, n=n, k=k, r=dec.r, s=dec.s, t=dec.t, gcd=dec.gcd,
            delta=dec.delta, Delta=dec.Delta,
            cutoff=cutoff(dec, k),
            pv_product=pv_product(dec, k),
            p_exact=swept_ratio(m, n, psi, k),
            integral=integral(dec, k, precision) if with_integral else None,
            disjoint_pred=disjoint(dec, k),
            threshold_class=threshold_class(dec, k, top),
        )
        for k in ks
    ]
