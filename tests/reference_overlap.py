"""Reference routes for dsextra.overlap, through Fraction arithmetic.

overlap.overlap_records reads every per-scale field of a record through
the exported overlap_cutoff, prime_product_bound, disjoint_predicted and
overlap_integral_bound (and the private threshold class beside them),
each of which compares the stored scale PairDecomposition.D with ê_k in
integers.  These routes rebuild each field from Delta, r and t with
Fraction operations instead, never reading D: the cutoff Delta*r*t/ê_k,
the window 4*Delta*r*t/ê_k, reference_arith.restricted_prime_product
above the cutoff, the disjoint test 2*Delta*r*t <= ê_k, the threshold
class of the window and the integral log_weight_integral(t, window)
scaled by ê_k/(phi(t)*Delta*r).  The overlap ratio comes from arcs built
by coprime_arcs and the integer sweep intersection_measure, not from the
kernel.

pair_weights is the kernel's former per-pair step: the weights of a pair
as a list of (p, a, b) factors, which arith._squarefree_divisors expands.
It finds every prime's factor from the exponents alone, and is the
reference for the kernel's expansion route: circles._own_terms, then the
engine over circles._phi_factors seeded with the own terms.
"""

from fractions import Fraction as F

from dsextra.arith import Approx, exp_rational, log_weight_integral, totient
from dsextra.circles import coprime_arcs, coprime_measure, intersection_measure
from dsextra.overlap import OverlapRecord, PairDecomposition, decompose_pair
from reference_arith import restricted_prime_product


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


def pair_weights(
    fm: tuple[tuple[int, int], ...], fn: tuple[tuple[int, int], ...]
) -> tuple[int, int, list[tuple[int, int, int]]]:
    """(base, w(0)/base, factors) for the pair with factorizations fm, fn.

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
    base = w0 = 1
    factors = []
    for p, b in fn:
        a = em.pop(p, 0)
        if a == b:              # p | r
            base *= p ** (a - 1)
            w0 *= p - 1
            factors.append((p, p - 2, 1))
        else:                   # p | t, and p | s when both exponents are > 0
            lo = a if a < b else b
            if lo:
                base *= (p - 1) * p ** (lo - 1)
            w0 = 0
            factors.append((p, 1, -1))
    for p in em:                # the primes of m alone: p | t
        w0 = 0
        factors.append((p, 1, -1))
    return base, w0, factors
