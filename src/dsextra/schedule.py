"""Block scheduling: dyadic-tower blocks 2^{base^h} <= n < 2^{base^{h+1}},
the per-block scale count, exact selection of the best damping scale, and
the thinned (even-block, rescaled) radius function.

The full-scale tower base is 4; base 2 is offered because 2^{4^2} = 2^16
already ends desk-scale exhaustive work, and the machinery is identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    RationalLike,
    exp_rational,
    guarded_floor,
    log_bounds,
)
from .circles import arc_event, coprime_intersection_sums, coprime_measure
from .errors import CapExceededError, ConfigError, DomainError
from .psi import PsiFunction

# 2^(2^20) is already a ~315k-digit bound; nothing desk-scale lives beyond.
BLOCK_EXP_CAP = 1 << 20


def block_bounds(h: int, base: int = 4) -> tuple[int, int]:
    """[lo, hi) = [2^(base^h), 2^(base^(h+1))) for block index h."""
    if h < 0:
        raise DomainError("block index must be >= 0")
    if base < 2:
        raise DomainError("block base must be >= 2")
    exp_hi = base ** (h + 1)
    if exp_hi > BLOCK_EXP_CAP:
        raise CapExceededError(
            f"block bound 2^({exp_hi}) is beyond desk scale "
            f"(schedule.BLOCK_EXP_CAP); use a smaller base or h"
        )
    return 1 << (base ** h), 1 << exp_hi


def block_of(n: int, base: int = 4) -> int | None:
    """Index h of the block containing n; None for n < 2.

    Blocks tile [2, inf): hi(h) = lo(h+1), so every n >= 2 lands in
    exactly one.
    """
    if base < 2:
        raise DomainError("block base must be >= 2")
    if n < 2:
        return None
    h = 0
    while n >= (1 << base ** (h + 1)):
        h += 1
    return h


def scale_count(h: int, epsilon: RationalLike, precision: int = 128) -> int:
    """K(h) = max(1, floor(epsilon * h * ln 4)), certified.

    The floor is read off an interval enclosure and refuses to guess near
    integers (PrecisionGuardError).  h = 0 is allowed (the even-block
    pipeline needs it for small bases): the product is exactly 0 there, so
    K = 1 without any enclosure.
    """
    if h < 0:
        raise DomainError("block index must be >= 0")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise DomainError("epsilon must be > 0")
    if h == 0:
        return 1
    c = epsilon * h
    lo, hi = log_bounds(4, precision)
    return max(1, guarded_floor(c * lo, c * hi))


@dataclass(frozen=True)
class BlockReport:
    """Outcome of scale selection on one block.

    per_k_sums rows are (k, sum of ê_k^2 * measure(scaled intersection),
    sum of measure * measure), all exact; chosen_k minimizes their ratio
    with ties to the smallest k.
    """

    h: int
    base: int
    lo: int
    hi: int
    epsilon: Fraction
    scale_count: int
    per_k_sums: tuple[tuple[int, Fraction, Fraction], ...]
    chosen_k: int
    pair_count: int


def select_scale(
    h: int,
    psi: PsiFunction,
    epsilon: RationalLike,
    pairs: list[tuple[int, int]],
    base: int = 4,
    precision: int = 128,
) -> BlockReport:
    """Pick the damping scale k minimizing the weighted overlap sums.

    For each k <= K(h) accumulates S1(k) = sum over pairs of
    ê_k^2 * measure(intersection of the ê_k-scaled arc systems) and the
    k-independent S2 = sum of products of unscaled measures; chosen_k is
    the argmin of S1(k)/S2 (equivalently of S1(k)), ties to smallest k.
    An empty pair list or S2 = 0 degenerates to chosen_k = 1.

    The measures come from the measure law (coprime_measure) and the
    intersections from the closed-form kernel coprime_intersection_sums,
    one call per n over events built once per distinct n (arc_event) with
    the K scaled radii as columns, so psi is read once per distinct n and
    no arc system is built.  The columns psi/ê_k narrow as k grows, as
    arc_event requires, so a pair's walk over k ends at its first k whose
    arcs cannot meet, (δ + Δ)·lcm(m, n) < 1.  A pair that overlaps at k = 1
    has its weights expanded once, in the same pass over its prime
    exponents that finds them; each overlapping k sums the expanded terms.
    That is O(2^omega(mn)) integer operations per overlapping k whatever m
    and n, and adds an integer over q·lcm(m, n) per k, q = lcm of the
    radii's denominators.
    """
    lo, hi = block_bounds(h, base)
    epsilon = Fraction(epsilon)
    rows: dict[int, list[int]] = {}     # n: the m of its pairs
    distinct: set[int] = set()
    for m, n in pairs:
        if m == n:
            raise DomainError("block pairs must be distinct")
        if not (lo <= m < hi and lo <= n < hi):
            raise DomainError(
                f"pair ({m}, {n}) outside block [{lo}, {hi})"
            )
        rows.setdefault(n, []).append(m)
        distinct.update((m, n))
    top = scale_count(h, epsilon, precision)
    scales = [exp_rational(k) for k in range(1, top + 1)]
    radius = {x: psi.value(x) for x in distinct}
    mu = {x: coprime_measure(x, v) for x, v in radius.items()}

    # S2 as one integer sum over the lcm of the measures' denominators,
    # one product num[n]·Σ num[m] per row
    den = math.lcm(*(v.denominator for v in mu.values()))
    num = {x: v.numerator * (den // v.denominator) for x, v in mu.items()}
    s2 = Fraction(
        sum(num[n] * sum(num[m] for m in ms) for n, ms in rows.items()),
        den * den,
    )
    # one event per distinct n, with the K scaled radii as its columns,
    # and one kernel call per n over the events of its pairs
    events = {x: arc_event(x, [v / e for e in scales]) for x, v in radius.items()}
    s1 = [Fraction(0)] * top
    for n, ms in rows.items():
        row = [events[m] for m in ms]
        for i, x in enumerate(coprime_intersection_sums(events[n], row)):
            s1[i] += x
    sums = [(k, acc * e * e, s2) for k, (acc, e) in enumerate(zip(s1, scales), 1)]
    if s2 == 0:
        chosen = 1
    else:
        chosen = min(sums, key=lambda row: (row[1], row[0]))[0]
    return BlockReport(
        h=h, base=base, lo=lo, hi=hi, epsilon=epsilon,
        scale_count=top, per_k_sums=tuple(sums), chosen_k=chosen,
        pair_count=len(pairs),
    )


def thinned_psi(
    psi: PsiFunction,
    epsilon: RationalLike,
    chosen: dict[int, int],
    base: int = 4,
    precision: int = 128,
) -> PsiFunction:
    """The even-block rescaled radius function.

    On even-h blocks the radius is divided by ê_{chosen[h]}; elsewhere it
    is 0.  The result is a final value table: the overlap kernels take
    its entries as-is as arc radii, and it must not be re-normalized
    (rescaling pushes radii below the 1/n drop threshold by design).
    """
    if not psi.normalized:
        raise DomainError("thinned_psi requires a normalized input")
    epsilon = Fraction(epsilon)
    table: dict[int, Fraction] = {}
    tops: dict[int, int] = {}      # K(h), certified once per block
    for n in range(2, psi.n_max + 1):
        h = block_of(n, base)
        if h is None or h % 2:
            continue
        v = psi.value(n)
        if v == 0:
            continue
        k = chosen.get(h)
        if k is None:
            raise ConfigError(f"no chosen scale for even block h = {h}")
        if h not in tops:
            tops[h] = scale_count(h, epsilon, precision)
        if not 1 <= k <= tops[h]:
            raise ConfigError(
                f"chosen scale {k} outside 1..K({h}) for epsilon = {epsilon}"
            )
        table[n] = v / exp_rational(k)
    return PsiFunction(
        psi.n_max, f"thin:{psi.generator}", base=table, normalized=False
    )

