"""Arc set canonical form, measures, and the four intersection routes."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsextra import circles
from dsextra.arith import _squarefree_divisors, exp_rational, factorize, totient
from dsextra.circles import (
    EMPTY_SET,
    FULL_SET,
    CircleIntervalSet,
    arc_event,
    coprime_arcs,
    coprime_intersection_sums,
    coprime_measure,
    intersect,
    intersection_measure,
    midpoint_grid_measure,
)
from dsextra.errors import DomainError
from dsextra.psi import make_psi, normalize_psi
from reference_overlap import pair_weights
from tests.conftest import validate_arcs


# ---------------------------------------------------------------------------
# construction and canonical form

def test_from_intervals_canonicalizes():
    s = CircleIntervalSet.from_intervals(
        [(F(1, 2), F(3, 4)), (F(1, 4), F(1, 2)), (F(1, 8), F(3, 16))]
    )
    validate_arcs(s)
    # touching arcs merge; distinct ones stay apart
    assert s.intervals == ((F(1, 8), F(3, 16)), (F(1, 4), F(3, 4)))
    assert s.measure() == F(9, 16)


def test_from_intervals_overlap_merge():
    s = CircleIntervalSet.from_intervals([(0, F(2, 3)), (F(1, 3), 1)])
    assert s == FULL_SET
    assert s.measure() == 1


def test_from_intervals_rejects_bad_arcs():
    with pytest.raises(DomainError):
        CircleIntervalSet.from_intervals([(F(1, 2), F(1, 2))])
    with pytest.raises(DomainError):
        CircleIntervalSet.from_intervals([(F(-1, 4), F(1, 4))])
    with pytest.raises(DomainError):
        CircleIntervalSet.from_intervals([(F(3, 4), F(5, 4))])


def test_empty_and_full():
    validate_arcs(EMPTY_SET)
    validate_arcs(FULL_SET)
    assert EMPTY_SET.measure() == 0 and EMPTY_SET.ends == ()
    assert FULL_SET.measure() == 1
    assert CircleIntervalSet.from_intervals([]) == EMPTY_SET


def test_denominator_is_minimal():
    # raw endpoints over 18 share a factor 2 with the denominator
    s = coprime_arcs(6, F(1, 3))
    assert s.denominator == 9 and s.ends == ((1, 2), (7, 8))
    validate_arcs(s)


def test_validate_rejects_broken_forms():
    with pytest.raises(DomainError):
        validate_arcs(CircleIntervalSet(4, ((2, 1),)))              # reversed
    with pytest.raises(DomainError):
        validate_arcs(CircleIntervalSet(4, ((0, 2), (2, 3))))       # touching unmerged
    with pytest.raises(DomainError):
        validate_arcs(CircleIntervalSet(4, ((0, 2), (2, 3))[::-1]))
    with pytest.raises(DomainError):
        validate_arcs(CircleIntervalSet(4, ((0, 2),)))              # gcd 2 not reduced
    with pytest.raises(DomainError):
        validate_arcs(CircleIntervalSet(3, ()))                     # empty wants D = 1


# ---------------------------------------------------------------------------
# coprime arc systems

def test_coprime_arcs_frozen_small():
    s = coprime_arcs(6, F(1, 2))
    validate_arcs(s)
    assert s.denominator == 12
    assert s.ends == ((1, 3), (9, 11))
    assert s.measure() == F(1, 3)       # 2 * (1/2) * phi(6)/6


def test_coprime_arcs_n1_wraps():
    s = coprime_arcs(1, F(1, 4))
    validate_arcs(s)
    assert s.intervals == ((F(0), F(1, 4)), (F(3, 4), F(1)))
    assert s.measure() == F(1, 2)
    assert coprime_arcs(1, F(1, 2)) == FULL_SET


def test_coprime_arcs_edges():
    assert coprime_arcs(7, F(0)) == EMPTY_SET
    with pytest.raises(DomainError):
        coprime_arcs(3, F(3, 4))
    with pytest.raises(DomainError):
        coprime_arcs(0, F(1, 4))


@settings(max_examples=150)
@given(
    st.integers(min_value=1, max_value=300),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=64),
)
def test_coprime_arcs_measure_law(n, radius):
    s = coprime_arcs(n, radius)
    validate_arcs(s)
    assert s.measure() == 2 * radius * totient(n) / n == coprime_measure(n, radius)


@settings(max_examples=80)
@given(
    st.integers(min_value=2, max_value=200),
    st.fractions(min_value=0, max_value=F(1, 4), max_denominator=32),
)
def test_coprime_arcs_monotone_in_radius(n, radius):
    small = coprime_arcs(n, radius)
    assert intersection_measure(coprime_arcs(n, 2 * radius), small) == small.measure()


# ---------------------------------------------------------------------------
# kernels: intersect vs intersection_measure vs grid counting

arc_sets = st.builds(
    coprime_arcs,
    st.integers(min_value=1, max_value=120),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=40),
)


def test_intersect_frozen():
    a = coprime_arcs(2, F(1, 2))    # [1/4, 3/4)
    b = coprime_arcs(3, F(1, 2))    # [1/6, 5/6)
    got = intersect(a, b)
    validate_arcs(got)
    assert got.intervals == ((F(1, 4), F(3, 4)),)
    assert intersection_measure(a, b) == F(1, 2)


@settings(max_examples=120)
@given(arc_sets, arc_sets)
def test_dual_route_kernels_agree(a, b):
    via_set = intersect(a, b)
    validate_arcs(via_set)
    assert via_set.measure() == intersection_measure(a, b)
    assert intersection_measure(a, b) == intersection_measure(b, a)
    assert intersection_measure(a, via_set) == via_set.measure()
    assert intersection_measure(b, via_set) == via_set.measure()


def test_grid_measure_frozen():
    a = CircleIntervalSet.from_intervals([(0, F(1, 2))])
    b = CircleIntervalSet.from_intervals([(F(1, 4), F(3, 4))])
    # midpoints i/8 + 1/8 for grid 4: intersection [1/4, 1/2) holds only 3/8
    assert midpoint_grid_measure(a, b, 4) == F(1, 4)
    assert midpoint_grid_measure(a, b, 10 ** 6) == intersect(a, b).measure()
    with pytest.raises(DomainError):
        midpoint_grid_measure(a, b, 0)


@settings(max_examples=100)
@given(arc_sets, arc_sets, st.integers(min_value=1, max_value=10 ** 6))
def test_grid_measure_error_bound(a, b, m):
    exact = intersection_measure(a, b)
    grid = midpoint_grid_measure(a, b, m)
    assert abs(grid - exact) <= F(len(a.ends) + len(b.ends) + 2, m)


# ---------------------------------------------------------------------------
# closed-form kernel vs the integer sweep and the Fraction route

def kernel(n, rads_n, events):
    # the kernel on events freshly built from (m, rads_m) pairs
    return coprime_intersection_sums(
        arc_event(n, rads_n), [arc_event(m, rads_m) for m, rads_m in events]
    )


def pair_measure(m, rm, n, rn):
    # the kernel with one event and one column: measure(E_m(rm) ∩ E_n(rn))
    return kernel(n, (rn,), [(m, (rm,))])[0]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=2000),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=60),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=60),
    st.integers(min_value=0, max_value=12),
)
def test_closed_form_kernel_agrees(m, n, rm, rn, k):
    rm /= exp_rational(k)
    rn /= exp_rational(k)
    a = coprime_arcs(m, rm)
    b = coprime_arcs(n, rn)
    got = pair_measure(m, rm, n, rn)
    assert got == intersection_measure(a, b) == intersect(a, b).measure()
    assert got == pair_measure(n, rn, m, rm)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=2000),
    st.fractions(min_value=0, max_value=1),
)
@example(12, 12, F(1))                  # m = n: every prime in r
@example(360, 360, F(1, 3))
@example(1, 210, F(1))                  # m = 1 and n = 1
@example(210, 1, F(1, 2))
@example(1, 1, F(1))
@example(12, 20, F(1))                  # 2^2 in both: the (2, 0, 1) factor
@example(6, 10, F(1, 2))                # 2^1 in both
@example(1155, 2, F(1))
@example(30, 42, F(0))                  # reach 0
@example(30, 42, F(1, 210))             # reach 1
def test_pair_terms_match_reference_expansion(m, n, share):
    # circles._pair_terms against the kernel's former two steps, the
    # factor list of reference_overlap.pair_weights expanded by
    # arith._squarefree_divisors, at a reach from 0 to lcm(m, n)
    reach = math.floor(share * math.lcm(m, n))
    fm, fn = factorize(m), factorize(n)
    base, w0, factors = pair_weights(fm, fn)
    got_base, got_w0, terms = circles._pair_terms(fm, dict(fn), math.gcd(m, n), reach)
    assert (got_base, got_w0) == (base, w0)
    assert sorted(terms) == sorted(_squarefree_divisors(factors, reach))


def test_closed_form_kernel_exhaustive():
    # every m < n <= 150 with the half radius at four scales
    bad = []
    for k in (0, 1, 4, 8):
        radius = F(1, 2) / exp_rational(k)
        for n in range(2, 151):
            b = coprime_arcs(n, radius)
            for m in range(1, n):
                got = pair_measure(m, radius, n, radius)
                if got != intersection_measure(coprime_arcs(m, radius), b):
                    bad.append((m, n, k))
    # E_1 against every E_n, n <= 150, in both argument orders; for small
    # n, h_1 + h_n > 1/2 and arcs meet on both sides of the circle
    radii = (F(1, 2), F(2, 5), F(1, 3))
    for r1 in radii:
        a = coprime_arcs(1, r1)
        for n in range(1, 151):
            for rn in radii:
                want = intersection_measure(a, coprime_arcs(n, rn))
                if pair_measure(1, r1, n, rn) != want:
                    bad.append((1, r1, n, rn))
                if pair_measure(n, rn, 1, r1) != want:
                    bad.append((n, rn, 1, r1))
    assert bad == []


def test_closed_form_kernel_domain(monkeypatch):
    # the kernel answers every admissible radius itself: it neither builds
    # arcs nor calls the sweep
    arc_routes = []
    monkeypatch.setattr(
        circles, "intersection_measure", lambda *a: arc_routes.append(a)
    )
    monkeypatch.setattr(circles, "coprime_arcs", lambda *a: arc_routes.append(a))
    # m = 1 or n = 1 at radius 1/2: E_1 is the whole circle, h_m + h_n > 1/2
    assert pair_measure(1, F(1, 2), 7, F(1, 3)) == F(4, 7)
    assert pair_measure(10, F(1, 2), 1, F(1, 2)) == F(2, 5)
    assert pair_measure(1, F(1, 2), 1, F(1, 2)) == 1
    # h_m + h_n <= 1/2, m = 1 and m = n included
    assert pair_measure(1, F(1, 4), 1, F(1, 8)) == F(1, 4)
    assert pair_measure(1, F(1, 4), 3, F(1, 2)) == F(1, 6)
    assert pair_measure(6, F(1, 2), 6, F(1, 4)) == F(1, 6)
    # zero radius: the empty set, on either side
    assert pair_measure(5, 0, 9, F(1, 2)) == 0
    assert pair_measure(1, F(1, 2), 9, F(0)) == 0
    assert arc_routes == []
    # the same domain errors as coprime_arcs
    with pytest.raises(DomainError):
        pair_measure(0, F(1, 4), 3, F(1, 4))
    with pytest.raises(DomainError):
        pair_measure(2, F(1, 4), 3, F(3, 4))
    with pytest.raises(DomainError):
        pair_measure(2, F(-1, 4), 3, F(1, 4))


@pytest.mark.parametrize("spec", ["half", "recip", "primes:1"])
def test_row_kernel_matches_pair_sums(spec):
    # every row n <= 120 of the second moment, zero radii included: one
    # column over the row's events equals the integer sweep over built arcs
    psi = normalize_psi(make_psi(spec, 120))
    for k in (0, 3):
        events = []
        for n in range(1, 121):
            radius = psi.value(n) / exp_rational(k)
            arcs = coprime_arcs(n, radius)
            sweep_sum = sum(
                (intersection_measure(coprime_arcs(m, rm), arcs) for m, (rm,) in events),
                F(0),
            )
            assert kernel(n, (radius,), events) == [sweep_sum]
            events.append((n, (radius,)))


def test_row_kernel_domain():
    row = kernel
    assert row(7, (F(1, 3),), []) == [0]
    assert row(7, (), [(1, ()), (5, ())]) == []
    assert row(7, (0,), [(1, (F(1, 2),))]) == [0]
    # E_1 at radius 1/2 is the whole circle
    assert row(7, (F(1, 3),), [(1, (F(1, 2),)), (5, (0,))]) == [F(4, 7)]
    with pytest.raises(DomainError):
        row(0, (F(1, 4),), [])
    with pytest.raises(DomainError):
        row(3, (F(3, 4),), [])
    with pytest.raises(DomainError):
        row(3, (F(1, 4),), [(2, (F(-1, 4),))])
    with pytest.raises(DomainError, match=r"^event 2 has 1 radii for 2 columns$"):
        row(3, (F(1, 4), F(1, 8)), [(2, (F(1, 4),))])     # one radius short
    # a target with no column refuses an event with a radius before any
    # pair is walked
    with pytest.raises(DomainError, match=r"^event 1 has 1 radii for 0 columns$"):
        row(7, (), [(1, (F(1, 2),))])
    # a one-column target refuses a two-radius event as a two-column target
    # refuses a one-radius event, zero target radius or not
    for rads_n in ((F(1, 4),), (0,)):
        with pytest.raises(DomainError, match=r"^event 2 has 2 radii for 1 columns$"):
            row(3, rads_n, [(1, (F(1, 2),)), (2, (F(1, 4), F(1, 8)))])
    # a zero target radius is the empty set, whatever the events
    assert row(6, (0,), [(1, (F(1, 2),)), (4, (F(1, 3),)), (6, (F(1, 4),))]) == [0]
    # a zero-radius event among live ones, m = n included, adds nothing
    live = [(1, (F(1, 2),)), (4, (F(1, 3),)), (6, (F(1, 4),))]
    for dead in ((4, (0,)), (6, (0,)), (5, (0,))):
        with_dead = row(6, (F(1, 5),), live[:2] + [dead] + live[2:])
        assert with_dead == row(6, (F(1, 5),), live)
    assert row(6, (F(1, 5),), live) != [0]


radii = st.fractions(min_value=0, max_value=F(1, 2), max_denominator=40)
# columns (radius of each event, radius of n), each side no wider than the
# column before it, as arc_event requires: both sides sorted descending
columns = st.lists(
    st.tuples(radii, radii, st.integers(min_value=0, max_value=8)).map(
        lambda c: (c[0] / exp_rational(c[2]), c[1] / exp_rational(c[2]))
    ),
    min_size=1, max_size=4,
).map(lambda cols: list(zip(*(sorted(side, reverse=True) for side in zip(*cols)))))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    columns,
    st.lists(st.integers(min_value=1, max_value=300), max_size=5),
)
@example(
    12,
    [(F(1, 2), F(1, 2)), (F(1, 2) / exp_rational(6), F(2, 5)), (0, F(1, 3) / exp_rational(6))],
    [1, 18, 12],
)
def test_columns_match_one_column_calls(n, cols, ms):
    # 1-4 non-widening columns, zero radii included (on one side or both);
    # n is among the events, so m = n always occurs.  Each column equals
    # its one-column call and the sweep over built arcs.  With two or more
    # columns this is a differential test of the walk's reuse: later
    # columns sum the sorted terms that column 0 expanded up to its own
    # reach, a one-column call expands its own.
    events = [(m, tuple(rm for rm, _ in cols)) for m in ms + [n]]
    got = kernel(n, [rn for _, rn in cols], events)
    assert len(got) == len(cols)
    for i, (rm, rn) in enumerate(cols):
        one = kernel(n, (rn,), [(m, (rm,)) for m, _ in events])
        arcs = coprime_arcs(n, rn)
        sweep = sum(
            (intersection_measure(coprime_arcs(m, rm), arcs) for m, _ in events),
            F(0),
        )
        assert got[i] == one[0] == sweep


def test_arc_event_domain_and_integers():
    # built once: m factorized, each radius in lowest terms as the integers
    # (numerator, denominator)
    event = arc_event(12, (F(1, 2), F(2, 7), 0))
    assert event.factors == ((2, 2), (3, 1))
    assert event.radii == ((1, 2), (2, 7), (0, 1))
    assert arc_event(5, ()).radii == ()
    # no column wider than the one before it: a widening column is refused
    # by name, after a zero column too
    with pytest.raises(DomainError, match=r"^event 5: column 1 radius 1/4 "):
        arc_event(5, (F(1, 8), F(1, 4)))
    with pytest.raises(DomainError, match=r"^event 5: column 2 radius 1/9 "):
        arc_event(5, (F(1, 3), 0, F(1, 9)))
    # descending, equal (in any spelling) and zero-tailed columns are taken
    assert arc_event(5, (F(1, 2), F(1, 3), F(1, 7))).radii == ((1, 2), (1, 3), (1, 7))
    assert arc_event(5, (F(1, 4), F(2, 8), F(1, 4))).radii == ((1, 4),) * 3
    assert arc_event(5, (F(1, 3), 0, 0)).radii == ((1, 3), (0, 1), (0, 1))
    assert arc_event(5, (F(1, 3),)).radii == ((1, 3),)
    # the domain of coprime_arcs, refused when the event is built
    with pytest.raises(DomainError, match="n >= 1"):
        arc_event(0, (F(1, 4),))
    with pytest.raises(DomainError, match="outside"):
        arc_event(3, (F(1, 4), F(-1, 4)))
    with pytest.raises(DomainError, match="outside"):
        arc_event(3, (F(1, 2) + F(1, 10 ** 9),))
    # the kernel still refuses an event with the wrong number of columns
    with pytest.raises(DomainError, match="columns"):
        coprime_intersection_sums(arc_event(3, (F(1, 4),)), [arc_event(2, ())])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=2000),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=60),
    st.fractions(min_value=0, max_value=F(1, 2), max_denominator=60),
)
@example(12, 12, F(1, 2), F(1, 3))
@example(1, 1, F(1, 2), F(1, 2))
def test_stop_rule_columns_match_one_column_calls(m, n, psi_m, psi_n):
    # columns psi/ê_k, k = 0..12, as select_scale and overlap_records build
    # them, so a pair's first disjoint column ends its walk when m != n.
    # Each column equals its one-column call and the sweep over built arcs.
    scales = [exp_rational(k) for k in range(13)]
    rads_m = [psi_m / e for e in scales]
    rads_n = [psi_n / e for e in scales]
    got = kernel(n, rads_n, [(m, rads_m)])
    for rm, rn, col in zip(rads_m, rads_n, got):
        want = intersection_measure(coprime_arcs(m, rm), coprime_arcs(n, rn))
        assert col == pair_measure(m, rm, n, rn) == want


def test_columns_with_equal_and_unequal_radius_denominators():
    # column 0 sets 1/2, 5/12 and 1/2 against the target's 1/3, so its q
    # run 6, 12, 6 and the column's sum changes denominator twice; column 1
    # puts every radius over 5 (q = d_m = d_n).  m = 15 has cofactors
    # n/g = 2 and m/g = 3 with n = 10, and m = n joins in both columns.
    # Every pair overlaps in every column.
    rads_n = (F(1, 3), F(1, 5))
    events = [
        (6, (F(1, 2), F(2, 5))),
        (15, (F(5, 12), F(2, 5))),
        (10, (F(1, 2), F(2, 5))),
    ]
    got = kernel(10, rads_n, events)
    for col, rn in enumerate(rads_n):
        arcs = coprime_arcs(10, rn)
        pairs = [
            intersection_measure(coprime_arcs(m, rads[col]), arcs)
            for m, rads in events
        ]
        assert all(pairs)
        assert [pair_measure(m, rads[col], 10, rn) for m, rads in events] == pairs
        assert got[col] == sum(pairs)


def test_stop_rule_needs_nonincreasing_columns():
    # a disjoint column before an overlapping one would end the walk too
    # early, so a widening event is refused, as the target or among the
    # events, before the kernel runs
    rads = (F(1, 10 ** 6), F(1, 2))
    flat = (F(1, 10 ** 6), F(1, 10 ** 6))
    with pytest.raises(DomainError, match="column 1"):
        kernel(5, rads, [(3, flat)])
    with pytest.raises(DomainError, match="column 1"):
        kernel(5, flat, [(3, rads)])
    # the same columns narrowing: the overlapping column comes first, and
    # the disjoint one after it ends the walk, against equal target columns
    narrow = rads[::-1]
    want = intersection_measure(coprime_arcs(3, F(1, 2)), coprime_arcs(5, F(1, 2)))
    assert want > 0
    assert kernel(5, narrow, [(3, narrow)]) == [want, 0]
    want = intersection_measure(coprime_arcs(3, F(1, 2)), coprime_arcs(5, flat[0]))
    assert want > 0
    assert kernel(5, flat, [(3, narrow)]) == [want, 0]


scaled_radii = st.tuples(radii, st.integers(min_value=0, max_value=8)).map(
    lambda c: c[0] / exp_rational(c[1])
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_events_reused_across_targets(data):
    # each event, its columns drawn and sorted so none widens, is built
    # once and reused: as a target, and in the event
    # lists of the other targets, which run in shuffled order over their
    # events in shuffled order.  Every column equals the kernel on freshly
    # built events and the sweep over built arcs.
    width = data.draw(st.integers(min_value=1, max_value=3))
    specs = data.draw(st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=300),
            st.lists(scaled_radii, min_size=width, max_size=width).map(
                lambda rads: tuple(sorted(rads, reverse=True))
            ),
        ),
        min_size=2, max_size=6,
    ))
    built = [arc_event(m, rads) for m, rads in specs]
    for t in data.draw(st.permutations(range(len(specs)))):
        order = [i for i in data.draw(st.permutations(range(len(specs)))) if i != t]
        got = coprime_intersection_sums(built[t], [built[i] for i in order])
        n, rads_n = specs[t]
        others = [specs[i] for i in order]
        assert got == kernel(n, rads_n, others)
        for col in range(width):
            arcs = coprime_arcs(n, rads_n[col])
            sweep = sum(
                (intersection_measure(coprime_arcs(m, rads[col]), arcs) for m, rads in others),
                F(0),
            )
            assert got[col] == sweep


def test_equality_and_hash():
    a = coprime_arcs(6, F(1, 2))
    b = CircleIntervalSet.from_intervals([(F(1, 12), F(3, 12)), (F(9, 12), F(11, 12))])
    assert a == b and hash(a) == hash(b)
    assert a != coprime_arcs(6, F(1, 3))
