"""Second-moment series, divergence table, config parsing, and the runner."""

import csv
import hashlib
import json
import math
import os
import pickle
import time
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_arith import iv_exp_bounds, iv_floored_log_bounds, pow_bounds

from dsextra import arith, circles, harness
from dsextra.arith import (
    MIN_PRECISION,
    Approx,
    frac_str,
    totient,
)
from dsextra.circles import coprime_arcs, intersection_measure
from dsextra.errors import (
    CapExceededError,
    ConfigError,
    DomainError,
    PrecisionGuardError,
    UndefinedRatioError,
)
from dsextra.harness import (
    BC_CAP,
    PAIR_CAP_EXACT,
    TABLE_CAP,
    DivergenceRow,
    _bound_value,
    _div_add,
    _ordered_map,
    borel_cantelli_ratio,
    divergence_table,
    load_config,
    parse_config,
    run_experiment,
    sample_pairs,
)
from dsextra.overlap import CSV_COLUMNS
from dsextra.psi import PsiFunction, make_psi, normalize_psi


# ---------------------------------------------------------------------------
# Borel-Cantelli second moment

def test_bc_ratio_frozen_small(psi_half_300):
    ratio, rows = borel_cantelli_ratio(psi_half_300, 3)
    assert ratio == F(169, 198)
    assert rows == [
        (1, F(1), F(1), F(1)),
        (2, F(3, 2), F(5, 2), F(9, 10)),
        (3, F(13, 6), F(11, 2), F(169, 198)),
    ]


@pytest.mark.parametrize("spec", ["half", "recip", "primes:1/4", "below"])
def test_bc_ratio_matches_direct_double_sum(spec):
    # half gives every pair equal radius denominators; recip's 1/m and 1/n
    # differ, so the kernel's q = lcm(d_m, d_n) route is checked too.
    # below is un-normalized, psi(n) = 1/(n + 1) < 1/n for n >= 2, which
    # normalization would drop, at N = 20
    if spec == "below":
        n_top = 20
        psi = PsiFunction(n_top, "table", base={n: F(1, n + 1) for n in range(1, 21)})
    else:
        n_top = 12
        psi = normalize_psi(make_psi(spec, 300))
    ratio, rows = borel_cantelli_ratio(psi, n_top)
    sets = [coprime_arcs(n, psi.value(n)) for n in range(1, n_top + 1)]
    num = sum(s.measure() for s in sets) ** 2
    den = sum(
        intersection_measure(a, b) for a in sets for b in sets
    )
    assert ratio == num / den
    assert rows[-1][0] == n_top and rows[-1][3] == ratio


def test_bc_ratio_builds_no_arcs(psi_half_300, monkeypatch):
    # E_1 at radius 1/2 is the whole circle; the pairs (1, n) take the
    # closed form like every other pair, not the sweep
    sweeps = []

    def counting_sweep(a, b):
        sweeps.append((a, b))
        return intersection_measure(a, b)

    monkeypatch.setattr(circles, "intersection_measure", counting_sweep)
    ratio, _ = borel_cantelli_ratio(psi_half_300, 50)
    assert sweeps == []
    assert 0 < ratio <= 1


def test_bc_ratio_validates_each_radius_once(radius_checks):
    # one coprime_measure and one arc_event per n: O(N) validations, where
    # checking every earlier event's radius again in each row takes ~N^2/2
    n_top = 60
    borel_cantelli_ratio(normalize_psi(make_psi("half", n_top)), n_top)
    assert 0 < len(radius_checks) <= 2 * n_top


def test_bc_ratio_in_unit_interval(psi_recip_300):
    ratio, rows = borel_cantelli_ratio(psi_recip_300, 40)
    assert 0 < ratio <= 1
    assert all(r is None or 0 < r <= 1 for _, _, _, r in rows)


def test_bc_ratio_refuses_radii_above_half():
    # any psi whose radii arc_event takes, normalized or not: un-normalized
    # half is already normalized, and a radius above 1/2 is refused
    assert borel_cantelli_ratio(make_psi("half", 10), 5) == borel_cantelli_ratio(
        normalize_psi(make_psi("half", 10)), 5
    )
    with pytest.raises(DomainError, match=r"^radius 3/4 outside \[0, 1/2\]$"):
        borel_cantelli_ratio(PsiFunction(5, "table", base={3: F(3, 4)}), 5)


def test_bc_ratio_undefined_when_all_zero():
    psi = normalize_psi(PsiFunction(5, "table", base={}))
    with pytest.raises(UndefinedRatioError):
        borel_cantelli_ratio(psi, 5)


@pytest.mark.parametrize("gen", ["half", "recip", "primes:1/4"])
@pytest.mark.parametrize("n_top", [50, 130])
def test_bc_ratio_independent_of_jobs(gen, n_top):
    # 50 rows run in-process at every jobs value; at 130 the 130 positive-
    # measure rows of half and recip run on the pool, and the 31 of
    # primes:1/4 in-process
    psi = normalize_psi(make_psi(gen, n_top))
    serial = borel_cantelli_ratio(psi, n_top)
    for jobs in (2, 4):
        assert borel_cantelli_ratio(psi, n_top, jobs) == serial


def test_bc_ratio_builds_events_in_the_parent(monkeypatch):
    # one event per positive-measure n, built in the parent; the pool's
    # workers receive the events and build none again
    parent = os.getpid()
    build = harness.arc_event
    built = []

    def parent_only(m, rads):
        assert os.getpid() == parent, f"arc_event({m}) ran in a worker"
        built.append(m)
        return build(m, rads)

    monkeypatch.setattr(harness, "arc_event", parent_only)
    psi = normalize_psi(make_psi("half", 130))
    pooled = borel_cantelli_ratio(psi, 130, 2)
    assert built == list(range(1, 131))
    assert pooled == borel_cantelli_ratio(psi, 130)


# ---------------------------------------------------------------------------
# the ordered-map worker pool

def _slow_multiples_of_8(items):
    # slice 0 of 8 holds every multiple of 8 and finishes last
    for x in items:
        if x % 8 == 0:
            time.sleep(0.01)
    return [(x * x, os.getpid()) for x in items]


def _raise_at_77(error, items):
    if 77 in items:
        raise error("raised in a worker")
    return list(items)


@pytest.mark.parametrize("count, pooled", [(64, False), (100, True)])
def test_ordered_map_keeps_item_order(count, pooled):
    out = _ordered_map(_slow_multiples_of_8, list(range(count)), 2)
    assert [sq for sq, _ in out] == [x * x for x in range(count)]
    assert any(pid != os.getpid() for _, pid in out) == pooled
    assert _ordered_map(_slow_multiples_of_8, list(range(count)), 1) == [
        (x * x, os.getpid()) for x in range(count)
    ]


@pytest.mark.parametrize(
    "error", [UndefinedRatioError, PrecisionGuardError, CapExceededError]
)
def test_ordered_map_reraises_worker_errors(error):
    # the exit codes 2, 3 and 4 of `dsextra run` map these types
    with pytest.raises(error, match="raised in a worker"):
        _ordered_map(partial(_raise_at_77, error), range(100), 2)


def test_pool_workers_are_private_module_functions():
    # the pool pickles workers by reference, and the benchmark tracer
    # wraps public names only
    for fn in (harness._sweep_chunk, harness._bc_row_sums):
        assert fn.__name__.startswith("_")
        assert getattr(harness, fn.__name__) is fn
        assert pickle.loads(pickle.dumps(fn)) is fn


# ---------------------------------------------------------------------------
# divergence table

def test_divergence_table_checkpoints_and_plain(psi_half_300):
    rows = divergence_table(1, 40, psi_half_300)
    assert [row.n for row in rows] == [2, 4, 8, 16, 32, 40]
    direct = sum(
        psi_half_300.value(n) * totient(n) / n for n in range(1, 41)
    )
    assert rows[-1].plain == direct
    # partial sums are monotone
    assert all(a.plain <= b.plain for a, b in zip(rows, rows[1:]))


def test_divergence_table_damping_brackets(psi_half_300):
    rows = divergence_table(2, 64, psi_half_300, hpv_c=F(1, 2))
    for row in rows:
        for damp in (row.damped, row.hpv, row.bhhv):
            assert 0 < damp.lo <= damp.hi <= row.plain
        # dividing by (ln n)^2 >= dividing by nothing only once logs exceed 1
    assert rows[-1].damped.hi < rows[-1].plain


def test_divergence_table_domain_and_caps(psi_half_300):
    with pytest.raises(DomainError):
        divergence_table(0, 20, psi_half_300)
    with pytest.raises(DomainError):
        divergence_table(1, 1, psi_half_300)
    with pytest.raises(CapExceededError):
        divergence_table(1, 10_001, psi_half_300)


# SHA-256 of every row field as exact text, for (psi spec, epsilon, hpv_c,
# N, precision).  The recip rows take log_power_bounds' fractional path,
# the second one to N = TABLE_CAP.
TABLE_SHA256 = {
    ("half", F(3), F(1), 3000, 128):
        "72dd47de7272c001336686b8c58d638516fdca8aaf2a7c3eb62db794859ddc6e",
    ("recip", F(1, 2), F(3, 2), 2000, 64):
        "45ceaab59af01002a0a342cf85b0594543e2d27095a1a8f4c8bb1b1dbf282ca3",
    ("recip", F(1, 2), F(1), TABLE_CAP, 128):
        "746f9233327da018622c725cd49852526e7b89e590ada9bc01c7f56aafe944dd",
    ("primes:1", F(7, 3), F(2), 1500, 200):
        "f341d4fd3aed83fb0d63b6b4d20b47a87427a333542ba904e593f33a64e2f2c8",
}


@pytest.mark.parametrize(
    # the psi spec names a config, with N added at TABLE_CAP
    "config", list(TABLE_SHA256), ids=lambda c: c[0] if c[3] < TABLE_CAP else f"{c[0]}-{c[3]}"
)
def test_divergence_table_golden_digests(config):
    spec, epsilon, hpv_c, n_top, precision = config
    rows = divergence_table(epsilon, n_top, make_psi(spec, n_top), precision, hpv_c)
    text = "\n".join(
        " ".join(
            [str(row.n), frac_str(row.plain)]
            + [frac_str(x) for a in (row.damped, row.hpv, row.bhhv) for x in (a.value, a.err)]
        )
        for row in rows
    )
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256[config]


@pytest.mark.parametrize(
    "epsilon, logs, exps",
    # half psi, N = 1000: every term is positive.  Per n: both ends of
    # ln n, except n = 1, 2 <= 5/2, which floor to 1 with no call (1,996);
    # both ends of ln ln n for n >= 13, since max(1, ln n) <= 5/2 up to
    # n = 12 (1,976); no ln ln ln n, since ln ln n <= ln ln 1000 < 5/2;
    # both ends of the exps of hpv and bhhv (4,000).  A fractional epsilon
    # reads ln ln n before the floor for its power, for every n >= 3, and
    # the floor reuses it (1,996 + 1,996 logs), and adds both ends of the
    # power's exp (2,000).  Each end computed with its own floored log made
    # 5,964 and 4,000 calls at 3, and 7,960 and 6,000 at 1/2; two-sided
    # ends made 9,930 and 8,000, and 13,922 and 12,000.
    [(F(3), 3972, 4000), (F(1, 2), 3992, 6000)],
)
def test_divergence_table_libmp_call_counts(epsilon, logs, exps, monkeypatch):
    calls = {"mpf_log": 0, "mpf_exp": 0}
    for name in calls:
        f = getattr(arith, name)

        def counted(*args, f=f, name=name):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(arith, name, counted)
    divergence_table(epsilon, 1000, make_psi("half", 1000))
    assert calls == {"mpf_log": logs, "mpf_exp": exps}


def fraction_divergence_table(epsilon, n_top, psi, precision=128, hpv_c=1):
    """Reference route for divergence_table: its earlier loop, with the
    damping factors from iv_floored_log_bounds, pow_bounds and the interval
    context's exp (iv_exp_bounds) as Fraction ends and every running bound
    a Fraction (fraction_div_add)."""
    epsilon, hpv_c = F(epsilon), F(hpv_c)
    marks = {1 << j for j in range(1, n_top.bit_length())} | {n_top}
    plain = F(0)
    grid_bits = precision + 16
    acc = {"damped": [F(0), F(0)], "hpv": [F(0), F(0)], "bhhv": [F(0), F(0)]}
    rows = []
    for n in range(1, n_top + 1):
        term = psi.value(n) * totient(n) / n
        plain += term
        if term:
            l1 = iv_floored_log_bounds(n, n, precision)
            l2_lo, l2_hi = iv_floored_log_bounds(*l1, precision)
            f_lo, f_hi = pow_bounds(l1[0], l1[1], epsilon, precision)
            fraction_div_add(acc["damped"], term, f_lo, f_hi, grid_bits)
            f_lo, f_hi = iv_exp_bounds(
                hpv_c * l1[0] / l2_hi, hpv_c * l1[1] / l2_lo, precision
            )
            fraction_div_add(acc["hpv"], term, f_lo, f_hi, grid_bits)
            l3_lo, l3_hi = iv_floored_log_bounds(l2_lo, l2_hi, precision)
            f_lo, f_hi = iv_exp_bounds(
                epsilon * l3_lo * l2_lo, epsilon * l3_hi * l2_hi, precision
            )
            fraction_div_add(acc["bhhv"], term, f_lo, f_hi, grid_bits)
        if n in marks:
            rows.append(
                DivergenceRow(
                    n=n,
                    plain=plain,
                    damped=Approx.from_bounds(*acc["damped"]),
                    hpv=Approx.from_bounds(*acc["hpv"]),
                    bhhv=Approx.from_bounds(*acc["bhhv"]),
                )
            )
    return rows


def fraction_div_add(acc, term, f_lo, f_hi, bits):
    """Reference route for _div_add on Fraction bounds and factor ends:
    the exact sum, rounded outward onto the 2^-bits grid when its
    denominator outgrows it, with the same integer fast path."""
    grid = 1 << bits
    a, b = term.numerator, term.denominator
    for i, f, up in ((0, f_hi, False), (1, f_lo, True)):
        s, fn, fd = acc[i], f.numerator, f.denominator
        if grid % s.denominator == 0 and fd & (fd - 1) == 0:
            m = _odd_part(fn)
            if _odd_part(b) * (m // math.gcd(a, m)) > grid:
                num, den = a * fd * grid, b * fn
                step = -(-num // den) if up else num // den
                acc[i] = F(s.numerator * (grid // s.denominator) + step, grid)
                continue
        s += term / f
        if s.denominator > grid:
            s = F(math.ceil(s * grid) if up else math.floor(s * grid), grid)
        acc[i] = s


def _odd_part(k):
    return k >> ((k & -k).bit_length() - 1)


_TABLE_RADII = st.fractions(0, 3, max_denominator=60)
_TABLE_PSI = st.one_of(
    st.sampled_from(["half", "recip"]),
    st.builds("primes:{}".format, _TABLE_RADII),
    # a file table: absent n are 0, and the table reads psi unnormalized
    st.dictionaries(st.integers(1, 400), _TABLE_RADII, max_size=40),
)
_EPSILON = st.one_of(
    st.integers(1, 8).map(F),
    st.fractions(F(1, 12), 8, max_denominator=12),
)


@settings(max_examples=100, deadline=None)
@given(
    _TABLE_PSI,
    st.integers(2, 400),
    _EPSILON,
    st.fractions(F(1, 12), 4, max_denominator=12),
    st.integers(MIN_PRECISION, 256),
)
@example("half", 400, F(3), F(1), 128)
@example({1: F(1, 3), 2: F(0), 3: F(7, 5), 9: F(2)}, 40, F(1, 2), F(3, 2), 8)
# large prime denominators at n = 63 and 127: the plain sum's lcm grows
# just before the checkpoints 64 and 128
@example({1: F(1, 2), 63: F(5, 1_000_003), 127: F(7, 999_983)}, 128, F(3), F(1), 64)
def test_divergence_table_matches_fraction_route(spec, n_top, epsilon, hpv_c, precision):
    if isinstance(spec, dict):
        psi = PsiFunction(n_top, "file:table.csv", base=spec)
    else:
        psi = make_psi(spec, n_top)
    assert divergence_table(epsilon, n_top, psi, precision, hpv_c) == (
        fraction_divergence_table(epsilon, n_top, psi, precision, hpv_c)
    )


def _dyadic(m, e):
    return F(m) * F(2) ** e


def _end(f):
    # a dyadic Fraction as the end (m, j) for m·2^j, m odd, as damping_bounds
    # returns its ends
    twos = (f.numerator & -f.numerator).bit_length() - 1
    return f.numerator >> twos, twos + 1 - f.denominator.bit_length()


# dyadic factors with odd mantissas, the ends _div_add reads
_FACTOR = st.builds(
    _dyadic, st.integers(0, 1 << 199).map(lambda k: 2 * k + 1), st.integers(-200, 200)
)
_BOUND = st.one_of(
    st.builds(_dyadic, st.integers(0, 1 << 80), st.integers(-64, 0)),
    st.fractions(0, 100, max_denominator=1000),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(4, 64), _BOUND, _BOUND,
    st.fractions(F(1, 10 ** 6), 10 ** 4, max_denominator=10 ** 6), _FACTOR, _FACTOR,
)
# 17/51 = 1/3: the reduced term has odd part 3 <= grid, and 1/4 + 1/3 stays exact
@example(4, F(1, 4), F(1, 4), F(17), F(51), F(51))
# sums that land on the grid, from a bound on it (1/4 + 1/8) and from one
# off it (1/3 + 2/3), are held as grid units again
@example(8, F(1, 4), F(1, 3), F(3, 8), F(3), F(3))
@example(8, F(1, 4), F(1, 3), F(2, 3), F(1), F(1))
# around the multiply-compare odd(b)·m > a·grid at grid 16, which is never
# an equality (odd against even): just above it, 1·17 > 1·16, then just
# below it, 1·47 < 3·16, where the Fraction sum still rounds (odd part
# 47 > 16), and 1·45 < 3·16, where its odd part 15 <= 16 stays exact
@example(4, F(1, 4), F(1, 4), F(1), F(17, 2), F(17))
@example(4, F(1, 4), F(1, 4), F(3), F(47, 4), F(47))
@example(4, F(1, 4), F(1, 4), F(3), F(45, 4), F(45))
def test_div_add_matches_exact_sum_then_round(bits, s_lo, s_hi, term, f_lo, f_hi):
    # the integer fast path against the exact sum rounded outward
    grid = 1 << bits

    def rounded(s, up):
        if s.denominator <= grid:
            return s
        return F((math.ceil if up else math.floor)(s * grid), grid)

    def held(s):
        # a bound as _div_add holds it: grid units on the grid, else exact
        return s.numerator * (grid // s.denominator) if grid % s.denominator == 0 else s

    acc = [held(s_lo), held(s_hi)]
    _div_add(acc, term.numerator, term.denominator, _end(f_lo), _end(f_hi), bits)
    values = [_bound_value(s, bits) for s in acc]
    assert values == [rounded(s_lo + term / f_hi, False), rounded(s_hi + term / f_lo, True)]
    assert acc == [held(v) for v in values]


# ---------------------------------------------------------------------------
# sampling

def test_sample_pairs_deterministic():
    a = sample_pairs(2, 100, 25, seed=7)
    b = sample_pairs(2, 100, 25, seed=7)
    assert a == b
    assert a == sorted(set(a))
    assert all(2 <= m < n < 100 for m, n in a)
    assert sample_pairs(2, 100, 25, seed=8) != a


def test_sample_pairs_exhausts_small_ranges():
    got = sample_pairs(2, 5, 3, seed=1)
    assert got == [(2, 3), (2, 4), (3, 4)]
    with pytest.raises(ConfigError):
        sample_pairs(2, 5, 4, seed=1)


# ---------------------------------------------------------------------------
# config parsing

GOOD_DOC = {
    "psi": "half",
    "k_top": 3,
    "precision": 96,
    "jobs": 2,
    "out": "runs/sweep.csv",
    "with_integral": True,
    "pairs": {"mode": "sample", "lo": 2, "hi": 200, "count": 50, "seed": 11},
    "blocks": {"base": 2, "h_list": [0, 1, 2], "epsilon": "3", "thinned": True},
    "bc_n": 64,
    "table": {"epsilon": "1/2", "n_top": 128, "hpv_c": "2/10"},
}


def test_parse_config_full_document():
    cfg = parse_config(GOOD_DOC)
    assert (cfg.psi, cfg.k_top, cfg.precision, cfg.jobs) == ("half", 3, 96, 2)
    assert cfg.pair_sweep.mode == "sample" and cfg.pair_sweep.seed == 11
    assert cfg.blocks.epsilon == 3 and cfg.blocks.thinned
    assert cfg.table.epsilon == F(1, 2) and cfg.table.hpv_c == F(1, 5)
    assert cfg.bc_n == 64


def test_parse_config_rejects_unknown_keys():
    # GOOD_DOC with one unknown key, at the top level, in a section, or
    # outside its pairs mode: the key alone is refused, by name
    for key, doc in [
        ("psy", {**GOOD_DOC, "psy": 1}),
        ("typo", {**GOOD_DOC, "pairs": {**GOOD_DOC["pairs"], "typo": 1}}),
        ("seed", {**GOOD_DOC, "pairs": {"mode": "exhaustive", "lo": 2, "hi": 50, "seed": 1}}),
        ("thined", {**GOOD_DOC, "blocks": {**GOOD_DOC["blocks"], "thined": True}}),
        ("hpv-c", {**GOOD_DOC, "table": {**GOOD_DOC["table"], "hpv-c": "2"}}),
    ]:
        with pytest.raises(ConfigError, match=f"unknown .* keys: \\['{key}'\\]"):
            parse_config(doc)


def test_parse_config_rejects_float_numerics():
    doc = {"psi": "half", "table": {"epsilon": 0.5, "n_top": 10}}
    with pytest.raises(ConfigError, match="string"):
        parse_config(doc)


def test_parse_config_requires_seed_for_sampling():
    doc = {"psi": "half", "pairs": {"mode": "sample", "lo": 2, "hi": 50, "count": 5}}
    with pytest.raises(ConfigError, match="seed"):
        parse_config(doc)


def test_parse_config_pair_list_validation():
    for bad in ([[3, 3]], [[True, 3]], [[2, False]]):
        doc = {"psi": "half", "pairs": {"mode": "list", "pairs": bad}}
        with pytest.raises(ConfigError):
            parse_config(doc)
    doc = {"psi": "half", "pairs": {"mode": "drop", "lo": 2, "hi": 5}}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_config_k_top_cap():
    with pytest.raises(CapExceededError, match="SCALE_CAP"):
        parse_config({"psi": "half", "k_top": 65})


def test_parse_config_jobs_cap():
    assert parse_config({"psi": "half", "bc_n": 3, "jobs": 64}).jobs == 64
    with pytest.raises(CapExceededError, match="JOBS_CAP"):
        parse_config({"psi": "half", "bc_n": 3, "jobs": 65})


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(GOOD_DOC))
    assert load_config(str(path)) == parse_config(GOOD_DOC)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


# ---------------------------------------------------------------------------
# runner

def test_run_experiment_sections_and_csvs(tmp_path):
    out = tmp_path / "demo.csv"
    cfg = parse_config({
        "psi": "half",
        "k_top": 2,
        "out": str(out),
        "pairs": {"mode": "list", "pairs": [[2, 3], [6, 10]]},
        "blocks": {
            "base": 2, "h_list": [0, 2], "epsilon": "3",
            "sample": 40, "seed": 9, "thinned": True,
        },
        "bc_n": 10,
        "table": {"epsilon": "1", "n_top": 16},
        "max_n": 100,
    })
    result = run_experiment(cfg)

    assert result.summary["bc"]["ratio"] == F(1708249, 1891785)
    assert result.summary["blocks"]["chosen"][0] == 1
    assert result.summary["thinned"]["off_even_violations"] == 0
    assert result.summary["thinned"]["value_violations"] == 0

    sweep = out.read_text().splitlines()
    assert sweep[0] == ",".join(CSV_COLUMNS)
    assert len(sweep) == 5
    assert sweep[1].startswith("2,3,1,")
    for tag in ("blocks", "bc", "table"):
        derived = tmp_path / f"demo.{tag}.csv"
        assert derived.exists(), tag
        assert str(derived) in result.csv_paths
    bc_rows = (tmp_path / "demo.bc.csv").read_text().splitlines()
    assert bc_rows[0] == "n,measure_sum,second_moment,ratio"
    assert bc_rows[-1].startswith("10,")


def test_run_experiment_honors_caps():
    cfg = parse_config({
        "psi": "half",
        "pairs": {"mode": "exhaustive", "lo": 2, "hi": PAIR_CAP_EXACT + 10},
    })
    with pytest.raises(CapExceededError):
        run_experiment(cfg)
    cfg = parse_config({"psi": "half", "bc_n": BC_CAP + 1})
    with pytest.raises(CapExceededError):
        run_experiment(cfg)


def test_run_experiment_max_n_override():
    # max_n lifts the bc cap: a small run with an inflated cap must pass
    cfg = parse_config({"psi": "half", "bc_n": 12, "max_n": 2000})
    result = run_experiment(cfg)
    assert result.summary["bc"]["n"] == 12
    # and max_n can also lower a cap below the request
    cfg = parse_config({"psi": "half", "bc_n": 12, "max_n": 10})
    with pytest.raises(CapExceededError):
        run_experiment(cfg)


def test_run_experiment_jobs_match(tmp_path, fresh_log_steps):
    base = {
        "psi": "recip",
        "k_top": 2,
        "pairs": {"mode": "sample", "lo": 2, "hi": 150, "count": 80, "seed": 3},
    }
    both = {**base, "bc_n": 90}
    one = run_experiment(parse_config({**both, "jobs": 1, "out": str(tmp_path / "a.csv")}))
    four = run_experiment(parse_config({**both, "jobs": 4, "out": str(tmp_path / "b.csv")}))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.bc.csv").read_bytes() == (tmp_path / "b.bc.csv").read_bytes()
    assert one.summary == four.summary

    # with the integral column: from an empty step table, from the table
    # the first run left, and across a process pool
    cfg = {**base, "psi": "half", "k_top": 3, "with_integral": True}
    runs = [
        run_experiment(parse_config({**cfg, "jobs": jobs, "out": str(tmp_path / name)}))
        for jobs, name in ((1, "cold.csv"), (1, "warm.csv"), (4, "pool.csv"))
    ]
    cold = (tmp_path / "cold.csv").read_bytes()
    assert cold == (tmp_path / "warm.csv").read_bytes()
    assert cold == (tmp_path / "pool.csv").read_bytes()
    assert runs[0].summary["sweep"] == runs[1].summary["sweep"] == runs[2].summary["sweep"]
    with open(tmp_path / "cold.csv", newline="") as f:
        integrals = [row["integral_bound"] for row in csv.DictReader(f)]
    assert all(integrals)
    assert any(F(value) for value in integrals)


def test_run_experiment_thinned_needs_even_blocks():
    # selection ran only on h = 2, but the audit range also covers h = 0
    cfg = parse_config({
        "psi": "half",
        "blocks": {
            "base": 2, "h_list": [2], "epsilon": "3",
            "sample": 10, "seed": 5, "thinned": True,
        },
        "max_n": 100,
    })
    with pytest.raises(ConfigError, match=r"even blocks \[0\];"):
        run_experiment(cfg)
    # the audit range 1..300 reaches block h = 3 at base 2, so it needs h = 2
    cfg = parse_config({
        "psi": "half",
        "blocks": {
            "base": 2, "h_list": [0, 1, 3], "epsilon": "3",
            "sample": 10, "seed": 5, "thinned": True,
        },
        "max_n": 300,
    })
    with pytest.raises(ConfigError, match=r"even blocks \[2\];"):
        run_experiment(cfg)
    # at base 4, block h = 0 is [2, 16): the audit range 1..15 needs only it
    cfg = parse_config({
        "psi": "half",
        "blocks": {"base": 4, "h_list": [0], "epsilon": "3", "thinned": True},
    })
    assert run_experiment(cfg).summary["thinned"]["n_star"] == 15


def test_run_experiment_thinned_skips_unreached_blocks():
    # with h_list [0, 1] the audit range stops at 15, so h = 2 is not needed
    cfg = parse_config({
        "psi": "half",
        "blocks": {"base": 2, "h_list": [0, 1], "epsilon": "3", "thinned": True},
        "max_n": 300,
    })
    result = run_experiment(cfg)
    assert result.summary["thinned"]["n_star"] == 15
    assert result.summary["thinned"]["support"] > 0


def test_run_experiment_thinned_ratio_window(pins):
    # the audit's window of (ln n)^ε·psi*(n)/psi(n) over the base-2 blocks
    # h <= 2 is the window that criterion 9 computes on its own and pins
    cfg = parse_config({
        "psi": "half",
        "blocks": {"base": 2, "h_list": [0, 1, 2], "epsilon": "3", "thinned": True},
    })
    lo, hi = run_experiment(cfg).summary["thinned"]["ratio_window"]
    pin = pins.data["acceptance/c9_ratio_window"]
    assert (frac_str(lo), frac_str(hi)) == (pin["lo"], pin["hi"])


def test_run_experiment_thinned_ignores_other_sections():
    # bc_n and table n_top stretch psi to 40, past the audit range 1..15;
    # the audit must still stop at 15 and not ask for block h = 2
    cfg = parse_config({
        "psi": "recip",
        "pairs": {"mode": "exhaustive", "lo": 2, "hi": 40},
        "blocks": {"base": 2, "h_list": [0, 1], "epsilon": "3", "thinned": True},
        "bc_n": 30,
        "table": {"epsilon": "1", "n_top": 40},
    })
    result = run_experiment(cfg)
    assert result.summary["thinned"]["n_star"] == 15
    assert result.summary["thinned"]["value_violations"] == 0


def test_run_experiment_table_cap_ignores_max_n():
    # TABLE_CAP is hard: max_n = 10 lowers the other caps, not the table's
    run_experiment(parse_config({"psi": "half", "table": {"n_top": 64}, "max_n": 10}))
