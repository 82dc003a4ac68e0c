"""Second-moment series, divergence table, config parsing, and the runner."""

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

from dsextra import arith, circles, harness
from dsextra.arith import frac_str, totient
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


def test_bc_ratio_matches_direct_double_sum(psi_half_300):
    n_top = 12
    ratio, rows = borel_cantelli_ratio(psi_half_300, n_top)
    sets = [coprime_arcs(n, psi_half_300.value(n)) for n in range(1, n_top + 1)]
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


def test_bc_ratio_in_unit_interval(psi_recip_300):
    ratio, rows = borel_cantelli_ratio(psi_recip_300, 40)
    assert 0 < ratio <= 1
    assert all(r is None or 0 < r <= 1 for _, _, _, r in rows)


def test_bc_ratio_requires_normalized():
    with pytest.raises(DomainError):
        borel_cantelli_ratio(make_psi("half", 10), 5)


def test_bc_ratio_undefined_when_all_zero():
    psi = normalize_psi(PsiFunction(5, "table", base={}))
    with pytest.raises(UndefinedRatioError):
        borel_cantelli_ratio(psi, 5)


@pytest.mark.parametrize("gen", ["half", "recip", "primes:1/4"])
@pytest.mark.parametrize("n_top", [50, 130])
def test_bc_ratio_independent_of_jobs(gen, n_top):
    # 50 rows run in-process at every jobs value, 130 on the pool
    psi = normalize_psi(make_psi(gen, n_top))
    serial = borel_cantelli_ratio(psi, n_top)
    for jobs in (2, 4):
        assert borel_cantelli_ratio(psi, n_top, jobs) == serial


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
    for fn in (harness._sweep_chunk, harness._bc_rows):
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
# N, precision).  The recip row takes pow_bounds' fractional path.
TABLE_SHA256 = {
    ("half", F(3), F(1), 3000, 128):
        "72dd47de7272c001336686b8c58d638516fdca8aaf2a7c3eb62db794859ddc6e",
    ("recip", F(1, 2), F(3, 2), 2000, 64):
        "45ceaab59af01002a0a342cf85b0594543e2d27095a1a8f4c8bb1b1dbf282ca3",
    ("primes:1", F(7, 3), F(2), 1500, 200):
        "f341d4fd3aed83fb0d63b6b4d20b47a87427a333542ba904e593f33a64e2f2c8",
}


@pytest.mark.parametrize("config", list(TABLE_SHA256), ids=lambda c: c[0])
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
    # per term: both ends of ln n, one end of each of the two ln ln n and
    # the two ln ln ln n, one end of each of the two exps of hpv and bhhv;
    # ln 1 = 0 takes no call, so small n make fewer.  A fractional epsilon
    # adds one end of each of two logs and two exps.  Two-sided ends made
    # 9,930 and 8,000 calls at 3, and 13,922 and 12,000 at 1/2.
    [(F(3), 5964, 4000), (F(1, 2), 7960, 6000)],
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


def _dyadic(m, e):
    return F(m) * F(2) ** e


_FACTOR = st.one_of(
    st.builds(_dyadic, st.integers(1, 1 << 200), st.integers(-200, 200)),
    st.fractions(1, 10 ** 6, max_denominator=10 ** 6),
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
# 17/51 = 1/3: the gcd leaves an odd part 3 <= grid, and 1/4 + 1/3 stays exact
@example(4, F(1, 4), F(1, 4), F(17), F(51), F(51))
def test_div_add_matches_exact_sum_then_round(bits, s_lo, s_hi, term, f_lo, f_hi):
    # the integer fast path against the exact sum rounded outward
    grid = 1 << bits

    def rounded(s, up):
        if s.denominator <= grid:
            return s
        return F((math.ceil if up else math.floor)(s * grid), grid)

    acc = [s_lo, s_hi]
    _div_add(acc, term, f_lo, f_hi, bits)
    assert acc == [rounded(s_lo + term / f_hi, False), rounded(s_hi + term / f_lo, True)]


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
    with pytest.raises(ConfigError, match="unknown"):
        parse_config({"psi": "half", "psy": 1})
    with pytest.raises(ConfigError):
        parse_config({"psi": "half", "pairs": {"mode": "sample", "typo": 1}})


def test_parse_config_rejects_float_numerics():
    doc = {"psi": "half", "table": {"epsilon": 0.5, "n_top": 10}}
    with pytest.raises(ConfigError, match="string"):
        parse_config(doc)


def test_parse_config_requires_seed_for_sampling():
    doc = {"psi": "half", "pairs": {"mode": "sample", "lo": 2, "hi": 50, "count": 5}}
    with pytest.raises(ConfigError, match="seed"):
        parse_config(doc)


def test_parse_config_pair_list_validation():
    doc = {"psi": "half", "pairs": {"mode": "list", "pairs": [[3, 3]]}}
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
    assert len(result.records) == 4     # 2 pairs x k_top

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
    assert all(rec.integral is not None for rec in runs[0].records)
    assert any(rec.integral.value for rec in runs[0].records)


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
