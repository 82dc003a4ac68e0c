"""Second-moment series, divergence table, config parsing, and the runner."""

import json
from fractions import Fraction as F

import pytest

from dsextra import circles
from dsextra.arith import totient
from dsextra.circles import coprime_arcs, intersection_measure
from dsextra.errors import (
    CapExceededError,
    ConfigError,
    DomainError,
    UndefinedRatioError,
)
from dsextra.harness import (
    BC_CAP,
    PAIR_CAP_EXACT,
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


def test_divergence_table_custom_checkpoints(psi_half_300):
    rows = divergence_table(1, 20, psi_half_300, checkpoints=[5, 20])
    assert [row.n for row in rows] == [5, 20]
    with pytest.raises(DomainError):
        divergence_table(1, 20, psi_half_300, checkpoints=[0])
    with pytest.raises(DomainError):
        divergence_table(1, 20, psi_half_300, checkpoints=[21])


def test_divergence_table_domain_and_caps(psi_half_300):
    with pytest.raises(DomainError):
        divergence_table(0, 20, psi_half_300)
    with pytest.raises(DomainError):
        divergence_table(1, 1, psi_half_300)
    with pytest.raises(CapExceededError):
        divergence_table(1, 10_001, psi_half_300)


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


def test_run_experiment_jobs_match(tmp_path, fresh_log_prefix):
    base = {
        "psi": "recip",
        "k_top": 2,
        "pairs": {"mode": "sample", "lo": 2, "hi": 150, "count": 80, "seed": 3},
    }
    one = run_experiment(parse_config({**base, "jobs": 1, "out": str(tmp_path / "a.csv")}))
    four = run_experiment(parse_config({**base, "jobs": 4, "out": str(tmp_path / "b.csv")}))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert one.summary["sweep"] == four.summary["sweep"]

    # with the integral column: from empty prefix tables, from the tables
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
    with pytest.raises(ConfigError, match="even"):
        run_experiment(cfg)


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
