"""CLI surface: subcommands, report text, CSV output, and exit codes."""

import concurrent.futures
import hashlib
import json
import subprocess
import sys

import pytest

from dsextra import cli, harness
from dsextra.cli import main
from dsextra.overlap import CSV_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# single-shot commands

def test_phi(capsys):
    code, out, _ = run_cli(capsys, "phi", "360")
    assert code == 0
    assert "360 = 2^3 * 3^2 * 5" in out
    assert "phi(360) = 96" in out


def test_phi_of_one(capsys):
    code, out, _ = run_cli(capsys, "phi", "1")
    assert code == 0 and "phi(1) = 1" in out


def test_pair(capsys):
    code, out, _ = run_cli(capsys, "pair", "14", "30")
    assert code == 0
    assert "gcd = 2" in out
    assert "r = 2  s = 1  t = 105" in out


def test_overlap_report(capsys):
    code, out, _ = run_cli(capsys, "overlap", "2", "3", "--k", "0")
    assert code == 0
    assert "cutoff D_k = 3/2" in out
    assert "product bound = 3" in out
    assert "P exact = 3/2" in out
    assert "disjoint predicted = no" in out


def test_overlap_csv(capsys, tmp_path):
    out_path = tmp_path / "one.csv"
    code, out, _ = run_cli(
        capsys, "overlap", "2", "3", "--k", "1", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("2,3,1,1,1,6,1,1/6,1/4,")


def test_avgsum(capsys):
    code, out, _ = run_cli(capsys, "avgsum", "6", "10", "--K", "2")
    assert code == 0
    assert "total = 0/1" in out or "total = 0" in out
    assert "reference" in out


def test_block_small(capsys):
    code, out, _ = run_cli(
        capsys, "block", "--h", "0", "--base", "2", "--eps", "3"
    )
    assert code == 0
    assert "range [2, 4)" in out
    assert "chosen k = 1" in out


def test_bc(capsys):
    code, out, _ = run_cli(capsys, "bc", "--psi", "half", "--N", "3")
    assert code == 0
    assert "ratio = 169/198" in out


def test_table(capsys, tmp_path):
    out_path = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "table", "--eps", "1", "--N", "16", "--psi", "half",
        "--hpv-c", "1/2", "--out", str(out_path),
    )
    assert code == 0
    assert "N = 16:" in out
    header = out_path.read_text().splitlines()[0]
    assert header.startswith("n,plain")


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_2_on_config_error(capsys):
    code, _, err = run_cli(capsys, "bc", "--psi", "gauss", "--N", "3")
    assert code == 2
    assert "error" in err


def test_exit_code_2_on_domain_error(capsys):
    code, _, err = run_cli(capsys, "phi", "0")
    assert code == 2
    # a pair below 1 is reported as such, not as an empty psi range
    for argv in (
        ["pair", "-3", "-5"],
        ["overlap", "-3", "-5"],
        ["avgsum", "-3", "-5", "--K", "2"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "pair entries must be >= 1" in err, argv


def test_exit_code_3_on_precision_guard(capsys):
    # eps * ln 4 within the floor guard of an integer (see test_schedule)
    code, _, err = run_cli(
        capsys, "block", "--h", "1", "--base", "2",
        "--eps", "40633044299010862123",
    )
    assert code == 3
    assert "precision guard" in err


def test_exit_code_4_on_cap(capsys):
    code, _, err = run_cli(capsys, "bc", "--psi", "half", "--N", "501")
    assert code == 4
    assert "cap exceeded" in err


def test_jobs_cap_exits_4_before_any_pool(capsys, tmp_path, monkeypatch):
    # a pool forks all its workers at the first task: refuse before one exists
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was constructed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "psi": "half", "jobs": 2, "pairs": {"mode": "exhaustive", "lo": 2, "hi": 40},
    }))
    for jobs in ("65", "100000"):
        code, _, err = run_cli(capsys, "run", str(path), "--jobs", jobs)
        assert code == 4
        assert "JOBS_CAP" in err


def test_import_loads_no_pool_machinery():
    # the pool module is imported by harness._ordered_map, when a pool starts
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dsextra.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_missing_block_sample_is_config_error(capsys):
    code, _, err = run_cli(capsys, "block", "--h", "1", "--eps", "3")
    assert code == 2
    assert "--sample" in err


# ---------------------------------------------------------------------------
# run + determinism through the real entry point

def test_run_subcommand_and_overrides(capsys, tmp_path):
    cfg = {
        "psi": "half",
        "k_top": 2,
        "pairs": {"mode": "list", "pairs": [[2, 3], [6, 10]]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "run", str(path), "--out", str(out_path))
    assert code == 0
    assert "records = 4" in out
    assert f"wrote {out_path}" in out
    assert out_path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def _write_config(tmp_path, doc) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_flags_override_config(capsys, tmp_path, monkeypatch):
    seen = []
    real = cli.run_experiment

    def spy(cfg):
        seen.append((cfg.jobs, cfg.precision))
        return real(cfg)

    monkeypatch.setattr(cli, "run_experiment", spy)
    path = _write_config(tmp_path, {
        "psi": "half", "jobs": 2, "precision": 96,
        "pairs": {"mode": "list", "pairs": [[2, 3]]},
    })
    assert run_cli(capsys, "run", path)[0] == 0
    assert run_cli(capsys, "run", path, "--jobs", "1", "--precision", "128")[0] == 0
    assert seen == [(2, 96), (1, 128)]


@pytest.mark.parametrize("flag", [["--precision", "4"], ["--jobs", "0"]])
def test_run_flags_are_validated_like_the_file(capsys, tmp_path, flag):
    path = _write_config(tmp_path, {"psi": "half", "bc_n": 3})
    code, _, err = run_cli(capsys, "run", path, *flag)
    assert code == 2
    assert flag[0][2:] in err


@pytest.mark.parametrize("precision", ["4", "0", "-100"])
@pytest.mark.parametrize("argv", [
    ["pair", "2", "3"], ["overlap", "2", "3"], ["avgsum", "2", "3", "--K", "2"],
])
def test_pair_commands_check_precision(capsys, argv, precision):
    # these commands skip parse_config but keep its precision floor
    code, _, err = run_cli(capsys, *argv, "--precision", precision)
    assert code == 2
    assert "precision" in err


@pytest.mark.parametrize("argv", [
    ["phi", "360", "--out", "x.csv"],
    ["phi", "360", "--precision", "64"],
    ["bc", "--N", "3", "--precision", "64"],
    ["table", "--eps", "1", "--N", "4", "--jobs", "2"],
])
def test_unread_flags_are_gone(argv):
    with pytest.raises(SystemExit):
        main(argv)


@pytest.mark.parametrize("argv, doc, tag", [
    (["block", "--h", "1", "--base", "2", "--eps", "3"],
     {"blocks": {"base": 2, "h_list": [1], "epsilon": "3"}}, "blocks"),
    (["bc", "--N", "20"], {"bc_n": 20}, "bc"),
    (["table", "--eps", "1", "--N", "16", "--psi", "primes:1"],
     {"psi": "primes:1", "table": {"epsilon": "1", "n_top": 16}}, "table"),
    (["bc", "--N", "80", "--jobs", "2"], {"bc_n": 80, "jobs": 2}, "bc"),
])
def test_cli_csv_matches_run_section(capsys, tmp_path, argv, doc, tag):
    # a single-workload command and its one-section run config must
    # write the same bytes
    cli_csv = tmp_path / "cli.csv"
    assert run_cli(capsys, *argv, "--out", str(cli_csv))[0] == 0
    path = _write_config(
        tmp_path, {"psi": "half", **doc, "out": str(tmp_path / "run.csv")}
    )
    assert run_cli(capsys, "run", path)[0] == 0
    assert cli_csv.read_bytes() == (tmp_path / f"run.{tag}.csv").read_bytes()


def test_run_missing_config_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", str(tmp_path / "absent.json"))
    assert code == 2


def test_bc_out_in_missing_directory(capsys, tmp_path):
    out = tmp_path / "absent" / "x.csv"
    code, _, err = run_cli(capsys, "bc", "--N", "3", "--out", str(out))
    assert code == 2
    assert str(out) in err


def test_overlap_out_is_a_directory(capsys, tmp_path):
    code, _, err = run_cli(capsys, "overlap", "2", "3", "--out", str(tmp_path))
    assert code == 2
    assert str(tmp_path) in err


def test_run_out_in_missing_directory(capsys, tmp_path):
    out = tmp_path / "absent" / "sweep.csv"
    cfg = _write_config(tmp_path, {
        "psi": "half",
        "out": str(out),
        "pairs": {"mode": "list", "pairs": [[2, 3]]},
    })
    code, _, err = run_cli(capsys, "run", cfg)
    assert code == 2
    assert str(out) in err


def _must_not_run(*args, **kwargs):
    raise AssertionError("a section ran before its CSV path was checked")


def test_bc_out_checked_before_the_series(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "borel_cantelli_ratio", _must_not_run)
    out = tmp_path / "absent" / "x.csv"
    code, _, err = run_cli(capsys, "bc", "--N", "300", "--out", str(out))
    assert code == 2
    assert str(out) in err
    assert not out.parent.exists()


def test_table_out_checked_before_the_table(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "divergence_table", _must_not_run)
    code, _, err = run_cli(
        capsys, "table", "--eps", "3", "--N", "300", "--out", str(tmp_path)
    )
    assert code == 2
    assert str(tmp_path) in err
    assert list(tmp_path.iterdir()) == []


def test_run_checks_every_csv_path_first(capsys, tmp_path, monkeypatch):
    # the sweep's own path is writable, but the table's derived name is a
    # directory: no section runs and no CSV is written
    for name in ("run_pair_sweep", "borel_cantelli_ratio", "divergence_table"):
        monkeypatch.setattr(harness, name, _must_not_run)
    table = tmp_path / "sweep.table.csv"
    table.mkdir()
    cfg = _write_config(tmp_path, {
        "psi": "half",
        "out": str(tmp_path / "sweep.csv"),
        "pairs": {"mode": "list", "pairs": [[2, 3]]},
        "bc_n": 20,
        "table": {"epsilon": "3", "n_top": 64},
    })
    code, _, err = run_cli(capsys, "run", cfg)
    assert code == 2
    assert str(table) in err
    assert {p.name for p in tmp_path.iterdir()} == {"cfg.json", "sweep.table.csv"}


@pytest.mark.parametrize("later, code, text", [
    ({"bc_n": 600}, 4, "BC_CAP"),
    ({"blocks": {"base": 4, "h_list": [0, 2], "epsilon": "3"}}, 4, "sampled cap"),
    ({"blocks": {"base": 4, "h_list": [0, 1], "epsilon": "3"}}, 2, "blocks.sample"),
    ({"table": {"epsilon": "3", "n_top": 10_001}}, 4, "TABLE_CAP"),
    # block h = 3 at base 2 starts at 256: max_n = 300 leaves 990 pairs
    ({"blocks": {"base": 2, "h_list": [3], "epsilon": "3", "sample": 5000, "seed": 1},
      "max_n": 300}, 2, "cannot sample 5000"),
    ({"blocks": {"base": 2, "h_list": [1], "epsilon": "3", "thinned": True}},
     2, "even blocks [0]"),
    # K(1) = floor(100·ln 4) = 138 scales
    ({"blocks": {"base": 2, "h_list": [1], "epsilon": "100"}}, 4, "SCALE_CAP"),
    # psi is 0 on 1..5, so every bc event has measure zero
    ({"psi": "primes:0", "bc_n": 5}, 2, "all events have measure zero"),
])
def test_run_checks_every_cap_first(capsys, tmp_path, later, code, text):
    # the sweep is within its cap, but a later section is refused: the run
    # exits before the sweep writes its CSV
    cfg = _write_config(tmp_path, {
        "psi": "half",
        "pairs": {"mode": "exhaustive", "lo": 2, "hi": 60},
        "out": str(tmp_path / "out.csv"),
        **later,
    })
    exit_code, _, err = run_cli(capsys, "run", cfg)
    assert exit_code == code
    assert text in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# the example config of the README and the SHA-256 of each CSV it writes:
# refactors must leave these seeded bytes unchanged
README_EXAMPLE = {
    "psi": "half",
    "k_top": 4,
    "precision": 128,
    "jobs": 2,
    "out": "sweep.csv",
    "with_integral": False,
    "pairs": {"mode": "sample", "lo": 2, "hi": 300, "count": 60, "seed": 99},
    "blocks": {"base": 2, "h_list": [0, 2], "epsilon": "3",
               "sample": 40, "seed": 9, "thinned": True},
    "bc_n": 20,
    "table": {"epsilon": "3", "n_top": 64, "hpv_c": "1"},
    "max_n": 2000,
}

README_EXAMPLE_SHA256 = {
    "sweep.csv": "d1d4ea1d9e1fb27af16430c1fbdc1509b6467f71f49c74346dc4b7591f05f454",
    "sweep.blocks.csv": "1380fa5082d404631389d69462e7d3f02ad946c652646fb8ce7a1961c1a0e8fc",
    "sweep.bc.csv": "0fe5c6271056c73cd32aa8733b035b3e6b84bc85d48120d44d3713419dd834f7",
    "sweep.table.csv": "7e276a9da05950e1799348a57f66b2d8639c6a36f021817cad04b838f6b2cb8f",
}


def test_readme_example_csv_bytes(tmp_path):
    path = _write_config(tmp_path, README_EXAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "dsextra", "run", path,
         "--out", str(tmp_path / "sweep.csv")],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in README_EXAMPLE_SHA256
    }
    assert got == README_EXAMPLE_SHA256


def test_entry_point_determinism(tmp_path):
    cfg = {
        "psi": "recip",
        "k_top": 3,
        "out": str(tmp_path / "d.csv"),
        "pairs": {"mode": "sample", "lo": 2, "hi": 120, "count": 40, "seed": 13},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outputs = []
    for run in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-m", "dsextra", "run", str(path)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / "d.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 121     # header + 40 pairs x 3 scales
