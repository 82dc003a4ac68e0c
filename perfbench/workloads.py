"""The four benchmark workloads: inputs from a seed, the timed call, checks.

Each workload is a (setup, run, check) triple.  setup builds the inputs
from the workload seed (everything the program sees is generated here),
run is the one top-level library call that is timed, and check verifies
the output outside the timed region.  Calls go through module attributes
at call time, so a tracer that rebinds them sees every call.

The checks recompute what they can without the program: totients come
from a local sieve, the expected pair lists from local samplers, and the
Borel-Cantelli ratio from the pinned value in tests/data/pins.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

EPSILON = 3

# block-exhaustive: base-2 block h=2 is [16, 256); K = floor(3 * 2 * ln 4) = 8
EXH_H, EXH_LO, EXH_HI, EXH_K = 2, 16, 256, 8
# block-sampled: base-2 block h=3 is [256, 65536), sampled below the
# program's sampled-pair cap 10,000; K = floor(3 * 3 * ln 4) = 12
SMP_H, SMP_LO, SMP_HI, SMP_K, SMP_COUNT = 3, 256, 10_001, 12, 100
# table: psi = 1/2 un-normalized, N = 10,000 at 128 bits
TABLE_N = 10_000
# run-sweep-bc: the config's pair sweep and Borel-Cantelli section
SWEEP = {"lo": 2, "hi": 2000, "count": 800}
SWEEP_K = 4
BC_N = 500
BC_PIN = "acceptance/c10_bc_500"


# ---------------------------------------------------------------------------
# independent helpers

def totients(limit: int) -> list[int]:
    """phi(0..limit) by a sieve; shares no code with the program."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for q in range(p, limit + 1, p):
                phi[q] -= phi[q] // p
    return phi


def stratified_pairs(lo: int, hi: int, count: int, seed: int) -> list[tuple[int, int]]:
    """`count` pairs of distinct n from [lo, hi), one n per stratum.

    [lo, hi) is cut into 2*count equal strata and one n is drawn from
    each, then the n are paired at random.  Arc construction costs about
    phi(n) per n, so stratifying keeps the total work nearly the same
    from seed to seed while every pair still changes with the seed.
    """
    rng = random.Random(seed)
    strata = 2 * count
    span = hi - lo
    values = [
        rng.randrange(lo + span * i // strata, lo + span * (i + 1) // strata)
        for i in range(strata)
    ]
    rng.shuffle(values)
    return sorted(
        (min(a, b), max(a, b)) for a, b in zip(values[0::2], values[1::2])
    )


def uniform_pairs(lo: int, hi: int, count: int, seed: int) -> list[tuple[int, int]]:
    """The documented seeded sampler of a `"mode": "sample"` config."""
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    while len(seen) < count:
        m = rng.randrange(lo, hi)
        n = rng.randrange(lo, hi)
        if m == n:
            continue
        seen.add((min(m, n), max(m, n)))
    return sorted(seen)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# block-exhaustive and block-sampled: schedule.select_scale

def _block_setup(h: int, pairs: list[tuple[int, int]], n_max: int) -> dict:
    from dsextra import psi as psi_mod

    psi = psi_mod.normalize_psi(psi_mod.make_psi("half", n_max))
    return {"h": h, "psi": psi, "pairs": pairs}


def setup_block_exhaustive(seed: int, tmp: Path, jobs: int | None) -> dict:
    pairs = [(m, n) for m in range(EXH_LO, EXH_HI) for n in range(m + 1, EXH_HI)]
    return _block_setup(EXH_H, pairs, EXH_HI - 1)


def setup_block_sampled(seed: int, tmp: Path, jobs: int | None) -> dict:
    pairs = stratified_pairs(SMP_LO, SMP_HI, SMP_COUNT, seed)
    return _block_setup(SMP_H, pairs, SMP_HI - 1)


def run_block(inputs: dict):
    from dsextra import schedule

    return schedule.select_scale(
        inputs["h"], inputs["psi"], EPSILON, inputs["pairs"], base=2
    )


def _check_block(inputs: dict, report, k_top: int, n_max: int) -> tuple[list[str], str]:
    problems = []
    pairs = inputs["pairs"]
    if report.scale_count != k_top:
        problems.append(f"K = {report.scale_count}, expected {k_top}")
    if report.pair_count != len(pairs):
        problems.append(f"pair_count {report.pair_count} != {len(pairs)}")
    if [row[0] for row in report.per_k_sums] != list(range(1, k_top + 1)):
        problems.append("per-k rows are not k = 1..K")
    # measure law: measure(E_n) = 2 * psi(n) * phi(n) / n with psi = 1/2
    phi = totients(n_max)
    s2 = sum(Fraction(phi[m] * phi[n], m * n) for m, n in pairs)
    if any(row[2] != s2 for row in report.per_k_sums):
        problems.append("S2 differs from the measure-law recomputation")
    if report.per_k_sums:
        argmin = min(report.per_k_sums, key=lambda row: (row[1], row[0]))[0]
        if report.chosen_k != argmin:
            problems.append(f"chosen_k {report.chosen_k} is not the argmin {argmin}")
    digest = _sha(
        [report.h, report.scale_count, report.chosen_k, report.pair_count]
        + [f"{k} {_frac(s1)} {_frac(s2)}" for k, s1, s2 in report.per_k_sums]
    )
    return problems, digest


def check_block_exhaustive(inputs, report, seed):
    return _check_block(inputs, report, EXH_K, EXH_HI - 1)


def check_block_sampled(inputs, report, seed):
    return _check_block(inputs, report, SMP_K, SMP_HI - 1)


# ---------------------------------------------------------------------------
# table: harness.divergence_table

def setup_table(seed: int, tmp: Path, jobs: int | None) -> dict:
    from dsextra import psi as psi_mod

    # the divergence series uses psi exactly as given, with no normalization
    return {"psi": psi_mod.make_psi("half", TABLE_N)}


def run_table(inputs: dict):
    from dsextra import harness

    return harness.divergence_table(EPSILON, TABLE_N, inputs["psi"], 128)


def check_table(inputs, rows, seed):
    problems = []
    marks = sorted({1 << j for j in range(1, TABLE_N.bit_length()) if 1 << j <= TABLE_N} | {TABLE_N})
    if [r.n for r in rows] != marks:
        problems.append("checkpoints are not the powers of two and N")
    # exact plain sums: sum of phi(n) / (2n), over the common denominator lcm(1..N)
    phi = totients(TABLE_N)
    lcm = math.lcm(*range(1, TABLE_N + 1))
    plain = {}
    acc = 0
    for n in range(1, TABLE_N + 1):
        acc += phi[n] * (lcm // n)
        if n in marks:
            plain[n] = Fraction(acc, 2 * lcm)
    for r in rows:
        if r.plain != plain.get(r.n):
            problems.append(f"plain sum at N = {r.n} differs from the exact sum")
        for col in ("damped", "hpv", "bhhv"):
            enc = getattr(r, col)
            if not enc.lo <= enc.hi:
                problems.append(f"{col} enclosure at N = {r.n} has lo > hi")
    digest = _sha(
        f"{r.n} {_frac(r.plain)} {_frac(r.damped.value)} {_frac(r.damped.err)} "
        f"{_frac(r.hpv.value)} {_frac(r.hpv.err)} {_frac(r.bhhv.value)} {_frac(r.bhhv.err)}"
        for r in rows
    )
    return problems, digest


# ---------------------------------------------------------------------------
# run-sweep-bc: cli.main(["run", CONFIG])

def setup_run_sweep_bc(seed: int, tmp: Path, jobs: int | None) -> dict:
    from dsextra import cli  # noqa: F401  (the import is part of set-up)

    out = tmp / "sweep.csv"
    # Every setting lives in the file: `dsextra run CFG --jobs 1` keeps a
    # config's "jobs": 2, because the CLI only overrides jobs != 1.
    cfg = {
        "psi": "half",
        "k_top": SWEEP_K,
        "precision": 128,
        "jobs": 2 if jobs is None else jobs,
        "with_integral": True,
        "pairs": {"mode": "sample", **SWEEP, "seed": seed},
        "bc_n": BC_N,
        "out": str(out),
    }
    path = tmp / "run.json"
    path.write_text(json.dumps(cfg))
    return {"config": str(path), "out": out, "seed": seed}


def run_run_sweep_bc(inputs: dict):
    from dsextra import cli

    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = cli.main(["run", inputs["config"]])
    return {"code": code, "stdout": buf.getvalue()}


def check_run_sweep_bc(inputs, output, seed):
    problems = []
    if output["code"] != 0:
        return [f"dsextra run exited {output['code']}"], ""
    sweep_path = inputs["out"]
    bc_path = sweep_path.with_name(f"{sweep_path.stem}.bc.csv")
    sweep_bytes = sweep_path.read_bytes()
    bc_bytes = bc_path.read_bytes()

    bc_rows = bc_bytes.decode().splitlines()
    pins = json.loads((Path(__file__).resolve().parent.parent / "tests/data/pins.json").read_text())
    last = bc_rows[-1].split(",")
    if len(bc_rows) != BC_N + 1 or last[0] != str(BC_N):
        problems.append("bc CSV does not end at N = 500")
    elif Fraction(last[3]) != Fraction(pins[BC_PIN]):
        problems.append(f"bc ratio differs from the pin {BC_PIN}")

    lines = sweep_bytes.decode().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    keys = [(int(r["m"]), int(r["n"]), int(r["k"])) for r in rows]
    pairs = uniform_pairs(SWEEP["lo"], SWEEP["hi"], SWEEP["count"], seed)
    expected = [(m, n, k) for m, n in pairs for k in range(1, SWEEP_K + 1)]
    if keys != expected:
        problems.append("sweep rows are not the seeded pairs x k = 1..4 in order")
    if any(r["disjoint_pred"] == "true" and r["P_exact_num"] != "0" for r in rows):
        problems.append("a predicted-disjoint pair has a nonzero overlap")
    if any(r["integral_bound"] == "" for r in rows):
        problems.append("a sweep row lacks its integral bound")
    return problems, _sha([sweep_bytes, bc_bytes])


WORKLOADS = {
    "block-exhaustive": (setup_block_exhaustive, run_block, check_block_exhaustive),
    "block-sampled": (setup_block_sampled, run_block, check_block_sampled),
    "table": (setup_table, run_table, check_table),
    "run-sweep-bc": (setup_run_sweep_bc, run_run_sweep_bc, check_run_sweep_bc),
}

REFERENCES = Path(__file__).resolve().parent / "references.json"


def reference_digest(workload: str, seed: int) -> str | None:
    """Recorded output digest for (workload, seed), if one was recorded."""
    refs = json.loads(REFERENCES.read_text())[workload]
    return refs.get("any", refs.get(str(seed)))
