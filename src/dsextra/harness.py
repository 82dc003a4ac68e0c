"""Batch experiment harness.

Holds the Borel-Cantelli second-moment ratio, the divergence comparison
table, deterministic pair sampling, the JSON experiment config, one
section function per workload (with its CSV columns), the preflight
check_caps, which refuses every cap and bad config and resolves the
corpus of each pair section before any section runs, and the
config-driven runner.  The pair sweep and the Borel-Cantelli rows run
on one ordered-map worker pool (_ordered_map); blocks and the table are
serial.  _ordered_map alone imports the pool module, when a pool starts,
so importing the library loads no concurrent.futures or multiprocessing.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .arith import (
    MIN_PRECISION,
    Approx,
    RationalLike,
    SCALE_CAP,
    damping_bounds,
    exp_rational,
    frac_str,
    log_power_bounds,
    totient,
)
from .circles import ArcEvent, arc_event, coprime_intersection_sums, coprime_measure
from .errors import (
    CapExceededError,
    ConfigError,
    DomainError,
    UndefinedRatioError,
)
from .overlap import CSV_COLUMNS, OverlapRecord, overlap_records
from .psi import PsiFunction, make_psi, normalize_psi
from .schedule import (
    BlockReport,
    block_bounds,
    block_of,
    scale_count,
    select_scale,
    thinned_psi,
)

# Desk-scale corpus caps.  A config's "max_n" replaces the pair and bc
# caps; TABLE_CAP is hard, since the digit guard below is sized to it.
PAIR_CAP_EXACT = 2000     # exhaustive pair corpora
PAIR_CAP_SAMPLED = 10_000 # sampled pair corpora
BC_CAP = 500              # exact Borel-Cantelli series
TABLE_CAP = 10_000        # divergence table length
JOBS_CAP = 64             # worker processes per pool, all started at once

# Exact partial sums near TABLE_CAP carry lcm-scale denominators whose
# decimal form exceeds CPython's default 4300-digit conversion guard.
# Raise the guard (never lower it; 0 means unlimited).
if 0 < sys.get_int_max_str_digits() < 100_000:
    sys.set_int_max_str_digits(100_000)


# ---------------------------------------------------------------------------
# Borel-Cantelli second-moment ratio

def borel_cantelli_ratio(
    psi: PsiFunction, n_top: int, jobs: int = 1
) -> tuple[Fraction, list[tuple[int, Fraction, Fraction, Fraction | None]]]:
    """(Σ measure)² / Σ pairwise-intersection measures, exact.

    The second moment runs over ordered pairs (m, n) <= n_top with the
    diagonal contributing measure(E_n) itself.  Returns the final ratio
    and per-n partial rows (n, measure sum, second moment, ratio so far).
    By Cauchy-Schwarz the ratio always lies in [0, 1].

    Each positive-measure E_n gets one arc_event, built here: it is row
    n's target and joins the events of every later row.  The rows'
    off-diagonal sums run on `jobs` worker processes (_ordered_map); the
    prefix sums are added in n order, so the ratio and the rows are the
    same at every jobs value.
    """
    if n_top < 1:
        raise DomainError("borel_cantelli_ratio requires N >= 1")
    if not psi.normalized:
        raise DomainError("borel_cantelli_ratio requires a normalized psi")
    measures = [coprime_measure(n, psi.value(n)) for n in range(1, n_top + 1)]
    events = [arc_event(n, (psi.value(n),)) for n, mu in enumerate(measures, 1) if mu]
    row_sums = iter(_ordered_map(partial(_bc_row_sums, events), range(len(events)), jobs))
    measure_sum = Fraction(0)
    second_moment = Fraction(0)
    rows = []
    for n, mu in enumerate(measures, 1):
        row = next(row_sums) if mu else 0
        measure_sum += mu
        second_moment += mu + 2 * row  # diagonal and both orders of (m, n)
        ratio = (
            measure_sum * measure_sum / second_moment if second_moment else None
        )
        rows.append((n, measure_sum, second_moment, ratio))
    if second_moment == 0:
        raise UndefinedRatioError("all events have measure zero")
    return measure_sum * measure_sum / second_moment, rows


def _bc_row_sums(events: Sequence[ArcEvent], rows: Sequence[int]) -> list[Fraction]:
    # Σ_{m<n} measure(E_m ∩ E_n) for each index i of rows, where E_n is
    # events[i] and the E_m are the events before it
    return [coprime_intersection_sums(events[i], events[:i])[0] for i in rows]


# ---------------------------------------------------------------------------
# divergence comparison table

@dataclass(frozen=True)
class DivergenceRow:
    n: int
    plain: Fraction          # Σ psi(n)·phi(n)/n, exact
    damped: Approx           # same sum divided by (ln n)^epsilon
    hpv: Approx              # divided by exp(c·ln n/ln ln n)
    bhhv: Approx             # divided by (ln n)^(epsilon·ln ln ln n)


def divergence_table(
    epsilon: RationalLike,
    n_top: int,
    psi: PsiFunction,
    precision: int = 128,
    hpv_c: RationalLike = 1,
) -> list[DivergenceRow]:
    """Partial sums of the divergence series under the competing damping
    factors, one row at each power of two <= n_top and one at n_top.

    All logs follow the all-logs-positive convention max(1, ln x); the
    damped sums are certified enclosures, the plain sum is exact.  Each
    term is the integer quotient a/b in lowest terms, and the plain sum
    one integer over the lcm of the term denominators so far.  The term's
    three factors come from one arith.damping_bounds call as dyadic ends,
    and each running bound stays an integer on the 2^-(precision+16) grid
    (_div_add); Fractions are built only for the checkpoint rows.
    """
    epsilon = Fraction(epsilon)
    hpv_c = Fraction(hpv_c)
    if n_top < 2:
        raise DomainError("divergence_table requires N >= 2")
    if epsilon <= 0 or hpv_c <= 0:
        raise DomainError("damping parameters must be > 0")
    if precision < MIN_PRECISION:
        raise DomainError(f"precision must be >= {MIN_PRECISION}, got {precision}")
    if n_top > TABLE_CAP:
        raise CapExceededError(
            f"divergence table limited to {TABLE_CAP} (harness.TABLE_CAP); "
            f"needed {n_top}"
        )
    marks = {1 << j for j in range(1, n_top.bit_length())} | {n_top}
    plain, lcm = 0, 1               # the plain sum is plain/lcm
    grid_bits = precision + 16      # rounding grid for the running bounds
    # damped, hpv, bhhv: [lower, upper] running bounds, as _div_add keeps them
    acc = [[0, 0], [0, 0], [0, 0]]
    rows = []
    for n in range(1, n_top + 1):
        v = psi.value(n)
        if v:
            a, b = v.numerator * totient(n), v.denominator * n
            g = math.gcd(a, b)
            a, b = a // g, b // g
            k = b // math.gcd(lcm, b)   # lcm·k = lcm(lcm, b)
            if k != 1:
                plain *= k
                lcm *= k
            plain += a * (lcm // b)
            for bounds, (f_lo, f_hi) in zip(
                acc, damping_bounds(n, epsilon, hpv_c, precision)
            ):
                _div_add(bounds, a, b, f_lo, f_hi, grid_bits)
        if n in marks:
            damped, hpv, bhhv = (
                Approx.from_bounds(*(_bound_value(s, grid_bits) for s in bounds))
                for bounds in acc
            )
            rows.append(DivergenceRow(n, Fraction(plain, lcm), damped, hpv, bhhv))
    return rows


def _bound_value(s: int | Fraction, bits: int) -> Fraction:
    # a running bound of _div_add as its exact value
    return Fraction(s, 1 << bits) if type(s) is int else s


def _div_add(
    acc: list[int | Fraction],
    a: int,
    b: int,
    f_lo: tuple[int, int],
    f_hi: tuple[int, int],
    bits: int,
):
    # the term a/b > 0, in lowest terms, divided by the enclosure
    # [f_lo, f_hi] of a factor >= 1, each end an exact quotient (num, den).
    # A running bound on the 2^-bits grid is held as the integer s for
    # s·2^-bits, one off it as a Fraction.  The bounds are rounded outward
    # onto the grid once their denominators outgrow it: the factor ends
    # carry ~160-bit odd parts, and exact accumulation would compound them
    # into rationals with thousands of digits.  Outward rounding keeps the
    # enclosure valid and adds at most 2^-bits width per term.
    # Fast path: for s on the grid and a dyadic f = m·2^j with m odd, the
    # denominator of s + a/(b·f) has odd part odd(b)·m/gcd(a, m) >=
    # odd(b)·m/a; if odd(b)·m > a·grid that exceeds grid, and the rounded
    # sum is s plus floor (ceil) of a·grid/(b·f), all in integers.  Any
    # other end takes the exact Fraction sum below.
    grid = 1 << bits
    odd_b = _odd_part(b)
    a_grid = a << bits
    for i, (fn, fd), up in ((0, f_hi, False), (1, f_lo, True)):
        s = acc[i]
        if type(s) is int and fd & (fd - 1) == 0:
            # fn/fd is in lowest terms, so fn is odd when fd > 1
            m = fn if fd > 1 else _odd_part(fn)
            if odd_b * m > a_grid:
                num, den = a_grid * fd, b * fn
                acc[i] = s + (-(-num // den) if up else num // den)
                continue
        s = _bound_value(s, bits) + Fraction(a * fd, b * fn)
        if s.denominator > grid:
            acc[i] = math.ceil(s * grid) if up else math.floor(s * grid)
        elif grid % s.denominator == 0:
            acc[i] = s.numerator * (grid // s.denominator)
        else:
            acc[i] = s


def _odd_part(k: int) -> int:
    return k >> ((k & -k).bit_length() - 1)


# ---------------------------------------------------------------------------
# deterministic pair sampling

def sample_pairs(
    lo: int, hi: int, count: int, seed: int
) -> list[tuple[int, int]]:
    """`count` distinct sorted pairs (m < n) from [lo, hi), seeded.

    Deterministic for a given seed; the returned list is sorted so any
    later processing order is reproducible.
    """
    if not (1 <= lo < hi - 1):
        raise DomainError(f"sampling range [{lo}, {hi}) needs two elements")
    span = hi - lo
    available = span * (span - 1) // 2
    if count < 1 or count > available:
        raise ConfigError(
            f"cannot sample {count} distinct pairs from [{lo}, {hi})"
        )
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    while len(seen) < count:
        m = rng.randrange(lo, hi)
        n = rng.randrange(lo, hi)
        if m == n:
            continue
        if m > n:
            m, n = n, m
        seen.add((m, n))
    return sorted(seen)


# ---------------------------------------------------------------------------
# experiment config

@dataclass(frozen=True)
class PairSweepSpec:
    mode: str                       # exhaustive | list | sample
    lo: int = 0
    hi: int = 0
    count: int = 0
    seed: int | None = None
    pairs: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class BlockSpec:
    base: int
    h_list: tuple[int, ...]
    epsilon: Fraction
    sample: int | None = None
    seed: int | None = None
    thinned: bool = False


@dataclass(frozen=True)
class TableSpec:
    epsilon: Fraction
    n_top: int
    hpv_c: Fraction = Fraction(1)


@dataclass(frozen=True)
class ExperimentConfig:
    psi: str
    k_top: int = 1
    precision: int = 128
    jobs: int = 1
    out: str | None = None
    with_integral: bool = False
    pair_sweep: PairSweepSpec | None = None
    blocks: BlockSpec | None = None
    bc_n: int | None = None
    table: TableSpec | None = None
    max_n: int | None = None

    def cap(self, default: int) -> int:
        return self.max_n if self.max_n is not None else default


def _as_fraction(value, where: str) -> Fraction:
    # exact numeric config values travel as strings (or ints)
    if isinstance(value, bool) or isinstance(value, float):
        raise ConfigError(f"{where}: expected an exact number as string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _opt_int(value, where: str, minimum: int | None = None) -> int | None:
    return None if value is None else _as_int(value, where, minimum)


def _object(value, where: str, known: Iterable[str]) -> dict:
    # a config object, refused if it is not one or has a key outside known
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(value) - set(known)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return value


# the keys of each pairs mode besides "mode"
_PAIR_KEYS = {
    "exhaustive": ("lo", "hi"),
    "sample": ("lo", "hi", "count", "seed"),
    "list": ("pairs",),
}


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a JSON config document into an ExperimentConfig.

    An unknown key is refused at every level, the pairs keys per mode.
    """
    _object(doc, "config", (
        "psi", "k_top", "precision", "jobs", "out", "with_integral",
        "pairs", "blocks", "bc_n", "table", "max_n",
    ))
    psi = doc.get("psi")
    if not isinstance(psi, str):
        raise ConfigError("config needs a psi generator string")
    k_top = _as_int(doc.get("k_top", 1), "k_top", 1)
    if k_top > SCALE_CAP:
        raise CapExceededError(f"k_top limited to {SCALE_CAP} (arith.SCALE_CAP)")
    precision = _as_int(doc.get("precision", 128), "precision", MIN_PRECISION)
    jobs = _as_int(doc.get("jobs", 1), "jobs", 1)
    if jobs > JOBS_CAP:
        raise CapExceededError(f"jobs limited to {JOBS_CAP} (harness.JOBS_CAP)")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path string")
    with_integral = doc.get("with_integral", False)
    if not isinstance(with_integral, bool):
        raise ConfigError("with_integral must be a boolean")
    max_n = _opt_int(doc.get("max_n"), "max_n", 2)

    pair_sweep = None
    if "pairs" in doc:
        p = doc["pairs"]
        mode = p.get("mode") if isinstance(p, dict) else None
        if mode not in _PAIR_KEYS:
            raise ConfigError(
                f"pairs must be an object with a mode among {list(_PAIR_KEYS)}, "
                f"got {mode!r}"
            )
        _object(p, f"{mode} pairs", ("mode", *_PAIR_KEYS[mode]))
        if mode == "list":
            raw = p.get("pairs")
            if not isinstance(raw, list) or not raw:
                raise ConfigError("pairs.pairs must be a nonempty list")
            pairs = []
            for item in raw:
                if (
                    not isinstance(item, list)
                    or len(item) != 2
                    or not all(isinstance(x, int) for x in item)
                ):
                    raise ConfigError(f"bad pair entry {item!r}")
                m, n = item
                if m == n or m < 1 or n < 1:
                    raise ConfigError(f"bad pair ({m}, {n})")
                pairs.append((min(m, n), max(m, n)))
            pair_sweep = PairSweepSpec(mode=mode, pairs=tuple(sorted(set(pairs))))
        else:
            lo = _as_int(p.get("lo", 2), "pairs.lo", 1)
            hi = _as_int(p.get("hi", 0), "pairs.hi", lo + 2)
            count, seed = 0, None
            if mode == "sample":
                count = _as_int(p.get("count", 0), "pairs.count", 1)
                if "seed" not in p:
                    raise ConfigError("sampled pairs require a seed")
                seed = _as_int(p["seed"], "pairs.seed")
            pair_sweep = PairSweepSpec(mode, lo, hi, count, seed)

    blocks = None
    if "blocks" in doc:
        b = _object(doc["blocks"], "blocks", (
            "base", "h_list", "epsilon", "sample", "seed", "thinned",
        ))
        base = _as_int(b.get("base", 4), "blocks.base", 2)
        h_raw = b.get("h_list")
        if not isinstance(h_raw, list) or not h_raw:
            raise ConfigError("blocks.h_list must be a nonempty list")
        h_list = tuple(sorted({_as_int(h, "blocks.h_list", 0) for h in h_raw}))
        eps = _as_fraction(b.get("epsilon", "1"), "blocks.epsilon")
        if eps <= 0:
            raise ConfigError("blocks.epsilon must be > 0")
        sample = _opt_int(b.get("sample"), "blocks.sample", 1)
        seed = _opt_int(b.get("seed"), "blocks.seed")
        thinned = b.get("thinned", False)
        if not isinstance(thinned, bool):
            raise ConfigError("blocks.thinned must be a boolean")
        blocks = BlockSpec(
            base=base, h_list=h_list, epsilon=eps,
            sample=sample, seed=seed, thinned=thinned,
        )

    bc_n = _opt_int(doc.get("bc_n"), "bc_n", 1)

    table = None
    if "table" in doc:
        t = _object(doc["table"], "table", ("epsilon", "n_top", "hpv_c"))
        table = TableSpec(
            epsilon=_as_fraction(t.get("epsilon", "1"), "table.epsilon"),
            n_top=_as_int(t.get("n_top", 0), "table.n_top", 2),
            hpv_c=_as_fraction(t.get("hpv_c", "1"), "table.hpv_c"),
        )
        if table.epsilon <= 0 or table.hpv_c <= 0:
            raise ConfigError("table damping parameters must be > 0")

    if pair_sweep is None and blocks is None and bc_n is None and table is None:
        raise ConfigError(
            "config requests no work: add pairs, blocks, bc_n, or table"
        )
    return ExperimentConfig(
        psi=psi, k_top=k_top, precision=precision, jobs=jobs, out=out,
        with_integral=with_integral, pair_sweep=pair_sweep, blocks=blocks,
        bc_n=bc_n, table=table, max_n=max_n,
    )


def load_config(path: str, **overrides) -> ExperimentConfig:
    """Read and validate a JSON config file.

    `overrides` replace top-level keys before validation, so they are
    checked exactly like values from the file.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if isinstance(doc, dict):
        doc.update(overrides)
    return parse_config(doc)


# ---------------------------------------------------------------------------
# sections: one function per workload, shared by `dsextra run` and the
# single-workload CLI commands.  Each takes the validated config, the
# Corpus that check_caps resolved (the pair sweep and the blocks run on
# it) and an optional CSV path, builds its own psi over exactly the n it
# reaches, and returns its rows and its summary entries.  Every section
# but the table normalizes psi.

BLOCK_COLUMNS = (
    "h", "base", "lo", "hi", "epsilon", "K", "k",
    "weighted_intersections", "measure_products", "ratio", "chosen_k",
)
BC_COLUMNS = ("n", "measure_sum", "second_moment", "ratio")
TABLE_COLUMNS = (
    "n", "plain", "damped_value", "damped_err", "hpv_value", "hpv_err",
    "bhhv_value", "bhhv_err",
)


@dataclass(frozen=True)
class Corpus:
    """What check_caps resolves for the pair sections: the sweep's (top,
    pairs) and the blocks' (n_star, {h: pairs}), None if not requested."""

    sweep: tuple[int, list[tuple[int, int]]] | None
    blocks: tuple[int, dict[int, list[tuple[int, int]]]] | None


def check_caps(cfg: ExperimentConfig) -> Corpus:
    """The preflight: refuse every cap and every config that a section
    would refuse, and resolve the corpus each pair section runs on.

    CapExceededError past PAIR_CAP_EXACT (exhaustive pairs) or
    PAIR_CAP_SAMPLED (other pairs) or BC_CAP, each replaced by max_n when
    set, or past TABLE_CAP, or a block's scale count past SCALE_CAP;
    ConfigError for a block past PAIR_CAP_EXACT with no sample, a sample
    larger than its range, or a thinned psi without the scale of an even
    block up to n_star; UndefinedRatioError for a bc series whose
    normalized psi is 0 on all of 1..bc_n, read up to its first nonzero
    value.  The blocks share one psi on 1..n_star, the end of the last
    block within the sampled cap: thinned_psi walks all of it.
    """
    exact, sampled = cfg.cap(PAIR_CAP_EXACT), cfg.cap(PAIR_CAP_SAMPLED)
    sweep = blocks = None
    spec = cfg.pair_sweep
    if spec is not None:
        top = max(n for _, n in spec.pairs) if spec.mode == "list" else spec.hi - 1
        cap = exact if spec.mode == "exhaustive" else sampled
        if top > cap:
            raise CapExceededError(
                f"{spec.mode} pairs reach n = {top}, beyond the cap {cap} "
                f"(override with max_n)"
            )
        if spec.mode == "list":
            pairs = list(spec.pairs)
        elif spec.mode == "exhaustive":
            pairs = list(combinations(range(spec.lo, spec.hi), 2))
        else:
            pairs = sample_pairs(spec.lo, spec.hi, spec.count, spec.seed)
        sweep = top, pairs
    spec = cfg.blocks
    if spec is not None:
        block_pairs = {}
        for h in spec.h_list:
            lo, hi = block_bounds(h, spec.base)
            k_top = scale_count(h, spec.epsilon, cfg.precision)
            if k_top > SCALE_CAP:
                raise CapExceededError(
                    f"block h={h} has K = {k_top} scales at epsilon = "
                    f"{spec.epsilon}, beyond {SCALE_CAP} (arith.SCALE_CAP)"
                )
            if hi - 1 <= exact:
                block_pairs[h] = list(combinations(range(lo, hi), 2))
            elif lo >= sampled:
                raise CapExceededError(
                    f"block h={h} starts at {lo}, beyond the sampled cap "
                    f"{sampled} (a run config can override it with max_n)"
                )
            elif spec.sample is None or spec.seed is None:
                raise ConfigError(
                    f"block h={h} is too large for exhaustive pairs; "
                    f"set blocks.sample and blocks.seed (CLI: --sample and --seed)"
                )
            else:
                block_pairs[h] = sample_pairs(
                    lo, min(hi, sampled + 1), spec.sample, spec.seed
                )
        n_star = min(block_bounds(spec.h_list[-1], spec.base)[1] - 1, sampled)
        if spec.thinned:
            # n_star >= 2: max_n >= 2, and every block starts at 2 or above
            needed = range(0, block_of(n_star, spec.base) + 1, 2)
            missing = [h for h in needed if h not in block_pairs]
            if missing:
                raise ConfigError(
                    f"thinned psi needs chosen scales for even blocks {missing}; "
                    f"add them to blocks.h_list"
                )
        blocks = n_star, block_pairs
    if cfg.bc_n is not None:
        if cfg.bc_n > cfg.cap(BC_CAP):
            raise CapExceededError(
                f"bc series limited to N <= {cfg.cap(BC_CAP)} (harness.BC_CAP; "
                f"a run config can override it with max_n)"
            )
        # E_n has positive measure exactly when the normalized psi(n) > 0
        psi = normalize_psi(make_psi(cfg.psi, cfg.bc_n))
        if not any(psi.value(n) for n in range(1, cfg.bc_n + 1)):
            raise UndefinedRatioError("all events have measure zero")
    if cfg.table is not None and cfg.table.n_top > TABLE_CAP:
        raise CapExceededError(
            f"divergence table limited to {TABLE_CAP} (harness.TABLE_CAP); "
            f"needed {cfg.table.n_top}"
        )
    return Corpus(sweep, blocks)


def _ordered_map(fn, items: Sequence, jobs: int) -> list:
    """fn(items), for an fn that returns one result per item, computed on
    `jobs` worker processes in interleaved slices items[i::count] and
    merged back into item order.  jobs == 1 or at most 64 items run
    in-process, where a pool costs more than it saves.  The pool pickles
    fn by reference: a module-level function or a partial of one.
    """
    if jobs == 1 or len(items) <= 64:
        return fn(items)
    # imported here, so that importing the library loads no pool machinery
    from concurrent.futures import ProcessPoolExecutor

    count = min(jobs * 4, len(items))
    slices = [items[i::count] for i in range(count)]
    out: list = [None] * len(items)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for i, part in enumerate(pool.map(fn, slices)):
            out[i::count] = part
    return out


def _sweep_chunk(psi, k_top, precision, with_integral, pairs) -> list:
    ks = range(1, k_top + 1)
    return [
        overlap_records(m, n, psi, ks, precision, with_integral)
        for m, n in pairs
    ]


def run_pair_sweep(
    psi: PsiFunction, cfg: ExperimentConfig, pairs: list[tuple[int, int]]
) -> list[OverlapRecord]:
    """Overlap records for all pairs and k = 1..k_top, in pair order and
    then k order: (m, n, k)-sorted for the sorted pairs of check_caps.

    The pairs run on cfg.jobs worker processes (_ordered_map), which
    returns their records in pair order at every jobs value.
    """
    work = partial(_sweep_chunk, psi, cfg.k_top, cfg.precision, cfg.with_integral)
    return [rec for part in _ordered_map(work, pairs, cfg.jobs) for rec in part]


def _sweep_summary(records: list[OverlapRecord], k_top: int) -> dict:
    summary: dict = {"records": len(records)}
    if not records:
        return summary
    # the largest p_exact/pv_product, kept as num/den and compared by
    # cross-multiplication; strict >, so the first maximum wins
    worst_num, worst_den = -1, 1
    worst_pair = None
    sums: dict[tuple[int, int], Fraction] = {}
    classes: dict[str, int] = {}
    disjoint = 0
    for rec in records:
        p, pv = rec.p_exact, rec.pv_product
        num, den = p.numerator * pv.denominator, p.denominator * pv.numerator
        if num * worst_den > worst_num * den:
            worst_num, worst_den = num, den
            worst_pair = (rec.m, rec.n, rec.k)
        key = (rec.m, rec.n)
        sums[key] = sums.get(key, Fraction(0)) + rec.p_exact
        classes[rec.threshold_class] = classes.get(rec.threshold_class, 0) + 1
        if rec.disjoint_pred:
            disjoint += 1
    max_avg_pair, max_avg = max(
        ((pair, total / k_top) for pair, total in sums.items()),
        key=lambda item: (item[1], item[0]),
    )
    summary["max_p_over_pv"] = Fraction(worst_num, worst_den)
    summary["max_p_over_pv_at"] = worst_pair
    summary["max_mean_p"] = max_avg
    summary["max_mean_p_at"] = max_avg_pair
    summary["disjoint_predicted"] = disjoint
    summary["threshold_classes"] = dict(sorted(classes.items()))
    return summary


def sweep_section(
    cfg: ExperimentConfig, corpus: Corpus, path=None
) -> tuple[list[OverlapRecord], dict]:
    """The pair sweep: overlap records for every pair of the corpus and k."""
    top, pairs = corpus.sweep
    records = run_pair_sweep(normalize_psi(make_psi(cfg.psi, top)), cfg, pairs)
    summary = _sweep_summary(records, cfg.k_top)
    if cfg.pair_sweep.mode == "sample":
        summary["seed"] = cfg.pair_sweep.seed
    if path is not None:
        write_csv(path, CSV_COLUMNS, [rec.csv_row() for rec in records])
    return records, {"sweep": summary}


def _thinned_audit(
    psi_n: PsiFunction,
    spec: BlockSpec,
    chosen: dict[int, int],
    n_star: int,
    precision: int,
) -> dict:
    star = thinned_psi(psi_n, spec.epsilon, chosen, spec.base, precision)
    support = 0
    off_even_violations = 0
    value_violations = 0
    window_lo = None
    window_hi = None
    for n in range(1, n_star + 1):
        v = star.value(n)
        h = block_of(n, spec.base) if n >= 2 else None
        on_even = h is not None and h % 2 == 0 and h in chosen
        if v > 0:
            support += 1
            if not on_even:
                off_even_violations += 1
            else:
                k = chosen[h]
                if v != psi_n.value(n) / exp_rational(k):
                    value_violations += 1
                # ratio psi*(n)·(ln n)^eps / psi(n) = (ln n)^eps / ê_k
                p_lo, p_hi = log_power_bounds(n, spec.epsilon, precision)[0]
                lo = Fraction(*p_lo) / exp_rational(k)
                hi = Fraction(*p_hi) / exp_rational(k)
                window_lo = lo if window_lo is None or lo < window_lo else window_lo
                window_hi = hi if window_hi is None or hi > window_hi else window_hi
        elif on_even and psi_n.value(n) > 0:
            value_violations += 1
    return {
        "support": support,
        "off_even_violations": off_even_violations,
        "value_violations": value_violations,
        "ratio_window": (window_lo, window_hi),
    }


def blocks_section(
    cfg: ExperimentConfig, corpus: Corpus, path=None
) -> tuple[list[BlockReport], dict]:
    """Scale selection on every block of the corpus, then the thinned
    audit, both on one psi over 1..n_star."""
    spec = cfg.blocks
    n_star, block_pairs = corpus.blocks
    psi = normalize_psi(make_psi(cfg.psi, n_star))
    reports = [
        select_scale(h, psi, spec.epsilon, pairs, spec.base, cfg.precision)
        for h, pairs in block_pairs.items()
    ]
    chosen = {rep.h: rep.chosen_k for rep in reports}
    summary: dict = {
        "blocks": {"base": spec.base, "epsilon": spec.epsilon, "chosen": chosen},
    }
    if spec.thinned:
        audit = _thinned_audit(psi, spec, chosen, n_star, cfg.precision)
        audit["n_star"] = n_star
        summary["thinned"] = audit
    if path is not None:
        write_csv(path, BLOCK_COLUMNS, [
            [
                str(rep.h), str(rep.base), str(rep.lo), str(rep.hi),
                frac_str(rep.epsilon), str(rep.scale_count), str(k),
                frac_str(s1), frac_str(s2),
                frac_str(s1 / s2) if s2 else "",
                str(rep.chosen_k),
            ]
            for rep in reports
            for k, s1, s2 in rep.per_k_sums
        ])
    return reports, summary


def bc_section(cfg: ExperimentConfig, corpus: Corpus, path=None) -> tuple[list, dict]:
    """The exact Borel-Cantelli series up to bc_n, within BC_CAP."""
    psi = normalize_psi(make_psi(cfg.psi, cfg.bc_n))
    ratio, rows = borel_cantelli_ratio(psi, cfg.bc_n, cfg.jobs)
    if path is not None:
        write_csv(path, BC_COLUMNS, [
            [
                str(n), frac_str(ms), frac_str(sm),
                frac_str(rt) if rt is not None else "",
            ]
            for n, ms, sm, rt in rows
        ])
    return rows, {"bc": {"n": cfg.bc_n, "ratio": ratio}}


def table_section(
    cfg: ExperimentConfig, corpus: Corpus, path=None
) -> tuple[list[DivergenceRow], dict]:
    """The divergence table; the series uses psi as given, unnormalized."""
    spec = cfg.table
    rows = divergence_table(
        spec.epsilon, spec.n_top, make_psi(cfg.psi, spec.n_top),
        cfg.precision, spec.hpv_c,
    )
    if path is not None:
        write_csv(path, TABLE_COLUMNS, [
            [
                str(r.n), frac_str(r.plain),
                frac_str(r.damped.value), frac_str(r.damped.err),
                frac_str(r.hpv.value), frac_str(r.hpv.err),
                frac_str(r.bhhv.value), frac_str(r.bhhv.err),
            ]
            for r in rows
        ])
    summary = {
        "epsilon": spec.epsilon,
        "n_top": spec.n_top,
        "plain_final": rows[-1].plain if rows else None,
    }
    return rows, {"table": summary}


# ---------------------------------------------------------------------------
# runner

@dataclass
class RunResult:
    summary: dict
    csv_paths: list[str] = field(default_factory=list)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Execute every section the config requests; see README for the schema.

    Returns the summary and the paths of the CSVs written when cfg.out is
    set (the sweep at out, other sections at derived names).  Every CSV
    path, every cap and every config a section would refuse (check_caps)
    is checked before the first section runs.
    """
    out = Path(cfg.out) if cfg.out else None

    def csv_path(tag):
        if out is None or tag is None:
            return out
        return out.with_name(f"{out.stem}.{tag}{out.suffix or '.csv'}")

    plan = [
        (section, csv_path(tag))
        for section, tag, spec in (
            (sweep_section, None, cfg.pair_sweep),
            (blocks_section, "blocks", cfg.blocks),
            (bc_section, "bc", cfg.bc_n),
            (table_section, "table", cfg.table),
        )
        if spec is not None
    ]
    for _, path in plan:
        if path is not None:
            check_csv_path(path)
    corpus = check_caps(cfg)
    result = RunResult(summary={"psi": cfg.psi, "k_top": cfg.k_top})
    for section, path in plan:
        _, summary = section(cfg, corpus, path)
        result.summary.update(summary)
        if path is not None:
            result.csv_paths.append(str(path))
    return result


def check_csv_path(path) -> None:
    """Refuse a CSV path that write_csv could not open, before any work is
    done for it: a directory, or a path whose parent directory is missing.
    Creates no file."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"cannot write CSV {path}: it is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"cannot write CSV {path}: no directory {path.parent}")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]):
    try:
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    except OSError as e:
        raise ConfigError(f"cannot write CSV {path}: {e}") from e
