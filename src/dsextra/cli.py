"""Command line interface.

Subcommands map onto the library one-to-one; every command prints a
short deterministic report and, except phi, optionally writes CSV via
--out.  block, bc and table build a one-section config and run it
through the same section function as `dsextra run`.
Exit codes: 0 success, 2 config/usage error, 3 precision-guard abort,
4 cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .arith import MIN_PRECISION, factorize, frac_str, totient
from .errors import (
    CapExceededError,
    ConfigError,
    DomainError,
    DsextraError,
    PrecisionGuardError,
)
from .harness import (
    bc_section,
    blocks_section,
    check_caps,
    check_csv_path,
    load_config,
    parse_config,
    run_experiment,
    table_section,
    write_csv,
)
from .overlap import (
    CSV_COLUMNS,
    averaged_sum,
    decompose_pair,
    overlap_records,
)
from .psi import make_psi, normalize_psi


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="write CSV here")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument(
        "--precision", type=int, default=128, metavar="BITS",
        help="working precision for certified logs",
    )
    both = [out, precision]

    parser = argparse.ArgumentParser(
        prog="dsextra",
        description=(
            "Exact-arithmetic experiments on coprime approximation arcs: "
            "overlap ratios, sieve bounds, block scale selection, and "
            "Borel-Cantelli lower bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="factor N and print phi(N)")
    p.add_argument("N", type=int)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser(
        "pair", parents=both, help="prime-exponent decomposition of (M, N)"
    )
    p.add_argument("M", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--psi", default="half", metavar="GEN")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser(
        "overlap", parents=both,
        help="overlap ratio, product bound, and integral bound at scale k",
    )
    p.add_argument("M", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--psi", default="half", metavar="GEN")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser(
        "avgsum", parents=both,
        help="scale-averaged overlap sum over k = 1..K",
    )
    p.add_argument("M", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--psi", default="half", metavar="GEN")
    p.set_defaults(func=cmd_avgsum)

    p = sub.add_parser(
        "block", parents=both, help="scale selection on one block"
    )
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--base", type=int, default=4)
    p.add_argument("--eps", required=True, metavar="E")
    p.add_argument("--sample", type=int, help="sampled pair count (big blocks)")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--psi", default="half", metavar="GEN")
    p.set_defaults(func=cmd_block)

    p = sub.add_parser(
        "bc", parents=[out], help="Borel-Cantelli second-moment ratio"
    )
    p.add_argument("--psi", default="half", metavar="GEN")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, metavar="W", help="worker processes")
    p.set_defaults(func=cmd_bc)

    p = sub.add_parser(
        "table", parents=both, help="divergence series comparison table"
    )
    p.add_argument("--eps", required=True, metavar="E")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--psi", default="half", metavar="GEN")
    p.add_argument("--hpv-c", default="1", metavar="C")
    p.set_defaults(func=cmd_table)

    # run: flags default to None, so unset flags keep the config's values
    p = sub.add_parser(
        "run", parents=[out], help="execute a JSON experiment config"
    )
    p.add_argument("CONFIG")
    p.add_argument("--jobs", type=int, metavar="W", help="worker processes")
    p.add_argument(
        "--precision", type=int, metavar="BITS",
        help="working precision for certified logs",
    )
    p.set_defaults(func=cmd_run)

    return parser


def cmd_phi(args) -> int:
    if args.N < 1:
        raise DomainError("N must be >= 1")
    factors = factorize(args.N)
    text = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)
    print(f"{args.N} = {text or '1'}")
    print(f"phi({args.N}) = {totient(args.N)}")
    return 0


def _pair_psi(args):
    # pair, overlap and avgsum skip parse_config, so they check its floor
    if args.precision < MIN_PRECISION:
        raise ConfigError(
            f"precision: must be >= {MIN_PRECISION}, got {args.precision}"
        )
    if args.out:
        check_csv_path(args.out)
    return normalize_psi(make_psi(args.psi, max(args.M, args.N, 1)))


def cmd_pair(args) -> int:
    psi = _pair_psi(args)
    dec = decompose_pair(args.M, args.N, psi)
    print(f"pair ({dec.m}, {dec.n})  gcd = {dec.gcd}")
    print(f"r = {dec.r}  s = {dec.s}  t = {dec.t}   (m*n = r^2*s*t)")
    print(f"delta = {dec.delta}  Delta = {dec.Delta}")
    if args.out:
        [rec] = overlap_records(args.M, args.N, psi, [0], args.precision)
        write_csv(args.out, CSV_COLUMNS, [rec.csv_row()])
        print(f"wrote {args.out}")
    return 0


def cmd_overlap(args) -> int:
    if args.k < 0:
        raise DomainError("k must be >= 0")
    psi = _pair_psi(args)
    [rec] = overlap_records(args.M, args.N, psi, [args.k], args.precision)
    print(f"pair ({rec.m}, {rec.n})  k = {rec.k}  [{rec.threshold_class}]")
    print(f"cutoff D_k = {rec.cutoff}")
    print(f"product bound = {rec.pv_product}")
    print(f"P exact = {rec.p_exact}")
    assert rec.integral is not None
    print(f"integral bound = {rec.integral}")
    print(f"disjoint predicted = {'yes' if rec.disjoint_pred else 'no'}")
    if args.out:
        write_csv(args.out, CSV_COLUMNS, [rec.csv_row()])
        print(f"wrote {args.out}")
    return 0


def cmd_avgsum(args) -> int:
    if args.K < 1:
        raise DomainError("K must be >= 1")
    psi = _pair_psi(args)
    total, records, reference = averaged_sum(args.M, args.N, psi, args.K, args.precision)
    for rec in records:
        print(
            f"k = {rec.k}: P = {rec.p_exact}  bound = {rec.pv_product}  "
            f"[{rec.threshold_class}]"
        )
    print(f"total = {total}  mean = {total / args.K}")
    print(f"reference ln(K)*ln(ln(n)) = {reference}")
    if args.out:
        write_csv(args.out, CSV_COLUMNS, [rec.csv_row() for rec in records])
        print(f"wrote {args.out}")
    return 0


def _one_section(section, doc: dict, out: str | None):
    # a CLI workload is a one-section config run through its section, on
    # the corpus of check_caps, with its CSV path checked first
    cfg = parse_config(doc)
    if out:
        check_csv_path(out)
    return section(cfg, check_caps(cfg), out or None)


def cmd_block(args) -> int:
    blocks = {
        "base": args.base, "h_list": [args.h], "epsilon": args.eps,
        "sample": args.sample, "seed": args.seed,
    }
    doc = {"psi": args.psi, "precision": args.precision, "blocks": blocks}
    (report,), _ = _one_section(blocks_section, doc, args.out)
    print(
        f"block h = {report.h} base = {report.base} range [{report.lo}, {report.hi})"
        f"  pairs = {report.pair_count}  K = {report.scale_count}"
    )
    for k, s1, s2 in report.per_k_sums:
        ratio = frac_str(s1 / s2) if s2 else "-"
        print(f"k = {k}: weighted = {frac_str(s1)}  ratio = {ratio}")
    print(f"chosen k = {report.chosen_k}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_bc(args) -> int:
    rows, summary = _one_section(
        bc_section, {"psi": args.psi, "bc_n": args.N, "jobs": args.jobs}, args.out
    )
    n, ms, sm, _ = rows[-1]
    ratio = summary["bc"]["ratio"]
    print(f"N = {n}  measure sum = {ms}  second moment = {sm}")
    print(f"ratio = {ratio} ({float(ratio):.6f})")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_table(args) -> int:
    table = {"epsilon": args.eps, "n_top": args.N, "hpv_c": args.hpv_c}
    doc = {"psi": args.psi, "precision": args.precision, "table": table}
    rows, _ = _one_section(table_section, doc, args.out)
    for row in rows:
        print(
            f"N = {row.n}: plain = {float(row.plain):.6f}  "
            f"damped = {float(row.damped.value):.6f}  "
            f"hpv = {float(row.hpv.value):.6f}  "
            f"bhhv = {float(row.bhhv.value):.6f}"
        )
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _print_summary(summary: dict, indent: str = ""):
    for key, value in summary.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_summary(value, indent + "  ")
        elif isinstance(value, Fraction):
            print(f"{indent}{key} = {value} ({float(value):.6g})")
        elif (
            isinstance(value, tuple)
            and value
            and all(isinstance(x, Fraction) or x is None for x in value)
        ):
            parts = [
                f"{float(x):.6g}" if x is not None else "-" for x in value
            ]
            print(f"{indent}{key} = [{', '.join(parts)}]")
        else:
            print(f"{indent}{key} = {value}")


def cmd_run(args) -> int:
    overrides = {
        key: getattr(args, key)
        for key in ("out", "jobs", "precision")
        if getattr(args, key) is not None
    }
    result = run_experiment(load_config(args.CONFIG, **overrides))
    _print_summary(result.summary)
    for path in result.csv_paths:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrecisionGuardError as e:
        print(f"precision guard: {e}", file=sys.stderr)
        return 3
    except CapExceededError as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 4
    except DsextraError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
