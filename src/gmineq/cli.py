"""Command line interface.

Subcommands:
  verify  evaluate one chain family on seeded instances from flags
  sweep   run a full sweep from a JSON config file
  hunt    random + refinement search over the conjectured region; its wall
          time and samples per second go to stderr, not into the report
  show    summarize a report file, optionally to CSV

Exit codes: 0 all pass; 2 violation candidate in a proven regime; 3 usage
or configuration error, or a numerical failure (a singular power, a solver
that did not converge), reported on stderr in one line that names the
error.  Conjectured-regime negative margins only bump the candidates count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import errors
from .chains import DEFAULT_CONDITION_CAP, DEFAULT_TOL_REL
from .generate import SpectrumLaw
from .hunt import SearchConfig, evaluate_argmin, hunt
from .reports import ReportSet, SearchResult, has_proven_failure, read_reports, write_reports
from .sweep import KNOWN_CHAINS, SweepConfig, run_sweep

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_CONFIG = 3


def _floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _ints(text):
    return [int(v) for v in text.split(",") if v.strip()]


def _norm_tokens(text):
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gmineq", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="evaluate one chain family from flags")
    v.add_argument("--chain", required=True, choices=KNOWN_CHAINS)
    v.add_argument("--n", type=_ints, default=[2])
    v.add_argument("--m", type=_ints, default=[2])
    v.add_argument("--count", type=int, default=100)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--s", type=_floats, default=[2.0])
    v.add_argument("--r", type=_floats, default=[1.0])
    v.add_argument("--p", type=_floats, default=[1.0])
    v.add_argument("--t", type=_floats, default=[0.5])
    v.add_argument("--norms", type=_norm_tokens,
                   default=["kyfan:all", "schatten:1", "schatten:2", "schatten:inf"])
    v.add_argument("--tol", type=float, default=DEFAULT_TOL_REL)
    v.add_argument("--condition-cap", type=float, default=DEFAULT_CONDITION_CAP)
    v.add_argument("--spectrum-lo", type=float, default=0.1)
    v.add_argument("--spectrum-hi", type=float, default=10.0)
    v.add_argument("--out", default=None)

    s = sub.add_parser("sweep", help="run a sweep from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=None)

    h = sub.add_parser("hunt", help="search the conjectured region", description=(
        "Random search, then refinement, of the weighted chain's conjectured region.  In the"
        " paper's domain (r >= 1, rp >= 1) the conjecture is decided at r = p = 1 and t in"
        " [0, 1/2] (Ando-Zhan 1999, Araki 1990, and swapping A, t with B, 1 - t), so other"
        " --r and --p values add only dominated points there."))
    h.add_argument("--s-lo", type=float, default=1.0)
    h.add_argument("--s-hi", type=float, default=2.0)
    h.add_argument("--t", type=float, default=0.5)
    h.add_argument("--t-lo", type=float, default=None)
    h.add_argument("--t-hi", type=float, default=None)
    h.add_argument("--r", type=_floats, default=[1.0])
    h.add_argument("--p", type=_floats, default=[1.0])
    h.add_argument("--samples", type=int, default=10000)
    h.add_argument("--refine", type=int, default=0)
    h.add_argument("--refine-scale", type=float, default=0.05)
    h.add_argument("--n-max", type=int, default=4)
    h.add_argument("--m-max", type=int, default=3)
    h.add_argument("--seed", type=int, default=7)
    h.add_argument("--norms", type=_norm_tokens, default=["kyfan:all"])
    h.add_argument("--tol", type=float, default=DEFAULT_TOL_REL)
    h.add_argument("--out", default=None)

    w = sub.add_parser("show", help="summarize a report file")
    w.add_argument("--in", dest="infile", required=True)
    w.add_argument("--csv", default=None)

    return ap


def _print_summary(rs: ReportSet) -> None:
    print(f"records: {rs.summary['total_records']}   candidates: {rs.summary['candidates']}")
    for row in rs.summary["groups"]:
        mm = row["min_margin"]
        mm_text = "n/a" if mm is None else f"{mm:+.3e}"
        print(
            f"  {row['chain']:<22} {row['norm_class']:<14} min_margin={mm_text:<12}"
            f" pass={row['pass_count']} fail={row['fail_count']} gated={row['gated_count']}"
        )


def _sweep(cfg: SweepConfig, out) -> int:
    rs = run_sweep(cfg)
    _print_summary(rs)
    if out:
        write_reports(rs, out)
        print(f"wrote {out}")
    return EXIT_VIOLATION if has_proven_failure(rs) else EXIT_OK


def _cmd_verify(args) -> int:
    return _sweep(SweepConfig(
        chains=[args.chain],
        n_values=args.n,
        m_values=args.m,
        instance_count=args.count,
        base_seed=args.seed,
        spectrum_law=SpectrumLaw(args.spectrum_lo, args.spectrum_hi),
        s_values=args.s,
        r_values=args.r,
        p_values=args.p,
        t_values=args.t,
        norms=args.norms,
        tol_rel=args.tol,
        condition_cap=args.condition_cap,
    ), args.out)


def _cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = SweepConfig.from_dict(json.load(fh))
    return _sweep(cfg, args.out)


def _cmd_hunt(args) -> int:
    if (args.t_lo is None) != (args.t_hi is None):
        raise errors.ConfigError("--t-lo and --t-hi must be given together")
    t_range = (args.t, args.t) if args.t_lo is None else (args.t_lo, args.t_hi)
    cfg = SearchConfig(
        base_seed=args.seed,
        samples=args.samples,
        refine_steps=args.refine,
        refine_scale=args.refine_scale,
        s_range=(args.s_lo, args.s_hi),
        t_range=t_range,
        r_values=args.r,
        p_values=args.p,
        n_max=args.n_max,
        m_max=args.m_max,
        norms=args.norms,
        tol_rel=args.tol,
    )
    result = hunt(cfg)
    points = result.samples_evaluated + result.gated_count
    rate = points / result.wall_seconds if result.wall_seconds > 0.0 else float("inf")
    print(f"wall seconds: {result.wall_seconds:.3f}   samples/s: {rate:.1f}", file=sys.stderr)
    print(f"samples evaluated: {result.samples_evaluated}   gated: {result.gated_count}")
    print(f"min normalized margin: {result.min_margin:+.6e}")
    if result.argmin is not None:
        a = result.argmin
        print(
            f"argmin: n={a['n']} m={a['m']} s={a['params']['s']:.4f} t={a['params']['t']:.4f}"
            f" r={a['params']['r']:g} p={a['params']['p']:g} status={a['status']}"
        )
    if result.recheck_margin is not None:
        print(f"extended-precision recheck: {result.recheck_margin:+.6e}")
    if result.candidate:
        print("violation candidate recorded")
    elif result.argmin and result.argmin["status"] == "refuted" and result.min_margin < -args.tol:
        print("known violation (refuted regime)")
    if args.out:
        write_reports(result, args.out)
        print(f"wrote {args.out}")
    if result.candidate and result.argmin and result.argmin["status"] == "proven":
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_show(args) -> int:
    obj = read_reports(args.infile)
    if isinstance(obj, SearchResult):
        if args.csv:
            raise errors.ConfigError(f"--csv needs a report set; {args.infile} is a search result")
        print(f"search result: min_margin={obj.min_margin:+.6e} candidate={obj.candidate}")
        if obj.argmin is not None:
            margin = evaluate_argmin(obj)
            print(f"argmin re-evaluation: {'gated' if margin is None else f'{margin:+.6e}'}")
        return EXIT_OK
    _print_summary(obj)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["chain", "norm_class", "min_margin", "pass_count",
                             "fail_count", "gated_count"])
            for row in obj.summary["groups"]:
                writer.writerow([row["chain"], row["norm_class"], row["min_margin"],
                                 row["pass_count"], row["fail_count"], row["gated_count"]])
        print(f"wrote {args.csv}")
    return EXIT_OK


_COMMANDS = {"verify": _cmd_verify, "sweep": _cmd_sweep, "hunt": _cmd_hunt, "show": _cmd_show}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which means a violation here
        return EXIT_CONFIG if exc.code == 2 else exc.code
    try:
        return _COMMANDS[args.command](args)
    except (errors.ConfigError, errors.InvalidSpec, errors.InvalidSpectrumLaw,
            errors.SchemaVersionMismatch, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except errors.Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
