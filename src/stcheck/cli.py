"""Command-line interface.

Exit codes: 0 = success (for ``check``/``equal``: the relation holds),
1 = the relation does not hold, 2 = input or I/O error.  Machine-readable
output (DOT, CSV, listings) goes to stdout or the requested file;
diagnostics and ``--stats`` counters go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import bench, subtyping
from .errors import StcheckError
from .lts import build_lts, lts_to_dot
from .subterms import sub_bottom_up, sub_top_down
from .syntax import TypeExpr, parse, render

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _load(path: str) -> TypeExpr:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StcheckError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return parse(text)
    except StcheckError as exc:
        raise StcheckError(f"{path}: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_stats(report: subtyping.SubtypeReport) -> None:
    print(f"algorithm={report.algorithm}", file=sys.stderr)
    for key in subtyping.COUNTER_KEYS:
        print(f"{key}={report.counters[key]}", file=sys.stderr)
    print(f"elapsed_ns={int(report.elapsed * 1e9)}", file=sys.stderr)


def cmd_check(args) -> int:
    left = _load(args.left)
    right = _load(args.right)
    report = subtyping.check(left, right, args.algo)
    if args.stats:
        _print_stats(report)
    print("subtype" if report.verdict else "not-subtype")
    return EXIT_OK if report.verdict else EXIT_NO


def cmd_equal(args) -> int:
    left = _load(args.left)
    right = _load(args.right)
    forward = subtyping.check(left, right, args.algo)
    backward = subtyping.check(right, left, args.algo)
    if args.stats:
        _print_stats(forward)
        _print_stats(backward)
    verdict = forward.verdict and backward.verdict
    print("equal" if verdict else "not-equal")
    return EXIT_OK if verdict else EXIT_NO


def cmd_lts(args) -> int:
    t = _load(args.file)
    _emit(lts_to_dot(build_lts(t)), args.out)
    return EXIT_OK


def cmd_graph(args) -> int:
    left = _load(args.left)
    right = _load(args.right)
    _emit(subtyping.export_product_dot(left, right), args.out)
    return EXIT_OK


def cmd_subterms(args) -> int:
    t = _load(args.file)
    subs = sub_top_down(t) if args.flavor == "td" else sub_bottom_up(t)
    # canonical_order's listing, with each subterm rendered once
    for text in sorted(map(render, subs)):
        print(text)
    return EXIT_OK


def cmd_bench(args) -> int:
    timeout = bench.DEFAULT_TIMEOUT
    env = os.environ.get("STCHECK_TIMEOUT_MS")
    if env is not None:
        try:
            timeout = int(env) / 1000.0
        except ValueError:
            raise StcheckError(f"invalid STCHECK_TIMEOUT_MS: {env!r}")
        if timeout <= 0:
            raise StcheckError(f"STCHECK_TIMEOUT_MS must be at least 1, got {env}")
    algorithms = args.algos.split(",") if args.algos else list(subtyping.ALGORITHMS)
    for algo in algorithms:
        if algo not in subtyping.ALGORITHMS:
            raise StcheckError(f"unknown algorithm: {algo!r}")
    kmax = args.kmax
    if kmax < 1:
        raise StcheckError(f"--kmax must be at least 1, got {kmax}")
    records = []
    for algo in algorithms:
        top = kmax
        if algo == "inductive" and args.family == "exp":
            top = min(kmax, bench.DEFAULT_KMAX_INDUCTIVE)
        records.extend(bench.run_bench(
            [args.family], range(1, top + 1), [algo], timeout=timeout))
    records.sort(key=lambda r: (r.family, r.k, r.algorithm))
    if args.csv is None or args.csv == "-":
        bench.write_csv(records, sys.stdout)
    else:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                bench.write_csv(records, fh)
        except OSError as exc:
            raise StcheckError(f"{args.csv}: {exc.strerror or exc}") from exc
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stcheck",
        description="Session-type subtyping checker and benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algo(p):
        p.add_argument("--algo", choices=subtyping.ALGORITHMS,
                       default="product", help="decision algorithm")
        p.add_argument("--stats", action="store_true",
                       help="print counters as key=value lines on stderr")

    p = sub.add_parser("check", help="decide whether LEFT is a subtype of RIGHT")
    p.add_argument("left")
    p.add_argument("right")
    add_algo(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("equal", help="decide coinductive equality (both directions)")
    p.add_argument("left")
    p.add_argument("right")
    add_algo(p)
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("lts", help="export the type LTS as DOT")
    p.add_argument("file")
    p.add_argument("-o", "--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_lts)

    p = sub.add_parser("graph", help="export the pair graph of two types as DOT")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("subterms", help="list subterms, one per line")
    p.add_argument("file")
    p.add_argument("--flavor", choices=("td", "bu"), default="td",
                   help="td = top-down (unfolding), bu = bottom-up")
    p.set_defaults(func=cmd_subterms)

    p = sub.add_parser("bench", help="run the benchmark harness, emit CSV")
    p.add_argument("--family", choices=sorted(bench.FAMILIES), default="exp")
    p.add_argument("--kmax", type=int, default=bench.DEFAULT_KMAX_INDUCTIVE)
    p.add_argument("--csv", default=None, help="output path (default stdout)")
    p.add_argument("--algos", default=None,
                   help="comma-separated algorithm subset (default: all four)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StcheckError as exc:
        print(f"stcheck: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("stcheck: error: input is nested too deeply", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
