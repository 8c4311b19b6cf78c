"""Batch command line surface.

Commands: ``decide M N [--json]``, ``construct M N [--out F]``,
``verify F``, ``oracle M N [--budget B]``,
``scan --m A..B --n C..D [--format csv|md]``, ``table rp|p7``.

Exit codes for decide: 0 Exists, 1 NotExists, 2 Unknown; usage errors,
running out of memory and any other failure exit 3 everywhere, so a crash
never reads as a verdict.  Witness files are JSON objects
{"m": .., "n": .., "values": [..2^n residues..]} under the package-wide
index convention (x_1 is the least significant index bit).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback

import numpy as np

from . import criteria, numtheory as nt, oracle as oracle_mod
from .criteria import (EXISTS, NOT_EXISTS, UNKNOWN, Verdict, decide,
                       describe_rule, rule_exists, summarize_report)
from .gbf import FunctionTable, GbfType, first_flat_violation

EXIT_EXISTS = 0
EXIT_NOT_EXISTS = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

RP_PRIMES = (17, 41, 73, 89, 97, 113, 137, 193, 257, 1553, 1777, 65537)
# the eleven primes of the published reference table (167 also satisfies
# p = 7 mod 8 below 200 but is not part of that table)
P7_PRIMES = (7, 23, 31, 47, 71, 79, 103, 127, 151, 191, 199)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments by default; 2 means Unknown here
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _witness_dict(w: FunctionTable) -> dict:
    return {"m": w.m, "n": w.n, "values": w.array.tolist()}


_WRITE_CHUNK = 1 << 16


def _write_witness(path: str, w: FunctionTable) -> None:
    """The witness file, byte for byte json.dumps(_witness_dict(w)) and a
    newline.  The values are spelled through a byte table of the tokens
    "v, ", for each v < m (or each distinct value when m exceeds the table
    length), padded with NUL bytes: rows gathered a chunk at a time, NULs
    dropped, the last separator cut."""
    a = w.array
    distinct, index = ((np.arange(w.m), a) if w.m <= len(a)
                       else np.unique(a, return_inverse=True))
    tokens = np.array([f"{v}, ".encode() for v in distinct.tolist()])
    rows_of = tokens.view(np.uint8).reshape(len(distinct), -1)
    with open(path, "wb") as fh:
        fh.write(f'{{"m": {w.m}, "n": {w.n}, "values": ['.encode())
        for start in range(0, len(a), _WRITE_CHUNK):
            rows = rows_of[index[start:start + _WRITE_CHUNK]]
            body = rows[rows != 0].tobytes()
            fh.write(body if start + _WRITE_CHUNK < len(a) else body[:-2])
        fh.write(b"]}\n")


def parse_witness(data: dict) -> FunctionTable:
    """Strict parse of the witness file object; raises ValueError on any
    shape, length or range problem."""
    if not isinstance(data, dict):
        raise ValueError("witness must be a JSON object")
    try:
        m, n, values = data["m"], data["n"], data["values"]
    except KeyError as exc:
        raise ValueError(f"witness missing field {exc}") from None
    # json gives true and false as bool, a subclass of int: test exact types
    if type(m) is not int or type(n) is not int:
        raise ValueError("m and n must be integers")
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise ValueError("values must be a list of integers")
    return FunctionTable(GbfType(m, n), values)


def verdict_to_dict(m: int, n: int, v: Verdict, witness_path=None) -> dict:
    return {
        "m": m,
        "n": n,
        "verdict": v.kind,
        "rule": v.rule,
        "criterion": v.report.criterion if v.report else None,
        "witness": _witness_dict(v.witness) if v.witness else None,
        "witness_path": witness_path,
        "report": v.report.to_dict() if v.report else None,
        "attempts": [rep.to_dict() for rep in v.attempts],
    }


def _verdict_exit(v: Verdict) -> int:
    return {EXISTS: EXIT_EXISTS, NOT_EXISTS: EXIT_NOT_EXISTS,
            UNKNOWN: EXIT_UNKNOWN}[v.kind]


def cmd_decide(args) -> int:
    t = GbfType(args.m, args.n)
    v = decide(t)
    path = None
    if v.kind == EXISTS:
        path = args.out or f"witness_{args.m}x{args.n}.json"
        _write_witness(path, v.witness)
    if args.json:
        print(json.dumps(verdict_to_dict(args.m, args.n, v, path)))
    elif v.kind == EXISTS:
        print(f"Exists -- rule {v.rule}: {describe_rule(v.rule, args.m, args.n)}")
        print(f"witness written: {path}")
    elif v.kind == NOT_EXISTS:
        extra = f"; also applicable: {', '.join(v.report.also_applicable)}" \
            if v.report.also_applicable else ""
        print(f"NotExists -- {v.report.criterion}: "
              f"{summarize_report(v.report)}{extra}")
    else:
        print(f"Unknown -- {len(v.attempts)} applicable criteria, "
              f"none conclusive")
    return _verdict_exit(v)


def cmd_construct(args) -> int:
    t = GbfType(args.m, args.n)
    found = rule_exists(t)
    if found is None:
        print(f"no construction rule applies to {t}: need 4 | m, or "
              f"even m and even n", file=sys.stderr)
        return EXIT_UNKNOWN
    witness, rule = found
    path = args.out or f"witness_{args.m}x{args.n}.json"
    _write_witness(path, witness)
    print(f"rule {rule}: {describe_rule(rule, args.m, args.n)}")
    print(f"witness written: {path}")
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            witness = parse_witness(json.load(fh))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"cannot parse witness file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bad = first_flat_violation(witness)
    if bad is None:
        print(f"OK: flat spectrum of type {witness.gbf_type}")
        return 0
    y, coeffs = bad
    print(f"not flat at y={y}: |W(y)|^2 has canonical coefficients "
          f"{list(coeffs)} (expected [{1 << witness.n}, 0, ...])")
    return 1


def cmd_oracle(args) -> int:
    t = GbfType(args.m, args.n)
    try:
        res = oracle_mod.enumerate_gbfs(t, budget=args.budget)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    print(f"{res.gbf_count} of {res.total_candidates} tables of type {t} "
          f"are generalized bent")
    for w in res.witnesses:
        print(f"witness: {list(w.values)}")
    return 0


def _parse_span(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like A..B, got {text!r}")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _scan_cells(m_span, n_span):
    for m in m_span:
        for n in n_span:
            v = decide(GbfType(m, n))
            if v.kind == EXISTS:
                ident, detail = v.rule, describe_rule(v.rule, m, n)
            elif v.kind == NOT_EXISTS:
                ident, detail = v.report.criterion, summarize_report(v.report)
            else:
                ident, detail = "", f"{len(v.attempts)} criteria inconclusive"
            yield m, n, v.kind, ident, detail


def cmd_scan(args) -> int:
    m_span = _parse_span(args.m)
    n_span = _parse_span(args.n)
    header = ("m", "n", "verdict", "criterion", "detail")
    rows = _scan_cells(m_span, n_span)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    else:
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            print("| " + " | ".join(str(c) for c in row) + " |")
    return 0


def table_rp_rows():
    """(p, d_p, r_p) for the twelve sample primes p = 1 (mod 8): the order of
    2 mod p and its 2-adic valuation."""
    out = []
    for p in RP_PRIMES:
        d = nt.mult_order_2(p)
        out.append((p, d, nt.v2(d)))
    return out


def table_p7_rows():
    """(p, s, h, r) for the eleven reference primes p = 7 (mod 8), as C3
    records them for {2p, 1}: s from the order of 2, the class number h of
    Q(sqrt(-p)), and the least odd r with x^2 + p*y^2 = 2^(r+2) solvable."""
    out = []
    for p in P7_PRIMES:
        q = criteria.crit_p7(GbfType(2 * p, 1)).quantities
        out.append((p, q["s"], q["class_number"]["h"], q["r"]))
    return out


def cmd_table(args) -> int:
    if args.which == "rp":
        print(f"{'p':>8} {'d_p':>6} {'r_p':>4}")
        for p, d, r in table_rp_rows():
            print(f"{p:>8} {d:>6} {r:>4}")
    else:
        print(f"{'p':>6} {'s':>4} {'h':>4} {'r':>4}")
        for p, s, h, r in table_p7_rows():
            print(f"{p:>6} {s:>4} {h:>4} {r:>4}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gbf",
                     description="decision engine for generalized bent "
                                 "functions Z_2^n -> Z_m")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="existence verdict for type {m,n}")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="witness path when the verdict is Exists")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("construct", help="build and save a verified witness")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="exact flatness check of a witness file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive census of a tiny type")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=int, default=oracle_mod.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("scan", help="verdict grid over ranges of m and n")
    p.add_argument("--m", required=True, help="range A..B")
    p.add_argument("--n", required=True, help="range C..D")
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table", help="recompute the reference tables")
    p.add_argument("which", choices=("rp", "p7"))
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "m") and isinstance(args.m, int):
        if args.m < 2:
            parser.error("m must be >= 2")
        if not 1 <= args.n <= criteria.MAX_N:
            parser.error(f"n must lie in 1..{criteria.MAX_N}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # exit 1 would read as NotExists
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # an uncaught exception would exit 1, the code of NotExists
        traceback.print_exc()
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
