"""Batch command line surface.

Commands: ``decide M N [--json]``, ``construct M N [--out F]``,
``verify F``, ``oracle M N [--budget B]``,
``scan --m A..B --n C..D [--format csv|md]``, ``table rp|p7``.

Exit codes for decide: 0 Exists, 1 NotExists, 2 Unknown; usage errors,
running out of memory and any other failure exit 3 everywhere, so a crash
never reads as a verdict.  Witness files are JSON objects
{"m": .., "n": .., "values": [..2^n residues..]} under the package-wide
index convention (x_1 is the least significant index bit).  verify reads
a file in the writer's own form whose values all have one number of
digits as one byte matrix, a file in that form with values of mixed widths
by a C parse and a re-encode, and any other through json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import re
import sys
import traceback
import warnings

from . import criteria, gbf, oracle as oracle_mod
from ._lazy import np
from .criteria import (EXISTS, NOT_EXISTS, UNKNOWN, Verdict, decide,
                       describe_rule, rule_exists, summarize_report)
from .gbf import _MAX_N, FunctionTable, GbfType, first_flat_violation

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


def _witness_chunks(w: FunctionTable):
    """The witness file without its final newline, byte for byte
    json.dumps(_witness_dict(w)), as a stream of byte strings.  The values
    are spelled through a byte table of the tokens "v, ", for each v up to
    the largest value (or each distinct value when m exceeds the table
    length), padded with NUL bytes: tokens gathered a block of gbf._blocks
    at a time, NULs dropped, the last separator cut.  When the least value's token is as
    wide as the widest, no token is padded, and the drop is skipped."""
    a = w.array
    if w.m <= len(a):
        # a Python int: in a uint8 table, 255 + 1 would wrap to 0
        distinct, index, least = np.arange(int(a.max()) + 1), a, a.min()
    else:
        distinct, index = np.unique(a, return_inverse=True)
        least = distinct[0]
    tokens = np.array([f"{v}, ".encode() for v in distinct.tolist()])
    padded = len(f"{least}, ") < tokens.itemsize
    yield f'{{"m": {w.m}, "n": {w.n}, "values": ['.encode()
    for block in gbf._blocks(len(a), len(a)):
        spelled = tokens.take(index[block]).view(np.uint8)
        body = (spelled[spelled != 0] if padded else spelled).tobytes()
        yield body if block.stop < len(a) else body[:-2]
    yield b"]}"


def _write_witness(path: str, w: FunctionTable) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_witness_chunks(w))
        fh.write(b"\n")


# the head of _witness_chunks; no leading zeros, and few enough digits
# that int() never meets CPython's int-to-str limit
_CANONICAL_HEAD = re.compile(
    rb'\{"m": ([1-9][0-9]{0,18}), "n": ([1-9][0-9]?), "values": \[')
_SEPARATOR = int.from_bytes(b", ", "little")


def _column_values(data: bytes, start: int, stop: int, n: int):
    """The values of a body data[start:stop] that is ", ".join(map(str, v))
    + "]}" for 2^n values v below 2^63 of one decimal width w, as an array
    of the narrowest unsigned dtype that holds 10^w - 1; None for any other
    body.  The bytes are viewed, not copied, as a (2^n, w + 2) matrix:
    every row but the last ends in ", ", the first w columns hold only
    digits, the first of them no 0 when w > 1, and the digit columns are
    summed straight into that dtype."""
    if n > _MAX_N:
        return None
    rows = 1 << n
    size, rest = divmod(stop - start, rows)
    w = size - 2
    if rest or not 1 <= w <= 19:
        return None
    mat = np.frombuffer(data, np.uint8, rows * size, start).reshape(rows, size)
    # each row's last two bytes as one little-endian 16-bit word
    if not (mat[:-1, w:].view("<u2") == _SEPARATOR).all():
        return None
    dtype = np.min_scalar_type(10**w - 1)
    for k in range(w):
        column = mat[:, k]
        first = ord("1") if k == 0 < w - 1 else ord("0")
        if column.min() < first or column.max() > ord("9"):
            return None
        if k == 0:
            values = column.astype(dtype)
        else:
            values *= 10
            values += column
    # the "0" of each digit, taken off at once; the sums wrap modulo the
    # dtype's width, and the true values, below 10^w, come back exactly
    values -= ord("0") * (10**w - 1) // 9 % (1 << 8 * dtype.itemsize)
    if w == 19 and values.max() >= 2**63:
        return None
    return values


def _read_canonical(path: str) -> FunctionTable | None:
    """The table of a witness file that is byte for byte its own
    _witness_chunks, with or without the final newline; None for any other
    file.  Values of one decimal width are read by _column_values, whose
    checks hold exactly when the body is in the writer's form.  Any other
    body is parsed in one C pass, and the table is taken only if encoding
    it again gives the file back.  Either way it is the table that
    json.load and parse_witness would read.  The file's bytes are dropped
    on return."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = _CANONICAL_HEAD.match(data)
    end = len(data) - 1 if data.endswith(b"\n") else len(data)
    if head is None or not data.startswith(b"]}", end - 2):
        return None
    n = int(head[2])
    values = _column_values(data, head.end(), end, n)
    single = values is not None
    try:
        if not single:
            # a token that is no integer stops the parse with ValueError,
            # or with a DeprecationWarning in numpy releases before that
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                values = np.fromstring(data[head.end():end - 2],
                                       dtype=np.int64, sep=",")
        w = FunctionTable(GbfType(int(head[1]), n), values)
    except (ValueError, DeprecationWarning):
        return None         # json.load and parse_witness give the error
    if single:
        return w
    pos = 0
    for chunk in _witness_chunks(w):
        if not data.startswith(chunk, pos):
            return None
        pos += len(chunk)
    return w if pos == end else None


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
    # the scan above leaves no float: read straight into the table's dtype
    # (m < 2 is refused by GbfType), and a value it cannot hold into Python
    # integers, which FunctionTable checks; inference could give float64
    try:
        values = np.asarray(values, dtype=gbf._value_dtype(max(m, 2)))
    except OverflowError:
        values = np.array(values, dtype=object)
    return FunctionTable(GbfType(m, n), values)


def verdict_to_dict(m: int, n: int, v: Verdict, witness_path=None) -> dict:
    """The certificate of v, holding its reports' own values, not copies."""
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


# CPython converts at most 4300 decimal digits between int and str unless
# told otherwise; a C3 witness past r of about 28,500 has more
JSON_INT_DIGITS = 100_000


@contextlib.contextmanager
def json_int_digits():
    """CPython's int-str conversion limit set to JSON_INT_DIGITS digits
    for the block, and restored after it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(JSON_INT_DIGITS)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _int_bits(obj) -> int:
    """The bit length of the largest integer in a JSON-ready object."""
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, dict):
        obj = list(obj.values())
    return max(map(_int_bits, obj), default=0) \
        if isinstance(obj, (list, tuple)) else 0


def _certificate_json(payload: dict) -> str:
    with json_int_digits():
        try:
            return json.dumps(payload)
        except ValueError:
            raise ValueError(
                f"the certificate holds an integer of {_int_bits(payload)} "
                f"bits, beyond the {JSON_INT_DIGITS} decimal digits of "
                f"decide --json") from None


def cmd_decide(args) -> int:
    t = GbfType(args.m, args.n)
    v = decide(t)
    path = None
    if v.kind == EXISTS:
        path = args.out or f"witness_{args.m}x{args.n}.json"
        _write_witness(path, v.witness)
    if args.json:
        print(_certificate_json(verdict_to_dict(args.m, args.n, v, path)))
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
    return {EXISTS: EXIT_EXISTS, NOT_EXISTS: EXIT_NOT_EXISTS,
            UNKNOWN: EXIT_UNKNOWN}[v.kind]


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
        witness = _read_canonical(args.file)
        if witness is None:
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


def cmd_scan(args) -> int:
    header = ("m", "n", "verdict", "criterion", "detail")
    rows = criteria.scan_rows(args.m, args.n)
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
    """(p, d_p, r_p) for the twelve sample primes p = 1 (mod 8), as C2
    records them for {p, 1}: the order of 2 mod p and its 2-adic valuation."""
    return [tuple(criteria.crit_semiprimitive(GbfType(p, 1))
                  .quantities["prime_table"][0]) for p in RP_PRIMES]


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


@functools.cache
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
    if args.command == "scan":
        try:
            args.m, args.n = _parse_span(args.m), _parse_span(args.n)
        except ValueError as exc:
            parser.error(str(exc))
    if hasattr(args, "m"):
        # an int, or scan's nonempty ascending range: checked at its ends
        m_span, n_span = (range(v, v + 1) if isinstance(v, int) else v
                          for v in (args.m, args.n))
        if m_span[0] < 2:
            parser.error("m must be >= 2")
        if not (1 <= n_span[0] and n_span[-1] <= criteria.MAX_N):
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
