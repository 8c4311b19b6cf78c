"""Command line surface: exit codes, file round trips, stable output."""

import csv
import gzip
import hashlib
import importlib.util
import io
import json
import random
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from gbflab import cli, criteria, gbf, oracle
from gbflab.cli import main, verdict_to_dict
from gbflab.criteria import decide, revalidate_report, report_from_dict
from gbflab.gbf import GbfType
from gbflab.gbf import construct_even_even

import referees as ref


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "decide", "9", "3")
    assert code == 1 and "C1-LamLeung" in out
    code, out, _ = run(capsys, "decide", "4", "5")
    assert code == 0 and "witness written" in out
    assert (tmp_path / "witness_4x5.json").exists()
    code, out, _ = run(capsys, "decide", "14", "1")
    assert code == 2 and "Unknown" in out


def test_decide_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "4"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["decide", "four", "2"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["decide", "1", "2"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["decide", "4", "99"])
    assert exc.value.code == 3


def test_decide_json_round_trip(capsys):
    code, out, _ = run(capsys, "decide", "398", "7", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "not_exists"
    assert payload["criterion"] == "C3-P7"
    assert revalidate_report(report_from_dict(payload["report"]))


def test_decide_json_exists_contains_witness(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "decide", "6", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "E3"
    assert len(payload["witness"]["values"]) == 4


def test_construct_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "w.json"
    code, out, _ = run(capsys, "construct", "6", "2", "--out", str(path))
    assert code == 0 and path.exists()
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("OK")

    code, out, _ = run(capsys, "construct", "8", "3", "--out", str(path))
    assert code == 0 and "lifted by 2" in out
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0


def test_construct_refusal(capsys):
    code, _, err = run(capsys, "construct", "3", "2")
    assert code == 2 and "no construction rule" in err


def test_verify_rejects_bad_files(tmp_path, capsys):
    flat = tmp_path / "bad.json"
    flat.write_text('{"m": 4, "n": 2, "values": [0, 0, 0, 0]}')
    code, out, _ = run(capsys, "verify", str(flat))
    assert code == 1 and "y=0" in out

    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"m": 4, "n": 2, "values": [0, 0]}')
    code, _, err = run(capsys, "verify", str(truncated))
    assert code == 3

    truncated.write_text('{"m": 4, "values": [0, 0]}')
    code, _, err = run(capsys, "verify", str(truncated))
    assert code == 3 and "missing field" in err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    code, _, _ = run(capsys, "verify", str(garbled))
    assert code == 3

    garbled.write_text("[0, 1]")
    code, out, err = run(capsys, "verify", str(garbled))
    assert code == 3 and out == ""
    assert err == "cannot parse witness file: witness must be a JSON object\n"


@pytest.mark.parametrize("text, message", [
    ('{"m": true, "n": 1, "values": [0, 1]}', "m and n must be integers"),
    ('{"m": 4, "n": true, "values": [0, 1]}', "m and n must be integers"),
    ('{"m": 4, "n": 1, "values": [true, 0]}', "values must be a list of integers"),
    ('{"m": 4, "n": 1, "values": [0, false]}', "values must be a list of integers"),
])
def test_verify_rejects_json_booleans(tmp_path, capsys, text, message):
    path = tmp_path / "w.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 3 and out == ""
    assert err == f"cannot parse witness file: {message}\n"


def _verify_both_routes(monkeypatch, capsys, path):
    """verify of one file as it runs, and with the array route switched
    off, so that every file goes through json.load and parse_witness."""
    ran = run(capsys, "verify", str(path))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_canonical", lambda path: None)
        return ran, run(capsys, "verify", str(path))


def _json_table(path):
    with open(path, encoding="utf-8") as fh:
        return cli.parse_witness(json.load(fh))


@pytest.mark.parametrize("m", [2, 4, 6, 100, 2**31, 2**62, 2**62 + 1, 2**64])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_witness_files_read_as_json_reads_them(
        tmp_path, monkeypatch, capsys, m, n):
    rng = random.Random(f"{m}:{n}")
    values = [rng.randrange(m) for _ in range(1 << n)]
    w = gbf.FunctionTable(GbfType(m, n), np.array(values, dtype=object))
    text = json.dumps({"m": m, "n": n, "values": values})
    path = tmp_path / "w.json"
    cli._write_witness(str(path), w)
    assert path.read_text() == text + "\n"
    for tail in ("\n", ""):
        path.write_text(text + tail)
        got = cli._read_canonical(str(path))
        # values past int64 saturate in the C parse, so the bytes differ
        assert (got is None) == (max(values) >= 2**63)
        assert got is None or got == _json_table(path) == w
        ran, by_json = _verify_both_routes(monkeypatch, capsys, path)
        assert ran == by_json


_NOT_CANONICAL = [
    b'{"m": 4,  "n": 1, "values": [0, 1]}',
    b'{"m":4,"n":1,"values":[0,1]}',
    b'{"m": 4, "n": 1, "values": [ 0, 1]}',
    b'{"m": 4, "n": 1, "values": [0,1]}',
    b'{"n": 1, "m": 4, "values": [0, 1]}',
    b'\xef\xbb\xbf{"m": 4, "n": 1, "values": [0, 1]}',
    b'{"m": 4, "n": 1, "values": [0, 1]}\r\n',
    b'{"m": 4, "n": 1, "values": [0, 1]}\n\n',
    b'{"m": 4, "n": 1, "values": [1.0, 1]}',
    b'{"m": 4.0, "n": 1, "values": [0, 1]}',
    b'{"m": 4, "n": 1, "values": [1e0, 1]}',
    b'{"m": 4, "n": 1, "values": [true, 1]}',
    b'{"m": 4, "n": 1, "values": [00, 1]}',
    b'{"m": 04, "n": 1, "values": [0, 1]}',
    b'{"m": 4, "n": 1, "values": [-0, 1]}',
    b'{"m": 4, "n": 1, "values": [+1, 1]}',
    b'{"m": 4, "n": 1, "values": [-1, 1]}',
    b'{"m": 4, "n": 1, "values": [0, 1,]}',
    b'{"m": 4, "n": 2, "values": [0, , 1, 1]}',
    b'{"m": 4, "n": 1, "values": [0, 1], "m": 2}',
    b'{"m": 4, "n": 1, "values": [0, 1], "values": [0, 0]}',
    b'{"m": 4, "n": 2, "values": [0, 1, 1]}',
    b'{"m": 4, "n": 1, "values": [0, 1, 1]}',
    b'{"m": 4, "n": 1, "values": [0, 4]}',
    b'{"m": 1, "n": 1, "values": [0, 0]}',
    b'{"m": 4, "n": 1, "values": [0, 1]}\xff',
    b'{"m": 4, "n": 1, "values": [0, \xff1]}',
    b'{"m": 4, "n": 1, "values": [9223372036854775808, 1]}',
    b'{"m": 4, "n": 1, "values": [99999999999999999999999, 1]}',
    b'{"m": 18446744073709551616, "n": 1, "values": [18446744073709551615, 1]}',
    b'{"m": 100000000000000000000, "n": 1, "values": [0, 1]}',
    b'{"m": 4, "n": 27, "values": [0, 1]}',
    b'{"m": 4, "n": 1000000000, "values": [0, 1]}',
    b'{"m": 4, "n": 1, "values": [0, 1]',
    b'{"m": 4, "n": 1, "values": []}',
    b'{"m": 4, "n": 1, "values": [0, 1]}]}',
    b'',
    # the length of one token width, with a defect the column route sees
    b'{"m": 4, "n": 2, "values": [0, 1 ,2, 3]}',
    b'{"m": 4, "n": 2, "values": [0, 1,,2, 3]}',
    b'{"m": 4, "n": 2, "values": [0, 1, -, 3]}',
    b'{"m": 4, "n": 2, "values": [0, 1, \x00, 3]}',
    b'{"m": 100, "n": 1, "values": [07, 10]}',
    # 19 digits at or above 2^63, and 20 digits, past 2^64
    b'{"m": 9999999999999999999, "n": 1, "values": [9223372036854775808, 9223372036854775809]}',
    b'{"m": 4, "n": 1, "values": [18446744073709551617, 18446744073709551618]}',
]


@pytest.mark.parametrize("data", _NOT_CANONICAL)
def test_other_witness_files_read_by_json_alone(
        tmp_path, monkeypatch, capsys, data):
    path = tmp_path / "w.json"
    path.write_bytes(data)
    got = cli._read_canonical(str(path))
    assert got is None or got == _json_table(path)
    ran, by_json = _verify_both_routes(monkeypatch, capsys, path)
    assert ran == by_json


def test_parse_warning_of_older_numpy_reads_by_json(
        tmp_path, monkeypatch, capsys):
    # numpy releases before the deprecation expired warn, and return what
    # they parsed, where numpy now raises ValueError
    def fromstring(*args, **kwargs):
        warnings.warn("string or file could not be read to its end due to "
                      "unmatched data", DeprecationWarning)
        return np.zeros(0, dtype=np.int64)

    monkeypatch.setattr(np, "fromstring", fromstring)
    path = tmp_path / "w.json"
    path.write_bytes(b'{"m": 4, "n": 1, "values": [1.0, 1]}')
    assert cli._read_canonical(str(path)) is None
    assert run(capsys, "verify", str(path)) == (
        3, "", "cannot parse witness file: values must be a list of integers\n")


def _no_fromstring(*args, **kwargs):
    raise AssertionError("np.fromstring reached")


def test_19_digit_values_below_2_63_read_as_one_byte_matrix(
        tmp_path, monkeypatch):
    path = tmp_path / "w.json"
    path.write_bytes(b'{"m": 9223372036854775808, "n": 1, "values": '
                     b'[9223372036854775807, 9223372036854775806]}')
    monkeypatch.setattr(np, "fromstring", _no_fromstring)
    got = cli._read_canonical(str(path))
    assert got == _json_table(path)
    assert got.values == (2**63 - 1, 2**63 - 2)
    # one value at 2^63 and the column route steps aside, not reading it
    # as a negative int64
    body = b"9223372036854775807, 9223372036854775808]}"
    assert cli._column_values(body, 0, len(body), 1) is None


def test_single_width_files_skip_the_c_parse_in_little_memory(
        tmp_path, monkeypatch):
    n = 18
    path = tmp_path / "w.json"
    w = gbf.FunctionTable(
        GbfType(4, n), np.random.default_rng(n).integers(0, 4, 1 << n))
    cli._write_witness(str(path), w)
    size = path.stat().st_size
    with monkeypatch.context() as patch:
        patch.setattr(np, "fromstring", _no_fromstring)
        tracemalloc.start()
        try:
            got = cli._read_canonical(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got == w
    assert peak < 1.25 * (size + (8 << n))

    # values of two widths keep the C parse and the re-encode
    parsed, c_parse = [], np.fromstring

    def fromstring(*args, **kwargs):
        parsed.append(1)
        return c_parse(*args, **kwargs)

    w = gbf.FunctionTable(GbfType(12, 3), [0, 11, 2, 10, 3, 4, 5, 9])
    cli._write_witness(str(path), w)
    monkeypatch.setattr(np, "fromstring", fromstring)
    assert cli._read_canonical(str(path)) == w and len(parsed) == 1


_FUZZ_BYTES = b"0123456789/:, -+.e[]{}\"\x00\n"


def _fuzzed_witness_files(seed: int, count: int):
    """(text, m, values, edited): the json.dumps text of a random table,
    its values of one decimal width or of any, with m from 2 to 2^64, and
    then 0-2 byte edits that replace, insert or delete a byte."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        m = rng.randint(2, 2 ** rng.randint(1, 64))
        if rng.random() < 0.5:
            width = rng.randint(1, len(str(m - 1)))
            lo = 0 if width == 1 else 10 ** (width - 1)
            hi = min(10**width, m) - 1
            values = [rng.randint(lo, hi) for _ in range(1 << n)]
        else:
            values = [rng.randrange(m) for _ in range(1 << n)]
        text = bytearray(json.dumps({"m": m, "n": n, "values": values}).encode())
        edits = rng.randint(0, 2)
        for _ in range(edits):
            pos = rng.randrange(len(text))
            byte = rng.choice(_FUZZ_BYTES)
            kind = rng.randrange(3)
            if kind == 0:
                text[pos] = byte
            elif kind == 1:
                text.insert(pos, byte)
            else:
                del text[pos]
        yield bytes(text), m, values, edits > 0


def test_fuzzed_witness_files_read_as_json_and_the_c_parse_read_them(
        tmp_path, monkeypatch):
    # about 1,500 files: each is read as json.load reads it or not at all,
    # and the column route takes exactly what the C parse and re-encode do
    path = tmp_path / "w.json"
    for text, m, values, edited in _fuzzed_witness_files(25, 1500):
        path.write_bytes(text)
        got = cli._read_canonical(str(path))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_column_values", lambda *args: None)
            by_c_parse = cli._read_canonical(str(path))
        try:
            want = _json_table(path)
        except ValueError:
            want = None
        assert got is None or got == want, text
        assert got == by_c_parse, text
        if not edited and m < 10**19 and max(values) < 2**63:
            assert got is not None and list(got.values) == values, text


@pytest.mark.parametrize("kind", ["m=4", "lifted {12,17}", "m=12", "m=100"])
def test_witness_chunks_spell_json_dumps_past_one_chunk(kind):
    # single-width tokens (the first two) skip the NUL drop; mixed widths
    # take it
    n = 17
    assert 1 << n > gbf._CHUNK
    rng = np.random.default_rng(17)
    if kind == "lifted {12,17}":
        w = criteria.rule_exists(GbfType(12, n))[0]
    else:
        m = int(kind[2:])
        w = gbf.FunctionTable(GbfType(m, n), rng.integers(0, m, 1 << n))
    spelled = b"".join(cli._witness_chunks(w))
    assert spelled == json.dumps(cli._witness_dict(w)).encode()


def test_witness_chunks_follow_the_package_block_size(monkeypatch):
    # the writer reads gbf._CHUNK at each call: blocks of 64 entries cut
    # the 1,024 values of a {4,10} witness into 16 chunks, same bytes
    w = criteria.rule_exists(GbfType(4, 10))[0]
    whole = list(cli._witness_chunks(w))
    monkeypatch.setattr(gbf, "_CHUNK", 64)
    chunks = list(cli._witness_chunks(w))
    assert (len(whole), len(chunks)) == (3, 18)
    assert b"".join(chunks) == b"".join(whole) == \
        json.dumps(cli._witness_dict(w)).encode()


def test_witness_chunks_spell_a_uint8_table_holding_255():
    # the token table runs to the largest value: as a uint8 scalar,
    # 255 + 1 would wrap to 0
    values = np.random.default_rng(255).integers(0, 256, 1 << 9)
    values[7] = 255
    w = gbf.FunctionTable(GbfType(256, 9), values)
    assert w.array.dtype == np.uint8 and w.m <= len(w.array)
    spelled = b"".join(cli._witness_chunks(w))
    assert spelled == json.dumps(cli._witness_dict(w)).encode()


@pytest.mark.parametrize("m", [255, 256, 257, 2**16, 2**16 + 1, 2**32,
                               2**32 + 1])
def test_witness_files_round_trip_at_the_dtype_edges(
        tmp_path, monkeypatch, capsys, m):
    # tables holding m - 1, with values of one width (read as a byte
    # matrix) and of mixed widths (the C parse), read back as json reads
    # them and written again byte for byte; where a rule applies, decide
    # --out and verify too
    n = 4
    path = tmp_path / "w.json"
    width = len(str(m - 1))
    for values in ([0, m - 1, 1, m // 2] * 4,
                   [m - 1, 10 ** (width - 1), m - 2, m - 1] * 4):
        w = gbf.FunctionTable(GbfType(m, n), values)
        assert w.array.dtype == ref.table_dtype(m)
        cli._write_witness(str(path), w)
        data = path.read_bytes()
        got = cli._read_canonical(str(path))
        assert got == w == _json_table(path)
        cli._write_witness(str(path), got)
        assert path.read_bytes() == data
        ran, by_json = _verify_both_routes(monkeypatch, capsys, path)
        assert ran == by_json
    if m % 4 == 0:
        assert run(capsys, "decide", str(m), str(n), "--out", str(path)) == (
            0, f"Exists -- rule E1: {criteria.describe_rule('E1', m, n)}\n"
               f"witness written: {path}\n", "")
        data = path.read_bytes()
        witness = cli._read_canonical(str(path))
        assert witness.array.dtype == ref.table_dtype(m)
        cli._write_witness(str(path), witness)
        assert path.read_bytes() == data
        assert run(capsys, "verify", str(path)) == (
            0, f"OK: flat spectrum of type {{{m},{n}}}\n", "")


def test_verify_refuses_huge_n_by_name(tmp_path, capsys):
    # refused before 1 << n, which at n = 10^9 is a 125 MB integer
    path = tmp_path / "w.json"
    path.write_text('{"m": 4, "n": 1000000000, "values": [0, 1]}')
    assert run(capsys, "verify", str(path)) == (3, "", (
        "cannot parse witness file: n = 1000000000 beyond the supported "
        "resource guard\n"))


@pytest.mark.parametrize("m, n", [(4, 5), (6, 2), (8, 3), (12, 4),
                                  (2**62, 2), (100, 12)])
def test_verify_of_written_witness_never_reaches_json(
        tmp_path, monkeypatch, capsys, m, n):
    # a silent fall back to json.load would leave every output as it was
    path = tmp_path / "w.json"
    assert run(capsys, "decide", str(m), str(n), "--out", str(path))[0] == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("json reached")

    monkeypatch.setattr(json, "load", unreachable)
    monkeypatch.setattr(json, "loads", unreachable)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "") and out.startswith("OK")


def test_verify_runs_the_full_kernel_on_a_written_witness(
        tmp_path, monkeypatch, capsys):
    # decide proves the base from its pieces; verify trusts no such proof
    path = tmp_path / "w.json"
    assert run(capsys, "decide", "4", "10", "--out", str(path))[0] == 0
    rows, fwht = [], gbf._fwht_inplace

    def recorded(mat):
        rows.append(mat.shape[-2])
        return fwht(mat)

    monkeypatch.setattr(gbf, "_fwht_inplace", recorded)
    assert run(capsys, "verify", str(path))[0] == 0
    assert rows == [1 << 10]


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "2", "2")
    assert code == 0 and out.startswith("8 of 16")
    code, out, _ = run(capsys, "oracle", "3", "1")
    assert code == 0 and out.startswith("0 of 9")
    code, _, err = run(capsys, "oracle", "6", "2", "--budget", "100")
    assert code == 3 and "budget" in err
    # 5^8 = 390625 sits inside the default budget and runs
    code, out, _ = run(capsys, "oracle", "5", "3")
    assert code == 0 and out.startswith("0 of 390625")


def test_scan_csv_shape(capsys):
    code, out, _ = run(capsys, "scan", "--m", "2..10", "--n", "1..4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "n", "verdict", "criterion", "detail"]
    assert len(rows) == 1 + 9 * 4
    verdicts = {(int(r[0]), int(r[1])): r[2] for r in rows[1:]}
    assert verdicts[(3, 2)] == "not_exists"
    assert verdicts[(4, 3)] == "exists"
    assert verdicts[(2, 1)] == "unknown"


def test_scan_all_c1_column(capsys):
    code, out, _ = run(capsys, "scan", "--m", "3..3", "--n", "1..6")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 6
    assert all(r[2] == "not_exists" and r[3] == "C1-LamLeung" for r in rows)


def test_scan_markdown(capsys):
    code, out, _ = run(capsys, "scan", "--m", "4..4", "--n", "1..2",
                       "--format", "md")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| m | n |")
    assert len(lines) == 2 + 2


def test_scan_bad_range(capsys):
    # refused before the header: a malformed or empty range, m < 2, n past
    # the resource guard or below 1
    for m, n in (("5", "1..2"), ("9..2", "1..2"), ("1..3", "1..2"),
                 ("2..3", "24..25"), ("2..3", "0..1")):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--m", m, "--n", n])
        assert exc.value.code == 3
        assert capsys.readouterr().out == ""


def _decided_row(m, n):
    """The scan row of {m,n} as decide gives it, witness and all."""
    v = decide(GbfType(m, n))
    if v.kind == criteria.EXISTS:
        ident, detail = v.rule, criteria.describe_rule(v.rule, m, n)
    elif v.kind == criteria.NOT_EXISTS:
        ident, detail = v.report.criterion, criteria.summarize_report(v.report)
    else:
        ident, detail = "", f"{len(v.attempts)} criteria inconclusive"
    return [str(m), str(n), v.kind, ident, detail]


def test_scan_rows_are_the_rows_decide_gives(capsys):
    # an Exists cell is read from the rule alone, with no witness built, and
    # reads as decide's verdict does, in both formats
    want = [_decided_row(m, n) for m in range(2, 65) for n in range(1, 12)]
    assert {row[2] for row in want} == {"exists", "not_exists", "unknown"}
    code, out, _ = run(capsys, "scan", "--m", "2..64", "--n", "1..11")
    assert code == 0 and list(csv.reader(io.StringIO(out)))[1:] == want
    code, out, _ = run(capsys, "scan", "--m", "2..64", "--n", "1..11",
                       "--format", "md")
    assert code == 0 and out.splitlines()[2:] == [
        "| " + " | ".join(row) + " |" for row in want]


def test_scan_builds_no_witness(capsys):
    # the one E1 cell {4,24}, whose witness is 16 MiB, pieces checked anew
    criteria._pieces.cache_clear()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "scan", "--m", "4..4", "--n", "24..24")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.splitlines()[1].startswith("4,24,exists,E1,")
    assert peak < 1 << 20


def test_scan_checks_the_rule_pieces(monkeypatch, capsys):
    # with the exact kernel broken, the piece check fails on scan's path as
    # it does in rule_exists: no Exists row, and exit 3, not a verdict
    monkeypatch.setattr(criteria, "is_gbf", lambda f: False)
    criteria._pieces.cache_clear()
    with pytest.raises(AssertionError, match="construction E1 failed"):
        criteria.rule_exists(GbfType(8, 3))
    code, out, err = run(capsys, "scan", "--m", "8..8", "--n", "3..3")
    assert code == 3 and out.splitlines() == ["m,n,verdict,criterion,detail"]
    assert err.splitlines()[-1].startswith(
        "AssertionError: construction E1 failed exact verification")


def test_scan_revalidates_the_report_that_fires(monkeypatch, capsys):
    # with re-validation refusing every report, the C1 cell {21,3} gets no
    # NotExists row and exits 3, as decide refuses it
    def refuse(rep):
        raise ValueError("report re-validation failed: refused")

    monkeypatch.setattr(criteria, "revalidate_report", refuse)
    with pytest.raises(ValueError, match="refused"):
        decide(GbfType(21, 3))
    code, out, err = run(capsys, "scan", "--m", "21..21", "--n", "3..3")
    assert code == 3 and out.splitlines() == ["m,n,verdict,criterion,detail"]
    assert err == "error: report re-validation failed: refused\n"


def test_scan_stops_at_the_first_criterion_that_fires(monkeypatch, capsys):
    # at {21,3} C1 fires, and C2 and C4 apply after it without firing: scan
    # evaluates C1 alone, and again inside re-validation, while decide
    # evaluates every criterion and keeps the three reports as attempts
    calls = []

    def counted(crit, via):
        def wrapper(t):
            calls.append((via, crit.__name__))
            return crit(t)
        return wrapper

    monkeypatch.setattr(criteria, "_CRITERIA_FUNCS", tuple(
        counted(crit, "report") for crit in criteria._CRITERIA_FUNCS))
    c1, summary = criteria._REPORT_PARTS[criteria.C1]
    monkeypatch.setitem(criteria._REPORT_PARTS, criteria.C1,
                        (counted(c1, "revalidate"), summary))
    code, out, _ = run(capsys, "scan", "--m", "21..21", "--n", "3..3")
    assert calls == [("report", "crit_lam_leung"),
                     ("revalidate", "crit_lam_leung")]
    calls.clear()
    v = decide(GbfType(21, 3))
    assert calls == [("report", "crit_lam_leung"),
                     ("report", "crit_semiprimitive"), ("report", "crit_p7"),
                     ("report", "crit_p7_x_p35"), ("report", "crit_p3_x_p5"),
                     ("revalidate", "crit_lam_leung")]
    assert [rep.criterion for rep in v.attempts] == [
        criteria.C1, criteria.C2, criteria.C4]
    assert [rep.fired for rep in v.attempts] == [True, False, False]
    assert code == 0 and list(csv.reader(io.StringIO(out)))[1:] == [
        _decided_row(21, 3)]


def test_table_outputs(capsys):
    code, out, _ = run(capsys, "table", "rp")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert len(rows) == 12
    assert rows[0] == ["17", "8", "3"]

    code, out, _ = run(capsys, "table", "p7")
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert len(rows) == 11
    assert rows[-1] == ["199", "1", "9", "9"]


def test_decide_large_lifted_modulus(tmp_path, capsys):
    # checked at modulus 2, the content modulus of the E1 witness
    path = tmp_path / "w.json"
    code, out, _ = run(capsys, "decide", "1000", "16", "--out", str(path))
    assert code == 0 and "lifted by 250" in out
    values = [250 * v for v in construct_even_even(4, 16).values]
    assert path.read_text() == \
        json.dumps({"m": 1000, "n": 16, "values": values}) + "\n"
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("OK")


def test_verify_refuses_report_at_huge_modulus(tmp_path, capsys):
    # content modulus 2: [0, 1] and [0, 0] are not flat, and a report at m
    # would need m coefficients; a flat table at the same m still verifies
    path = tmp_path / "w.json"
    for m, values in ((2**63, [0, 2**62]), (2**31, [0, 2**30]),
                      (2**63 + 1, [0, 0]), (2**64, [0, 0])):
        path.write_text(json.dumps({"m": m, "n": 1, "values": values}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 3 and out == ""
        assert err == (f"error: not flat at y=0; its report needs m = {m} "
                       f"coefficients, not below 2^30 = {2**30}\n")
    path.write_text(json.dumps({"m": 2**63, "n": 2,
                                "values": [0, 0, 0, 2**62]}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("OK: flat spectrum")


def test_verify_report_at_many_prime_modulus(tmp_path, capsys):
    # Psi_30030 has 63 binomials; the digest was recorded from an
    # independent reduction, long division by the dense Phi_30030
    m = 30030
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"m": m, "n": 2,
                                "values": [(7 * i + 1) % m for i in range(4)]}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and out.startswith("not flat at y=0: ")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0cf06e62e811d51a1d283a13c5e3e04ac2e427843dd757c14f55d0da35498097"


def test_out_of_memory_exits_usage(tmp_path, monkeypatch, capsys):
    path = tmp_path / "w.json"
    path.write_text('{"m": 4, "n": 1, "values": [0, 1]}')

    def exhausted(*args):
        raise MemoryError("Unable to allocate 15.3 GiB")

    # the one flatness kernel behind is_gbf, first_flat_violation and the
    # oracle; decide reaches it only while it checks the pieces of a rule's
    # base not yet verified
    monkeypatch.setattr(gbf, "_flat_mask", exhausted)
    monkeypatch.setattr(oracle, "_flat_mask", exhausted)
    criteria._pieces.cache_clear()
    monkeypatch.chdir(tmp_path)
    for argv in (("decide", "8", "2"), ("verify", str(path)),
                 ("oracle", "8", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == "error: out of memory: Unable to allocate 15.3 GiB\n"


def _crash(f):
    raise RuntimeError("boom")


@pytest.mark.parametrize("module,name,broken,argv,message", [
    (criteria, "is_gbf", lambda f: False, ("decide", "8", "3"),
     "AssertionError: construction E1 failed exact verification"),
    (oracle, "is_gbf", lambda f: False, ("oracle", "4", "1"),
     "AssertionError: witness failed independent verification"),
    (cli, "first_flat_violation", _crash, ("verify", "w.json"),
     "RuntimeError: boom"),
], ids=["decide", "oracle", "verify"])
def test_internal_failure_never_exits_with_a_verdict(
        tmp_path, monkeypatch, capsys, module, name, broken, argv, message):
    # exit 1 would read as NotExists for decide and "not flat" for verify
    (tmp_path / "w.json").write_text('{"m": 4, "n": 1, "values": [0, 1]}')
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(module, name, broken)
    criteria._pieces.cache_clear()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("Traceback")
    assert err.splitlines()[-1].startswith(message)


BENCH = Path(__file__).resolve().parents[1] / "bench"
CERTIFICATES_GOLDEN = BENCH / "goldens" / "certificates.json.gz"


HELD_OUT_GOLDEN = Path(__file__).resolve().parent / "data" / "certificates_held_out.json.gz"


def _json_digests(m):
    # the first 8 hex digits of the sha256 of decide --json for each odd
    # n <= 11, joined
    return "".join(
        hashlib.sha256(json.dumps(verdict_to_dict(
            m, n, decide(GbfType(m, n)))).encode()).hexdigest()[:8]
        for n in (1, 3, 5, 7, 9, 11))


def test_decide_json_matches_certificates_golden():
    # every key: all 55140 certificates, byte for byte, in about 5 s
    with gzip.open(CERTIFICATES_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 9190
    for key in sorted(golden, key=int):
        assert _json_digests(int(key)) == golden[key], key


def test_decide_json_matches_held_out_golden():
    # the certificates types held out of the benchmark (class number
    # h > 40): all 404 odd parts m0 < 10^4, at m0 and 2*m0.  281 were
    # recorded with the exponent scanner that C3-C5 used before the class
    # group route (the m0 whose {2*m0, 1} it answered within 2 s); the other
    # 123 with the group route, whose exponents the Cornacchia referee of
    # test_exponents_are_least_on_the_held_out_odd_parts checks.  All 4848
    # types take about a second
    with gzip.open(HELD_OUT_GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 808
    for key in sorted(golden, key=int):
        assert _json_digests(int(key)) == golden[key], key


def test_decide_at_a_class_number_of_26629(capsys):
    # C3 at p = 10^9 + 7: r = 26629 is the order of the prime form over 2,
    # and its witness has coordinates of about 13 300 bits
    code, out, _ = run(capsys, "decide", "2000000014", "1", "--json")
    rep = json.loads(out)["report"]
    q = rep["quantities"]
    assert code == 1 and rep["criterion"] == "C3-P7" and q["r"] == 26629
    assert q["class_number"] == {"d": 10**9 + 7, "h": 26629}
    x, y = q["r_witness"]
    assert x * x + (10**9 + 7) * y * y == 1 << 26631
    assert revalidate_report(report_from_dict(rep))


def test_decide_json_past_the_int_str_limit(monkeypatch, capsys):
    # C3 at p = 3,000,000,391: r = h = 32889, a witness coordinate of 4951
    # decimal digits, past CPython's default limit of 4300
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "decide", "6000000782", "1", "--json")
    assert code == 1 and sys.get_int_max_str_digits() == limit
    with cli.json_int_digits():
        rep = json.loads(out)["report"]
    assert rep["quantities"]["r"] == 32889
    assert revalidate_report(report_from_dict(rep))

    monkeypatch.setattr(cli, "JSON_INT_DIGITS", 4400)
    assert run(capsys, "decide", "6000000782", "1", "--json") == (3, "", (
        "error: the certificate holds an integer of 16446 bits, beyond the "
        "4400 decimal digits of decide --json\n"))
    assert sys.get_int_max_str_digits() == limit


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exists_witness_matches_bench_goldens(tmp_path, monkeypatch, capsys):
    # decide --out (stdout, witness sha256) and verify of each exists-witness
    # type, and verify of its seed-2 random table, as the goldens recorded
    workloads = _bench_workloads()
    golden = json.loads((BENCH / "goldens" / "goldens.json").read_text())
    random_golden = golden["random"]["2"]
    golden = golden["exists-witness"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".bench_work").mkdir()
    for m, n in workloads.EXISTS_TYPES:
        witness = f".bench_work/witness_{m}x{n}.json"
        want = golden[f"decide {m} {n}"]
        code, out, _ = run(capsys, "decide", str(m), str(n), "--out", witness)
        assert (code, out) == (want["rc"], want["stdout"])
        digest = hashlib.sha256((tmp_path / witness).read_bytes()).hexdigest()
        assert digest == want["witness_sha256"], (m, n)

        want = golden[f"verify {m} {n}"]
        code, out, _ = run(capsys, "verify", witness)
        assert (code, out) == (want["rc"], want["stdout"])

        rnd = tmp_path / f"random_{m}x{n}.json"
        rnd.write_text(json.dumps({"m": m, "n": n, "values":
                                   workloads.random_table(2, m, n)}))
        code, out, _ = run(capsys, "verify", str(rnd))
        assert code == 1 and out == random_golden[f"verify-random {m} {n}"]


# sha256 of the witness files, without their final newline, of every type
# {m, n} with n <= top that a rule covers, fed in n order
_WITNESS_DIGESTS = {
    (2, 20): "6340670c4cb7a88927efc64a4d3764520b1528a7d89a16450c803d2304de1a54",
    (4, 20): "2255d04d3fa0f230614b4593c4ff9fa54bbd3ff4193e89f912d77b2d008343c0",
    (6, 20): "c9a1f4bb1f7bb35e4b2189bf16c13767bb7342ea346ef74c172b914b67872da6",
    (12, 20): "40cb2d1dd8c664fdb147bb4ffea2be6e8ccbe025f19c41c5035a245651df922b",
    (100, 20): "9ced70c01454297ccd572b9b16d5df68e1d60d2aa711106d5122b1d9444ef100",
    (2**62 + 4, 12):
        "58473bac00d8d5f0cd3fd6c919a9207938abace66d717f1cceb974716b929bd9",
    (2**63 - 4, 12):
        "61a098865ec033c188ee8e4120a01e87f192272ebce9cc13dae1c2b0ae8a927c",
}


@pytest.mark.parametrize("m,top", _WITNESS_DIGESTS)
def test_witness_files_match_recorded_digests(m, top):
    digest = hashlib.sha256()
    for n in range(1, top + 1):
        found = criteria.rule_exists(GbfType(m, n))
        if found is not None:
            digest.update(b"".join(cli._witness_chunks(found[0])))
    assert digest.hexdigest() == _WITNESS_DIGESTS[m, top]


@pytest.mark.parametrize("seed", [2, 7])
def test_random_tables_are_refuted_at_row_0_without_a_transform(
        tmp_path, monkeypatch, capsys, seed):
    # each bench random table fails at y = 0: its value histogram settles
    # that, and the report is the goldens' byte for byte with no FWHT run
    workloads = _bench_workloads()
    golden = json.loads((BENCH / "goldens" / "goldens.json").read_text())
    golden = golden["random"][str(seed)]

    def no_transform(mat):
        raise AssertionError("FWHT on a table refuted at row 0")

    monkeypatch.setattr(gbf, "_fwht_inplace", no_transform)
    path = tmp_path / "r.json"
    for m, n in workloads.EXISTS_TYPES:
        path.write_text(json.dumps({"m": m, "n": n, "values":
                                    workloads.random_table(seed, m, n)}))
        assert run(capsys, "verify", str(path)) == \
            (1, golden[f"verify-random {m} {n}"], "")


def test_witness_values_straddling_int64_read_as_python_ints(
        tmp_path, monkeypatch, capsys):
    # past 2^63 numpy would infer float64 for the mix; the values are kept
    # as Python integers and the file verifies, or is refused by reason
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "decide", str(2**64), "2", "--out", "w.json")[0] == 0
    assert (tmp_path / "w.json").read_text() == \
        '{"m": 18446744073709551616, "n": 2, "values": [0, 0, 0, 9223372036854775808]}\n'
    assert run(capsys, "verify", "w.json") == \
        (0, "OK: flat spectrum of type {18446744073709551616,2}\n", "")
    table = cli.parse_witness({"m": 2**64, "n": 1, "values": [1, 2**63]})
    assert table.values == (1, 2**63) and table.array.dtype == object
    with pytest.raises(ValueError, match=r"values must lie in 0\.\.3"):
        cli.parse_witness({"m": 4, "n": 1, "values": [2**63, 1]})


@pytest.mark.parametrize("data,message", [
    ({"m": 200, "n": 1, "values": [0, 300]}, r"values must lie in 0\.\.199"),
    ({"m": 200, "n": 1, "values": [-1, 0]}, r"values must lie in 0\.\.199"),
    ({"m": 200, "n": 27, "values": [300]},
     "n = 27 beyond the supported resource guard"),
    ({"m": 1, "n": 1, "values": [0, 300]}, "m must be >= 2"),
])
def test_parse_witness_reports_values_its_dtype_cannot_hold(data, message):
    # a value outside the table's dtype falls back to Python integers, and
    # FunctionTable reports it: the n guard before the range check
    with pytest.raises(ValueError, match=message):
        cli.parse_witness(data)


def test_parse_witness_reads_into_the_table_dtype():
    n = 18
    values = np.random.default_rng(n).integers(0, 200, 1 << n).tolist()
    tracemalloc.start()
    try:
        w = cli.parse_witness({"m": 200, "n": n, "values": values})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.array.dtype == np.uint8 and w.values == tuple(values)
    assert peak <= 1.05 * w.array.nbytes


def test_scan_to_n24_is_unchanged(capsys):
    # the stdout of scan --m 2..600 --n 1..24, recorded from the bitset
    # semigroup test this search replaced: 14,376 cells, C1 rows to n = 24
    code, out, _ = run(capsys, "scan", "--m", "2..600", "--n", "1..24")
    assert code == 0 and len(out.splitlines()) == 14_377
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3df94fbe03321094f3218cfab8a8278c2ce22db16a53656e91bdf49b56af8f90"


def test_scan_matches_bench_golden(capsys):
    # every C3-C5 summary the scan-grid workload prints: 23 C3, 8 C4 and
    # 23 C5 rows among its 2396 cells
    golden = json.loads((BENCH / "goldens" / "goldens.json").read_text())
    want = golden["scan-grid"]["scan --m 2..600 --n 1..4"]
    code, out, _ = run(capsys, "scan", "--m", "2..600", "--n", "1..4")
    rows = out.splitlines()[1:]
    assert code == want["rc"] == 0 and len(rows) == len(want["rows"]) == 2396
    assert [hashlib.sha256(r.encode()).hexdigest()[:8] for r in rows] == \
        want["rows"]
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha"]
