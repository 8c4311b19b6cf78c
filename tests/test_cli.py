"""Command line surface: exit codes, file round trips, stable output."""

import csv
import gzip
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from gbflab import cli, criteria, gbf, oracle
from gbflab.cli import main, verdict_to_dict
from gbflab.criteria import decide, revalidate_report, report_from_dict
from gbflab.gbf import GbfType
from gbflab.gbf import construct_even_even


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
    code, _, err = run(capsys, "scan", "--m", "5", "--n", "1..2")
    assert code == 3
    code, _, err = run(capsys, "scan", "--m", "9..2", "--n", "1..2")
    assert code == 3


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
    # oracle; decide reaches it only while its rule's base is not yet verified
    monkeypatch.setattr(gbf, "_spectra", exhausted)
    monkeypatch.setattr(oracle, "_spectra", exhausted)
    monkeypatch.setattr(criteria, "_FLAT_BASES", set())
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
    monkeypatch.setattr(criteria, "_FLAT_BASES", set())
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("Traceback")
    assert err.splitlines()[-1].startswith(message)


BENCH = Path(__file__).resolve().parents[1] / "bench"
CERTIFICATES_GOLDEN = BENCH / "goldens" / "certificates.json.gz"


def test_decide_json_matches_certificates_golden():
    # per m, the first 8 hex digits of the sha256 of decide --json for each
    # odd n <= 11; every 23rd m keeps this near a second and a half
    with gzip.open(CERTIFICATES_GOLDEN) as fh:
        golden = json.load(fh)
    for key in sorted(golden, key=int)[::23]:
        m = int(key)
        got = "".join(
            hashlib.sha256(json.dumps(verdict_to_dict(
                m, n, decide(GbfType(m, n)))).encode()).hexdigest()[:8]
            for n in (1, 3, 5, 7, 9, 11))
        assert got == golden[key], m


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
