"""Record the golden outputs the benchmark checks every op against.

Run once at the commit whose behaviour is the reference:

    python3 bench/record_goldens.py

Writes bench/goldens/goldens.json (exists-witness, scan-grid, oracle-census,
the random-table verify answers and the probe's failure set and, for types
outside the certificates domain, its answers, for the default and held-out
seeds) and bench/goldens/certificates.json.gz: per m, the first 8 hex digits
of the sha256 of decide --json for each n of CERT_N_VALUES, for every
admitted certificates type.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

import run
import workloads as wl


def answers(ops, result):
    out = {}
    for i, rec in sorted(result["records"].items()):
        if rec["status"] != "ok":
            raise SystemExit(f"op {ops[i]['key']!r} failed at recording: {rec}")
        if ops[i].get("referee") and not result["checks"].get(i):
            raise SystemExit(f"referee rejects {ops[i]['key']!r}")
        out[ops[i]["key"]] = rec["answer"]
    return out


def main():
    run.WORK_DIR.mkdir(exist_ok=True)
    goldens = {"random": {}, "probe": {}}
    for workload in ("exists-witness", "scan-grid", "oracle-census"):
        ops = wl.build_ops(workload, wl.DEFAULT_SEED, run.WORK_DIR)
        got = answers(ops, run.run_pass(ops, False, 3600.0))
        goldens[workload] = {op["key"]: got[op["key"]] for op in ops
                             if not op.get("referee")}
        print(f"recorded {workload}: {len(goldens[workload])} ops", flush=True)
    for seed in (wl.DEFAULT_SEED, wl.HELD_OUT_SEED):
        ops = wl.build_ops("exists-witness", seed, run.WORK_DIR)
        got = answers(ops, run.run_pass(ops, False, 3600.0))
        goldens["random"][str(seed)] = {op["key"]: got[op["key"]]["stdout"]
                                        for op in ops if op.get("referee")}

        probe = wl.build_probe_ops(seed)
        result = run.run_pass(probe, True, 3600.0)
        failures, ok = {}, {}
        for i, rec in sorted(result["records"].items()):
            key = probe[i]["key"]
            if rec["status"] != "ok":
                failures[key] = rec["status"]
            elif not wl.in_certificate_domain(probe[i]["m"], probe[i]["n"]):
                ok[key] = rec["answer"]["sha"]
        goldens["probe"][str(seed)] = {"failures": failures, "answers": ok}
        print(f"recorded seed {seed}: probe failures {failures}", flush=True)

    t0 = time.monotonic()
    ops = [{"kind": "decide", "key": f"{m} {n}", "m": m, "n": n,
            "deadline": wl.DEADLINE_S["certificates"]}
           for m, n in wl.certificate_domain()]
    result = run.run_pass(ops, False, 36000.0)
    got = answers(ops, result)
    slowest = max(result["records"].values(), key=lambda r: r["ms"])
    print(f"recorded certificates domain: {len(got)} types in "
          f"{time.monotonic() - t0:.0f} s; slowest {ops[slowest['op']]['key']!r} "
          f"{slowest['ms']:.1f} ms", flush=True)

    run.GOLDEN_DIR.mkdir(exist_ok=True)
    (run.GOLDEN_DIR / "goldens.json").write_text(
        json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    per_m = {}
    for m, n in wl.certificate_domain():
        per_m[str(m)] = per_m.get(str(m), "") + got[f"{m} {n}"]["sha"]
    with gzip.GzipFile(run.GOLDEN_DIR / "certificates.json.gz", "wb", mtime=0) as fh:
        fh.write(json.dumps(per_m, separators=(",", ":")).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
