"""gbflab benchmark: four workloads, golden-checked outputs, a traced
per-layer run and a probe of the known failures.

    python3 bench/run.py --workload certificates --seed 2 --seconds 20 --trace 0
    python3 bench/run.py --suite [--seed 2] [--seconds 10]

A run makes a fixed number of passes over the workload's op list, the
number that fits --seconds at the seed (schedule).  Each pass runs in a
fresh worker interpreter (bench/worker.py) with a 1 GiB address-space cap
and a per-op deadline; timeouts, MemoryErrors, exceptions and wrong outputs
are counted as failed ops.  End-to-end metrics (--trace 0) take each op's
fastest repetition across the passes, each first scaled to the reference
host speed (HostScale), and setup_s the median worker spawn, each scaled by
a spawn of the frozen reference copy (setup_pair).
With --trace 1 passes alternate between traced and untraced; per-layer
metrics are medians over the traced ones and the tracing overhead is the
difference of the two medians of pass time.  The last line of stdout is the
JSON result.  --suite runs every workload with tracing off and on, the
ROADMAP cross-check and the probe, and fails when the probe shows a failure
that was not recorded at the seed.
"""

from __future__ import annotations

import argparse
import bisect
import gzip
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from spans import EXACT_COUNTS, LAYERS  # noqa: E402

WORK_DIR = ROOT / ".bench_work"
GOLDEN_DIR = BENCH / "goldens"
SETUP_PAIRS_PER_PASS = 2   # spawns of the program and of the reference copy
# Seconds a fresh worker takes to import the frozen reference copy on a
# shared 2-core VM when the host is quiet.  setup_s is the median over a
# run of the program's set-up times, each multiplied by this over the
# reference set-up timed next to it, so that it reads in seconds at this
# reference speed (see setup_pair).
SETUP_REF_S = 0.11
# Seconds one untraced pass takes at the seed, its spawns and reference
# kernel runs included, on a shared 2-core VM when the host is quiet; a run
# takes up to 1.5 times --seconds when other tenants are busy.  The number
# of passes is fixed by the workload and --seconds (schedule), whatever the
# speed of the program, so a fastest repetition is always a minimum over the
# same number of samples.
PASS_S_AT_SEED = {"exists-witness": 3.6, "certificates": 4.0,
                  "scan-grid": 5.8, "oracle-census": 7.8}
# Seconds of a light pass, one without the ops marked heavy, and the number
# of full passes in an untraced run of a workload that has heavy ops.
LIGHT_PASS_S_AT_SEED = {"oracle-census": 1.9}
FULL_PASSES = 1
# The time of each workload's reference kernel (worker.reference_kernel)
# on a shared 2-core Xeon VM in a quiet phase of the host.  Other tenants
# slow this host down by up to 70 %, in phases of a tenth of a second to
# minutes, so every timed interval is multiplied by this over the kernel's
# time measured with it (HostScale).  "ref_ms" and "1/ref_s" are
# milliseconds and rates at this reference speed; the unscaled figures are
# printed on a "# raw" line.
CALIBRATION_REF_MS = {"exists-witness": 3.4, "certificates": 3.2,
                      "scan-grid": 2.3, "oracle-census": 2.8}
CALIBRATION_NEAREST = 6    # kernel runs that calibrate a short interval
CALIBRATION_INSIDE = 3     # kernel runs inside an interval that make it long
GRACE_S = 30.0             # a worker silent this long past a deadline is killed
CHECK_TIMEOUT_S = 120.0
HARD_STOP_S = 60.0         # no pass or op starts later than --seconds plus this


def metric_units(kind: str) -> dict:
    """name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}



class WorkerLost(Exception):
    """The worker died or stayed silent past its deadline."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


class Worker:
    """One worker process, spawned and read with timeouts."""

    def __init__(self, reference=False):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        argv = [sys.executable, str(BENCH / "worker.py")]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv + ["--reference"] * reference,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=env)
        self.buf = b""
        try:
            msg = self.read(CHECK_TIMEOUT_S)
        except WorkerLost:
            self.close()
            raise SystemExit("error: the benchmark worker could not import gbflab")
        self.setup_s = time.perf_counter() - t0
        assert msg.get("ready")

    def read(self, timeout: float) -> dict:
        until = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = until - time.monotonic()
            if left <= 0:
                raise WorkerLost("timeout", f"no reply within {timeout:.0f} s")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    code = self.proc.wait()
                    raise WorkerLost("error", f"worker exited with code {code}")
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def send(self, obj):
        self.proc.stdin.write(json.dumps(obj).encode() + b"\n")
        self.proc.stdin.flush()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def setup_pair(reference_first: bool) -> float:
    """The set-up time of a fresh worker that imports the program, scaled
    by SETUP_REF_S over that of one that imports the frozen reference copy,
    spawned right before or after it: set-up is mostly the interpreter's
    and numpy's start, whose speed the program's runs do not tell."""
    times = {}
    for reference in (reference_first, not reference_first):
        w = Worker(reference)
        w.send(None)
        w.close()
        times[reference] = w.setup_s
    return times[False] * SETUP_REF_S / times[True]


def run_pass(ops, trace: bool, stop_s: float, spans_file=None,
             calibrate=None) -> dict:
    """Run the ops once, restarting the worker after it dies.  Returns the
    op records, check results, setup times, peak RSS, trace summary and,
    when calibrate names a workload, the reference kernel times."""
    out = {"records": {}, "checks": {}, "setup": [], "rss": [], "calib": [],
           "layers": None, "unattributed_s": 0.0}
    start = 0
    t_start = time.monotonic()
    while start < len(ops):
        w = Worker()
        out["setup"].append(w.setup_s)
        w.send({"ops": ops, "start": start, "trace": trace,
                "stop_s": stop_s - (time.monotonic() - t_start),
                "spans_file": spans_file, "calibrate": calibrate})
        last = time.perf_counter()
        try:
            while True:
                wait = (ops[start]["deadline"] + GRACE_S if start < len(ops)
                        else CHECK_TIMEOUT_S)
                msg = w.read(wait)
                out["calib"] += msg.pop("calib", [])
                if "op" in msg:
                    out["records"][msg["op"]] = msg
                    start = msg["op"] + 1
                    last = time.perf_counter()
                elif "check" in msg:
                    out["checks"][msg["check"]] = msg["ok"]
                else:
                    out["rss"].append(msg["maxrss_mib"])
                    out["layers"] = msg.get("layers")
                    out["unattributed_s"] = msg.get("unattributed_s", 0.0)
                    start = len(ops)
                    break
        except WorkerLost as lost:
            if start < len(ops):
                out["records"][start] = {
                    "op": start, "status": lost.status, "answer": str(lost),
                    "ms": (time.perf_counter() - last) * 1e3}
                start += 1
        finally:
            w.close()
    return out


# -- goldens --------------------------------------------------------------------


def load_goldens() -> dict:
    goldens = json.loads((GOLDEN_DIR / "goldens.json").read_text())
    with gzip.open(GOLDEN_DIR / "certificates.json.gz", "rt") as fh:
        goldens["certificates"] = json.load(fh)
    return goldens


def certificate_golden(op: dict, goldens: dict):
    """The digest recorded for an admitted certificates type, else None."""
    if op["n"] not in wl.CERT_N_VALUES:
        return None
    # per m, the digests for n in CERT_N_VALUES, 8 hex digits each
    k = 8 * wl.CERT_N_VALUES.index(op["n"])
    return goldens["certificates"].get(str(op["m"]), "")[k:k + 8] or None


def golden_for(workload: str, op: dict, seed: int, goldens: dict):
    if workload == "certificates":
        return certificate_golden(op, goldens)
    if workload == "probe":
        return certificate_golden(op, goldens) or (
            goldens["probe"].get(str(seed), {}).get("answers", {}).get(op["key"]))
    table = goldens[workload]
    if op.get("referee"):
        table = goldens["random"].get(str(seed), {})
    return table.get(op["key"])


def judge(op: dict, rec: dict, checks: dict, golden) -> tuple[str, int]:
    """(status, ops completed with a correct output) of one op record."""
    if rec["status"] != "ok":
        return rec["status"], 0
    ans, units = rec["answer"], rec["units"]
    checked = op.get("referee") or (op.get("full") and golden is None)
    if checked and not checks.get(rec["op"], False):
        return "wrong", 0
    if golden is None:      # only checked ops may lack a golden
        return ("ok", units) if checked else ("wrong", 0)
    if op["kind"] == "decide":
        return ("ok", units) if ans["sha"] == golden else ("wrong", 0)
    if op["kind"] == "scan":
        if ans["sha"] == golden["sha"] and ans["rc"] == golden["rc"]:
            return "ok", units
        return "wrong", sum(a == b for a, b in zip(ans["rows"], golden["rows"]))
    if op.get("referee"):
        return ("ok", units) if ans["stdout"] == golden else ("wrong", 0)
    return ("ok", units) if ans == golden else ("wrong", 0)


# -- metrics --------------------------------------------------------------------


def quantile(sorted_pairs, q: float) -> float:
    """Nearest-rank quantile of (value, count) pairs sorted by value, each
    value counted count times."""
    rank = max(1, int(q * sum(n for _, n in sorted_pairs) + 0.5))
    seen = 0
    for value, n in sorted_pairs:
        seen += n
        if seen >= rank:
            return value
    return sorted_pairs[-1][0]


def pass_metrics(ops, result, statuses) -> dict:
    """Wall time, peak RSS and the timed units of one pass: each op, or
    each cell of a scan, as unit -> (ms or None if failed, ops completed
    with a correct output, deadline ms, start ns, end ns, ops it stands
    for: 1, or the candidate tables of a census type)."""
    units = {}
    for i, rec in result["records"].items():
        status, done = statuses[i]
        key, deadline_ms = ops[i]["key"], ops[i]["deadline"] * 1e3
        if status == "ok" and "cells_ms" in rec:
            units.update({(key, k): (ms, 1, deadline_ms, t0, t0 + ms * 1e6, 1)
                          for k, (t0, ms) in enumerate(rec["cells_ms"])})
        else:
            units[key] = (rec["ms"] if status == "ok" else None, done, deadline_ms,
                          rec.get("t0"), rec.get("t1"), ops[i].get("ops", 1))
    return {"wall_s": sum(rec["ms"] for rec in result["records"].values()) / 1e3,
            "units": units, "peak_rss_mib": max(result["rss"], default=0.0)}


class HostScale:
    """Factors that take a timed interval to the reference host speed.

    The worker runs its workload's reference kernel about every 40 ms of
    CPU time, in the middle of ops too.  An interval is scaled by
    CALIBRATION_REF_MS over a kernel time measured with it: the mean of the
    kernel runs inside it when there are CALIBRATION_INSIDE or more, as
    the interval then spans the host's changes of speed as they do;
    otherwise the fastest of the CALIBRATION_NEAREST runs nearest to it in
    time.  All times are perf_counter_ns, one clock for the whole host."""

    def __init__(self, workload: str, samples):
        self.ref_ms = CALIBRATION_REF_MS[workload]
        samples = sorted(samples)
        self.t = [t for t, _ in samples]
        self.ms = [ns / 1e6 for _, ns in samples]

    def __call__(self, t0, t1) -> float:
        if not self.t:
            return 1.0
        lo, hi = bisect.bisect_left(self.t, t0), bisect.bisect_left(self.t, t1)
        if hi - lo >= CALIBRATION_INSIDE:
            return self.ref_ms / statistics.fmean(self.ms[lo:hi])
        while hi - lo < min(CALIBRATION_NEAREST, len(self.t)):
            before = t0 - self.t[lo - 1] if lo > 0 else float("inf")
            after = self.t[hi] - t1 if hi < len(self.t) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return self.ref_ms / min(self.ms[lo:hi])


def end_to_end(untraced: list[dict], scale=None) -> dict:
    """Each unit's latency is its fastest repetition across the passes, as
    contention from other tenants of the host only ever adds time, each
    repetition first multiplied by scale(start, end) if given; a unit that
    failed in any pass counts as late as its deadline.  The quantiles are
    over ops: a census type stands for its candidate tables, each taking an
    equal share of its time.  Peak RSS is taken from the full passes only."""
    best = {}
    for m in untraced:
        for u, (ms, done, deadline_ms, t0, t1, n) in m["units"].items():
            if ms is not None and scale is not None:
                ms *= scale(t0, t1)
            prev = best.get(u)
            if ms is None or (prev is not None and prev[0] is None):
                best[u] = (None, 0, deadline_ms, n)
            elif prev is None or ms < prev[0]:
                best[u] = (ms, done, deadline_ms, n)
    total_ms = sum(deadline_ms if ms is None else ms for ms, _, deadline_ms, _ in best.values())
    lat = sorted((deadline_ms, 1) if ms is None else (ms / n, n)
                 for ms, _, deadline_ms, n in best.values())
    done = sum(d for _, d, _, _ in best.values())
    return {"goodput_per_s": done / (total_ms / 1e3),
            "op_p50_ms": quantile(lat, 0.5), "op_p90_ms": quantile(lat, 0.9),
            "peak_rss_mib": statistics.median(m["peak_rss_mib"] for m in untraced
                                              if m["full"])}


def schedule(workload: str, seconds: float, trace: bool) -> list[bool]:
    """Whether each pass of a run is a full one.  An untraced run of a
    workload with heavy ops runs them in FULL_PASSES passes, spread over the
    run, and fills the rest of --seconds with light passes, which give the
    cheap ops that set the latency quantiles more samples.  Traced passes
    are all full, so that their exact counts can be compared."""
    full_s, light_s = PASS_S_AT_SEED[workload], LIGHT_PASS_S_AT_SEED.get(workload)
    if trace or light_s is None:
        return [True] * max(2 if trace else 1, int(seconds / full_s))
    n = FULL_PASSES + max(0, int((seconds - FULL_PASSES * full_s) / light_s))
    full = {j * n // FULL_PASSES for j in range(FULL_PASSES)}
    return [k in full for k in range(n)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 goldens: dict) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    all_ops = wl.build_ops(workload, seed, WORK_DIR)
    light_ops = [op for op in all_ops if not op.get("heavy")]
    t0 = time.monotonic()
    setups, passes, calib = [], [], []
    for full in schedule(workload, seconds, trace):
        ops = all_ops if full else light_ops
        if (len(passes) >= (2 if trace else 1)
                and time.monotonic() - t0 > seconds + HARD_STOP_S):
            print(f"# stopped after {len(passes)} passes: past --seconds "
                  f"plus {HARD_STOP_S:.0f} s")
            break
        t_pass = time.monotonic()
        if not trace:
            setups += [setup_pair(k % 2 == 1) for k in range(SETUP_PAIRS_PER_PASS)]
        traced = trace and len(passes) % 2 == 0
        stop_s = seconds + HARD_STOP_S - (time.monotonic() - t0)
        spans_file = (str((WORK_DIR / f"spans-{workload}.jsonl").relative_to(ROOT))
                      if traced else None)
        result = run_pass(ops, traced, stop_s, spans_file,
                          calibrate=None if trace else workload)
        calib += result["calib"]
        statuses = {i: judge(ops[i], rec, result["checks"],
                             golden_for(workload, ops[i], seed, goldens))
                    for i, rec in result["records"].items()}
        metrics = dict(pass_metrics(ops, result, statuses), full=full)
        passes.append((traced, result, {ops[i]["key"]: st for i, st in statuses.items()},
                       metrics))
        print(f"# pass {len(passes)}{' traced' if traced else ''}"
              f"{'' if full else ' light'}: {time.monotonic() - t_pass:.3f} s")
    return summarize_run(workload, all_ops, passes, setups, trace,
                         HostScale(workload, calib))


def summarize_run(workload, ops, passes, setups, trace, scale) -> dict:
    attempted = failed = wrong = 0
    failures = {}
    for _, result, statuses, _ in passes:
        for key, (status, _) in statuses.items():
            attempted += 1
            if status != "ok":
                failed += 1
                wrong += status == "wrong"
                failures[(key, status)] = failures.get((key, status), 0) + 1
    untraced = [m for traced, _, _, m in passes if not traced]
    traced = [(r, m) for t, r, _, m in passes if t]
    print(f"# {workload}: {len(passes)} passes of {len(ops)} ops, "
        f"{attempted} attempted, {failed} failed, {wrong} wrong")
    for (key, status), count in sorted(failures.items()):
        print(f"# failed op {key!r}: {status} x{count}")
    correct = wrong == 0
    if not trace:
        raw = end_to_end(untraced)
        metrics = dict(end_to_end(untraced, scale), setup_s=statistics.median(setups))
        units = metric_units("end_to_end")
        print(f"# samples: {len(untraced)} passes, {len(setups)} set-up pairs, "
              f"{len(scale.ms)} reference kernel times, median "
              f"{statistics.median(scale.ms or [0]):.4f} ms")
        print("# raw " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    else:
        layers = [r["layers"] for r, _ in traced if r["layers"]]
        if not layers:
            raise SystemExit("error: no traced pass completed")
        metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
        for key in EXACT_COUNTS:
            seen = {l[key] for l in layers}
            if len(seen) > 1:
                print(f"# count {key} differs between traced passes: {sorted(seen)}")
                correct = False
        wall = [m["wall_s"] for _, m in traced]
        for (r, m) in traced:
            parts = sum(r["layers"][f"{x}.self_s"] for x in LAYERS)
            print(f"# traced pass: layer self times {parts:.4f} s + unattributed "
                f"{r['unattributed_s']:.4f} s = {parts + r['unattributed_s']:.4f} s; "
                f"traced wall {m['wall_s']:.4f} s")
        metrics["trace.wall_s"] = statistics.median(wall)
        metrics["trace.overhead_s"] = (statistics.median(wall)
                                       - statistics.median(m["wall_s"] for m in untraced))
        metrics["bench.unattributed_s"] = statistics.median(
            r["unattributed_s"] for r, _ in traced)
        units = metric_units("per_layer")
        print(f"# tracing overhead: {metrics['trace.overhead_s']:.4f} s on "
            f"{statistics.median(m['wall_s'] for m in untraced):.4f} s untraced")
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         f"do not match BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "passes": passes, "ops": ops}


# -- probe and suite ------------------------------------------------------------


def run_probe(seed: int, goldens: dict) -> dict:
    """Run the known failures once, traced, and return {key: status}.
    Prints, per traced function, how many deadlines fired in it."""
    ops = wl.build_probe_ops(seed)
    for op in ops:
        op["golden"] = golden_for("probe", op, seed, goldens) is not None
    result = run_pass(ops, True, 3600.0)
    statuses, timeouts = {}, {}
    for i, rec in result["records"].items():
        status, _ = judge(ops[i], rec, result["checks"],
                          golden_for("probe", ops[i], seed, goldens))
        statuses[ops[i]["key"]] = status
        if status != "ok":
            where = f" in {rec['deadline_in']}" if rec.get("deadline_in") else ""
            print(f"# probe {ops[i]['key']!r}: {status}{where} after {rec['ms']:.0f} ms")
        if status == "timeout":
            layer, fn = (rec.get("deadline_in") or "bench.untraced").split(".", 1)
            name = f"{layer}.timeouts.{fn}"
            timeouts[name] = timeouts.get(name, 0) + 1
    for name, count in sorted(timeouts.items()):
        print(f"probe {name} = {count} count")
    return {"ops": ops, "result": result, "statuses": statuses}


def shape_mix(records) -> dict:
    mix = {}
    for i, rec in records.items():
        key = rec["status"] if rec["status"] != "ok" else (
            rec["answer"]["criterion"] or rec["answer"]["verdict"])
        mix[key] = mix.get(key, 0) + 1
    return dict(sorted(mix.items()))


def suite(seed: int, seconds: float) -> int:
    goldens = load_goldens()
    ok = True
    for workload in wl.WORKLOADS:
        for trace in (False, True):
            res = run_workload(workload, seed, seconds, trace, goldens)
            ok &= res["correct"]
            if workload == "certificates" and not trace:
                print(f"# certificates shape mix: "
                      f"{shape_mix(res['passes'][0][1]['records'])}")
    cross_check()
    probe = run_probe(seed, goldens)
    failures = {k: s for k, s in probe["statuses"].items() if s != "ok"}
    print(f"# probe shape mix: {shape_mix(probe['result']['records'])}")
    print(f"# probe failure set: {json.dumps(failures, sort_keys=True)}")
    expected = goldens["probe"].get(str(seed), {}).get("failures")
    if expected is not None:
        # ops that failed at the seed may finish later: judge() accepted
        # them only after re-validating their output
        for key in sorted(set(expected) - set(failures)):
            print(f"# probe {key!r}: fixed, {expected[key]} at the seed, "
                  f"now finishes and re-validates")
        new = {k: s for k, s in failures.items() if expected.get(k) != s}
        if new:
            print(f"# probe failures not recorded at the seed: "
                  f"{json.dumps(new, sort_keys=True)}")
            ok = False
    if any(s == "wrong" for s in probe["statuses"].values()):
        ok = False
    print(f"# suite {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


# seconds per call in the ROADMAP baseline table
ROADMAP_BASELINE = (
    ({"kind": "census", "key": "enumerate_gbfs({7,3})", "m": 7, "n": 3}, 5.6),
    ({"kind": "scan", "key": " ".join(wl.SCAN_ARGV), "argv": list(wl.SCAN_ARGV)}, 3.8),
    ({"kind": "cli", "key": "decide 4 20",
      "argv": ["decide", "4", "20", "--out", ".bench_work/witness_4x20.json"]}, 0.51),
)
CROSS_CHECK_PASSES = 3


def cross_check():
    """Time the ROADMAP baseline calls, each in fresh workers."""
    WORK_DIR.mkdir(exist_ok=True)
    for op, baseline in ROADMAP_BASELINE:
        op = dict(op, deadline=wl.DEADLINE_S["scan-grid"])
        times = sorted(run_pass([op], False, 3600.0)["records"][0]["ms"] / 1e3
                       for _ in range(CROSS_CHECK_PASSES))
        print(f"# cross-check {op['key']!r}: median {statistics.median(times):.3f} s, "
              f"range {times[0]:.3f}..{times[-1]:.3f} over {len(times)} runs; "
              f"ROADMAP baseline {baseline} s")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)     # so every worker is closed on the way out


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true",
                    help="every workload untraced and traced, then the probe")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gbflab" / "__init__.py").is_file():
        print(f"error: no gbflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.suite:
        return suite(args.seed, args.seconds)
    if not args.workload:
        ap.error("--workload or --suite is required")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       load_goldens())
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
