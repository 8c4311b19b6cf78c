"""Benchmark worker: one fresh interpreter per pass, so the program's
lru_cache tables start cold as they do for a ``gbf`` user.

Protocol, one JSON object per line.  The worker caps its own address space,
imports gbflab and writes {"ready": true}.  It then reads one job
{"ops": [...], "trace": bool, "stop_s": seconds, "calibrate": workload or
null} from stdin, writes one {"op": i, ...} line per op as it finishes,
runs the output checks that need the program (after every op has run, so
they warm no cache the timed ops use) and ends with {"done": ...}.  With
--reference it imports the frozen copy instead and stops after "ready".

Each op runs under its own deadline (SIGALRM); a deadline or MemoryError is
reported as a failed op and the worker goes on with the next one.

In an untraced pass of a timed run the worker also times, about every
CALIBRATE_EVERY_S of CPU time, a fixed reference kernel of the workload's
kind run on bench/seedref/gbflab_seed, a frozen copy of the program as it
was when the benchmark was defined (Calibrator).  The kernel times go to
the parent with the op records, so that it can tell how fast the host ran
during and around each op (see run.py); the time spent in the kernel is
left out of every op and cell time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import resource
import signal
import sys
import time
from pathlib import Path

from workloads import MEMORY_CAP

ROOT = Path(__file__).resolve().parent.parent


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program
    swallows it."""


def _alarm(signum, frame):
    raise Deadline()


CALIBRATE_EVERY_S = 0.04
WARM_UP_RUNS = 5


def reference_kernel(workload: str):
    """A fixed piece of work of the workload's kind on the frozen reference
    copy, as a function that first clears the copy's caches.  The kernel
    shares the workload's code, so a host that slows the program down
    (other tenants on the core, its caches or its memory) slows the kernel
    down by about the same factor.  2-4 ms on a 2-core Xeon VM."""
    sys.path.insert(0, str(ROOT / "bench" / "seedref"))
    import gbflab_seed as ref
    import gbflab_seed.cli
    import gbflab_seed.criteria
    import gbflab_seed.oracle

    caches = [f for mod in (ref.cyclotomic, ref.numtheory, ref.gbf, ref.criteria,
                            ref.oracle, ref.cli)
              for f in vars(mod).values() if hasattr(f, "cache_clear")]
    G = ref.GbfType

    def certificates():
        # cheap types and types from around the workload's p90
        for m, n in ((211, 3), (4999, 3), (7025, 9), (4029, 11), (9799, 9)):
            ref.criteria.decide(G(m, n))

    def exists_witness():
        v = ref.criteria.decide(G(6, 12))
        ref.is_gbf(v.witness)
        json.dumps(ref.cli.verdict_to_dict(6, 12, v))

    def scan_grid():
        with contextlib.redirect_stdout(io.StringIO()):
            ref.cli.main(["scan", "--m", "2..12", "--n", "1..2"])

    def oracle_census():
        ref.oracle.enumerate_gbfs(G(7, 2))

    kernel = {"certificates": certificates, "exists-witness": exists_witness,
              "scan-grid": scan_grid, "oracle-census": oracle_census}[workload]

    def run():
        for f in caches:
            f.cache_clear()
        kernel()

    return run


class Calibrator:
    """Runs the reference kernel from a SIGPROF handler about every
    CALIBRATE_EVERY_S of the process's CPU time, so also in the middle of an
    op that runs for seconds.  samples holds [start_ns, duration_ns] of
    each run, and spent_ns the time all runs took, which the caller takes
    out of the times it measures."""

    def __init__(self, workload: str):
        self.kernel = reference_kernel(workload)
        self.samples, self.spent_ns = [], 0

    def _tick(self, signum, frame):
        # with the collector on, the kernel's time would grow with the
        # objects the interrupted op holds, not with the host's speed
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            self.kernel()
            t1 = time.perf_counter_ns()
        finally:
            if enabled:
                gc.enable()
        self.samples.append([t0, t1 - t0])
        self.spent_ns += time.perf_counter_ns() - t0

    def start(self):
        # a fresh process runs its first calls slower (the allocator's arenas
        # and the CPU's caches are cold); the kernel runs take that cost, so
        # that the first ops and the kernel runs around them do not
        for _ in range(WARM_UP_RUNS):
            self._tick(None, None)
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def take(self) -> list:
        out, self.samples = self.samples, []
        return out


class _NoCalibrator:
    spent_ns = 0

    def take(self):
        return []


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class _RowClock(io.StringIO):
    """stdout replacement that stamps every write, one per CSV row, with the
    time and the calibrator's spent_ns at that moment."""

    def __init__(self, calibrator):
        super().__init__()
        self.calibrator = calibrator
        self.stamps = []

    def write(self, s):
        self.stamps.append((time.perf_counter_ns(), self.calibrator.spent_ns))
        return super().write(s)


def _call_cli(gbflab, argv, out):
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gbflab.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc


def run_op(gbflab, op, calibrator):
    """Run one op; returns (raw output, write stamps of a scan).  Only the
    calls into the program and the formatting of their output happen here."""
    kind = op["kind"]
    if kind == "decide":
        m, n = op["m"], op["n"]
        v = gbflab.criteria.decide(gbflab.GbfType(m, n))
        return json.dumps(gbflab.cli.verdict_to_dict(m, n, v)), None
    if kind == "census":
        return gbflab.oracle.enumerate_gbfs(gbflab.GbfType(op["m"], op["n"])), None
    out = _RowClock(calibrator) if kind == "scan" else io.StringIO()
    rc = _call_cli(gbflab, op["argv"], out)
    return {"rc": rc, "stdout": out.getvalue()}, getattr(out, "stamps", None)


def shape_answer(op, raw, stamps, start):
    """(answer the parent compares with its golden, ops completed, per-cell
    [start ns, ms] of a scan).  start is the op's (ns, spent_ns) stamp."""
    kind = op["kind"]
    if kind == "decide":
        d = json.loads(raw)
        answer = {"sha": sha256(raw)[:8], "verdict": d["verdict"],
                  "criterion": d["criterion"]}
        if op.get("full"):
            answer["json"] = raw
        return answer, 1, None
    if kind == "census":
        return ({"total": raw.total_candidates, "count": raw.gbf_count,
                 "witnesses": [list(w.values) for w in raw.witnesses]},
                raw.total_candidates, None)
    if kind == "scan":
        rows = raw["stdout"].splitlines()[1:]
        # stamps[0] is the header write; cell k ends at stamps[k + 1]
        ends = [start] + stamps
        cells = [[ends[k + 1][0], (ends[k + 2][0] - ends[k + 1][0]
                                   - ends[k + 2][1] + ends[k + 1][1]) / 1e6]
                 for k in range(len(rows))]
        return ({"rc": raw["rc"], "sha": sha256(raw["stdout"]),
                 "rows": [sha256(r)[:8] for r in rows]}, len(rows), cells)
    if op.get("out_file") and raw["rc"] == 0:
        raw["witness_sha256"] = sha256(Path(ROOT, op["out_file"]).read_bytes())
    return raw, 1, None


_NOT_FLAT = re.compile(r"not flat at y=(\d+): \|W\(y\)\|\^2 has canonical "
                       r"coefficients \[([-\d, ]*)\]")


def referee_verify(gbflab, spec, stdout) -> bool:
    """Recompute |W(y)|^2 of a random table through CycInt.abs_square, an
    exact path independent of the numpy flatness test, for every y up to the
    first violation verify reported."""
    import numpy as np
    m, n = spec["m"], spec["n"]
    values = np.array(json.loads(Path(ROOT, spec["file"]).read_text())["values"])
    match = _NOT_FLAT.match(stdout)
    last = int(match.group(1)) if match else 63
    phi = len(gbflab.reduction_rows(m)[0])
    flat = (1 << n,) + (0,) * (phi - 1)
    xs = np.arange(1 << n)
    for y in range(last + 1):
        signs = 1 - 2 * (np.bitwise_count(xs & y) & 1).astype(np.int64)
        w = np.bincount(values, weights=signs, minlength=m).astype(np.int64)
        got = gbflab.CycInt(m, w.tolist()).abs_square().coeffs[:phi]
        if match and y == last:
            reported = tuple(int(c) for c in match.group(2).split(","))
            return got != flat and got == reported
        if got != flat:
            return False
    return not match


def referee_decide(gbflab, answer_json) -> bool:
    """Accept a verdict with no golden only when it re-validates: the report
    for NotExists, the witness for Exists, and for Unknown every attempt
    report, each of which must be about this type and not fire.  The
    excluded range a non-firing attempt may carry (C4 ones do at the seed)
    is not checked: revalidate_report expects none."""
    d = json.loads(answer_json)
    if d["verdict"] == "not_exists":
        rep = gbflab.criteria.report_from_dict(d["report"])
        return gbflab.criteria.revalidate_report(rep)
    if d["verdict"] == "exists":
        w = d["witness"]
        return gbflab.is_gbf(gbflab.table(w["m"], w["n"], w["values"]))
    if d["verdict"] == "unknown":
        reps = [gbflab.criteria.report_from_dict(a) for a in d["attempts"]]
        return all((r.m, r.n) == (d["m"], d["n"]) and not r.fired
                   and gbflab.criteria.revalidate_report(
                       dataclasses.replace(r, excluded=None)) for r in reps)
    return False


def peak_rss_mib() -> float:
    """This process's resident high-water mark.  ru_maxrss would not do: on
    Linux it keeps the parent's peak across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)                       # stray prints go to stderr
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    def send(obj):
        proto.write(json.dumps(obj) + "\n")

    if sys.argv[1:] == ["--reference"]:
        # the same set-up on the frozen copy, which run.py times against
        # the program's to tell how fast the host ran
        sys.path.insert(0, str(ROOT / "bench" / "seedref"))
        import gbflab_seed.cli
        import gbflab_seed.criteria
        import gbflab_seed.oracle  # noqa: F401
        send({"ready": True})
        sys.stdin.readline()
        return
    sys.path.insert(0, str(ROOT / "src"))
    import gbflab
    import gbflab.cli
    import gbflab.criteria
    import gbflab.oracle

    send({"ready": True})
    job = json.loads(sys.stdin.readline() or "null")
    if job is None:
        return
    ops = job["ops"]
    stop_at = time.monotonic() + job["stop_s"]
    signal.signal(signal.SIGALRM, _alarm)
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer(Deadline)
        tracer.install()

    clock = time.perf_counter_ns
    unattributed_ns = 0
    checks = []
    cal = Calibrator(job["calibrate"]) if job.get("calibrate") else _NoCalibrator()
    if job.get("calibrate"):
        cal.start()
    for i in range(job["start"], len(ops)):
        op = ops[i]
        if time.monotonic() > stop_at:
            break
        if tracer:
            tracer.begin_op()
        status, raw, stamps = "ok", None, None
        t0 = t1 = clock()
        spent0 = cal.spent_ns
        try:
            signal.setitimer(signal.ITIMER_REAL, op["deadline"])
            try:
                t0, spent0 = clock(), cal.spent_ns
                raw, stamps = run_op(gbflab, op, cal)
                t1 = clock()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            status, t1 = "timeout", clock()
        except MemoryError:
            status, t1 = "oom", clock()
        except Exception as exc:            # the op's failure, not ours
            status, t1 = "error", clock()
            raw = f"{type(exc).__name__}: {exc}"
        ns = t1 - t0 - (cal.spent_ns - spent0)
        rec = {"op": i, "status": status, "ms": ns / 1e6, "answer": raw,
               "t0": t0, "t1": t1, "calib": cal.take()}
        if tracer:
            unattributed_ns += (t1 - t0) - tracer.root_ns()
            if status == "timeout":
                rec["deadline_in"] = tracer.deadline_in
        if status == "ok":
            rec["answer"], rec["units"], cells = shape_answer(op, raw, stamps,
                                                              (t0, spent0))
            if cells is not None:
                rec["cells_ms"] = cells
            if op.get("referee") or (op.get("full") and not op.get("golden")):
                checks.append((i, rec["answer"]))
        send(rec)

    if job.get("calibrate"):
        cal.stop()
    done = {"done": True, "calib": cal.take()}
    if tracer:
        # summarized before the checks, whose calls are traced too
        from spans import summarize
        done["layers"] = summarize(tracer.spans)
        done["unattributed_s"] = unattributed_ns / 1e9
        if job.get("spans_file"):
            tracer.dump(ROOT / job["spans_file"])

    # checks that need the program run after every timed op
    for i, answer in checks:
        op = ops[i]
        try:
            signal.setitimer(signal.ITIMER_REAL, 4 * op["deadline"])
            try:
                if op.get("referee"):
                    ok = referee_verify(gbflab, op["referee"], answer["stdout"])
                else:
                    ok = bool(referee_decide(gbflab, answer["json"]))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (Deadline, MemoryError, ValueError):
            ok = False
        send({"check": i, "ok": ok})

    done["maxrss_mib"] = peak_rss_mib()
    send(done)


if __name__ == "__main__":
    main()
