"""Spans around the calls into each gbflab layer, installed by patching module
attributes from outside the package, and the per-layer numbers derived from
them.

A span is [name, start_ns, end_ns, parent, attrs]; parent is the index of
the enclosing span or -1.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("cli", "criteria", "gbf", "cyclotomic", "numtheory", "oracle")


def _fired(rep):
    return {"fired": bool(rep.fired)} if rep is not None else None


def _hit(sol):
    return {"hit": sol is not None}


def _census(res):
    return {"candidates": res.total_candidates, "hits": res.gbf_count}


# (module, attribute) -> (span name, function turning the result into attrs)
TARGETS = {
    ("gbflab.cli", "main"): ("cli.main", None),
    ("gbflab.cli", "verdict_to_dict"): ("cli.verdict_to_dict", None),
    ("gbflab.criteria", "decide"): ("criteria.decide", None),
    ("gbflab.criteria", "rule_exists"): ("criteria.rule_exists", None),
    ("gbflab.criteria", "crit_lam_leung"): ("criteria.C1", _fired),
    ("gbflab.criteria", "crit_semiprimitive"): ("criteria.C2", _fired),
    ("gbflab.criteria", "crit_p7"): ("criteria.C3", _fired),
    ("gbflab.criteria", "crit_p7_x_p35"): ("criteria.C4", _fired),
    ("gbflab.criteria", "crit_p3_x_p5"): ("criteria.C5", _fired),
    ("gbflab.criteria", "revalidate_report"): ("criteria.revalidate", None),
    ("gbflab.gbf", "construct_boolean_bent"): ("gbf.construct", None),
    ("gbflab.gbf", "construct_even_even"): ("gbf.construct", None),
    ("gbflab.gbf", "construct_mod4_from_bent"): ("gbf.construct", None),
    ("gbflab.gbf", "direct_sum"): ("gbf.construct", None),
    ("gbflab.gbf", "lift_modulus"): ("gbf.construct", None),
    ("gbflab.gbf", "walsh_matrix"): ("gbf.walsh_matrix", None),
    ("gbflab.gbf", "first_flat_violation"): ("gbf.flatness", None),
    ("gbflab.gbf", "_folded_reduction"): ("gbf.folded_reduction", None),
    ("gbflab.cyclotomic", "reduction_rows"): ("cyclotomic.reduction_rows", None),
    ("gbflab.numtheory", "min_odd_r"): ("numtheory.min_odd_r", None),
    ("gbflab.numtheory", "solve_x2_Dy2"): ("numtheory.solve", _hit),
    ("gbflab.numtheory", "solve_ax2_by2"): ("numtheory.solve", _hit),
    ("gbflab.numtheory", "class_number"): ("numtheory.class_number", None),
    ("gbflab.numtheory", "semigroup_member"): ("numtheory.semigroup", None),
    ("gbflab.numtheory", "factorize"): ("numtheory.factorize", None),
    ("gbflab.numtheory", "mult_order_2"): ("numtheory.orders", None),
    ("gbflab.numtheory", "semiprimitive"): ("numtheory.orders", None),
    ("gbflab.numtheory", "jacobi"): ("numtheory.orders", None),
    ("gbflab.numtheory", "euler_phi"): ("numtheory.orders", None),
    ("gbflab.oracle", "enumerate_gbfs"): ("oracle.enumerate", _census),
}

CRITERIA = ("C1", "C2", "C3", "C4", "C5")


class Tracer:
    def __init__(self, deadline_exc: type):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_roots: list[int] = []       # root span indices of the op
        self.deadline_exc = deadline_exc
        self.deadline_in = None
        # moduli whose flatness tables are built; tracemalloc slows that
        # pure-Python build several-fold, so a cold call is not measured
        self.warm_moduli: set = set()

    def begin_op(self):
        self.op_roots = []
        self.deadline_in = None

    def wrap(self, name: str, fn, attrs_of):
        tracer = self
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        measure_memory = name == "gbf.flatness"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, None]
            spans.append(span)
            stack.append(idx)
            if parent < 0:
                tracer.op_roots.append(idx)
            started_tm = False
            if measure_memory:
                m = getattr(args[0], "m", None)
                started_tm = m in tracer.warm_moduli and not tracemalloc.is_tracing()
                tracer.warm_moduli.add(m)
            if started_tm:
                tracemalloc.start()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except tracer.deadline_exc:
                if tracer.deadline_in is None:
                    tracer.deadline_in = name
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if started_tm:
                    span[4] = {"peak": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if attrs_of is not None:
                span[4] = attrs_of(result)
            return result
        return traced

    def install(self):
        """Replace every reference the gbflab modules hold to a target
        function, including tuples of functions, by its traced wrapper."""
        wrappers = {}
        for (mod, attr), (name, attrs_of) in TARGETS.items():
            fn = getattr(sys.modules[mod], attr, None)
            if fn is not None:      # a function the program no longer has reads 0
                wrappers[id(fn)] = self.wrap(name, fn, attrs_of)
        for modname, module in list(sys.modules.items()):
            if modname != "gbflab" and not modname.startswith("gbflab."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    setattr(module, attr,
                            tuple(wrappers.get(id(v), v) for v in value))

    def root_ns(self) -> int:
        """Time the current op spent inside spans (for unattributed time)."""
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.op_roots)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per-layer numbers of one traced pass, in seconds and counts."""
    n = len(spans)
    child_ns = [0] * n
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            children[parent].append(i)
    self_ns, incl_ns, calls = Counter(), Counter(), Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        self_ns[name] += dur - child_ns[i]
        calls[name] += 1
        # inclusive time counts only the outermost span of a recursion
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl_ns[name] += dur

    def attr_count(name, key):
        return sum(1 for s in spans if s[0] == name and s[4] and s[4].get(key))

    def attr_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4])

    after_fire_ns = 0
    for i, span in enumerate(spans):
        if span[0] != "criteria.decide":
            continue
        fired = False
        for c in children[i]:
            cs = spans[c]
            if not cs[0].startswith("criteria.C"):
                continue
            if fired:
                after_fire_ns += cs[2] - cs[1]
            elif cs[4] and cs[4].get("fired"):
                fired = True
    witness_ns = sum(s[2] - s[1] for s in spans
                     if s[0] == "gbf.flatness" and s[3] >= 0
                     and spans[s[3]][0] == "oracle.enumerate")
    solve_calls = calls["numtheory.solve"]
    candidates = attr_sum("oracle.enumerate", "candidates")
    hits = attr_sum("oracle.enumerate", "hits")
    peaks = [s[4]["peak"] for s in spans if s[0] == "gbf.flatness" and s[4]]

    s = 1e-9                # seconds per ns
    out = {f"{layer}.self_s": s * sum(v for k, v in self_ns.items()
                                      if k.split(".")[0] == layer)
           for layer in LAYERS}
    out.update({
        "gbf.construct.s": incl_ns["gbf.construct"] * s,
        "gbf.walsh_matrix.s": incl_ns["gbf.walsh_matrix"] * s,
        "gbf.flatness.self_s": self_ns["gbf.flatness"] * s,
        "gbf.flatness.calls": calls["gbf.flatness"],
        "gbf.flatness.peak_mib": max(peaks, default=0) / 2**20,
        "gbf.folded_reduction.s": incl_ns["gbf.folded_reduction"] * s,
        "cyclotomic.reduction_rows.s": incl_ns["cyclotomic.reduction_rows"] * s,
        "cyclotomic.reduction_rows.calls": calls["cyclotomic.reduction_rows"],
        "numtheory.min_odd_r.s": incl_ns["numtheory.min_odd_r"] * s,
        "numtheory.solve.calls": solve_calls,
        "numtheory.solve.s": incl_ns["numtheory.solve"] * s,
        "numtheory.solve.hit_ratio": (attr_count("numtheory.solve", "hit")
                                      / solve_calls if solve_calls else 0.0),
        "numtheory.class_number.s": incl_ns["numtheory.class_number"] * s,
        "numtheory.semigroup.s": incl_ns["numtheory.semigroup"] * s,
        "numtheory.factorize.s": incl_ns["numtheory.factorize"] * s,
    })
    for c in CRITERIA:
        out[f"criteria.{c}.self_s"] = self_ns[f"criteria.{c}"] * s
    for c in CRITERIA:
        out[f"criteria.{c}.fired"] = attr_count(f"criteria.{c}", "fired")
    out.update({
        "criteria.revalidate.s": incl_ns["criteria.revalidate"] * s,
        "criteria.after_first_fire.s": after_fire_ns * s,
        "oracle.enumerate.self_s": self_ns["oracle.enumerate"] * s,
        "oracle.candidates": candidates,
        "oracle.hits": hits,
        "oracle.hit_ratio": hits / candidates if candidates else 0.0,
        "oracle.witness_verify.s": witness_ns * s,
    })
    return out


# counts that must repeat exactly between traced passes over the same inputs
EXACT_COUNTS = ("gbf.flatness.calls", "cyclotomic.reduction_rows.calls",
                "numtheory.solve.calls", "oracle.candidates", "oracle.hits",
                *(f"criteria.{c}.fired" for c in CRITERIA))
