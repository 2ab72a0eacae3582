"""Per-layer tracing for the gbsep benchmark, installed from outside the
package.

Tracer.install() replaces module and class attributes of gbsep with
wrappers that record one span per call: span name, start, end, parent span
and request id, kept in memory in flat arrays and written once at the end.
Nothing under src/ changes. A wrapper sees a call only when the caller looks
the attribute up at call time (a module global or a class attribute); each
span lists which bindings it replaces, and README.md names the calls a
wrapper cannot see.

layer_metrics() turns the spans of the traced pass into per-request self
times, call counts and ratios. A span's self time is its duration minus the
durations of its direct children, so the self times of one request add up
to its root span (gbsep.cli.main or separate_in_A).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array

# span name, module that defines it, attribute ("Class.method" for methods),
# modules whose binding is replaced (None: every gbsep module holding it)
SPANS = (
    ("cli.main", "cli", "main", ("cli",)),
    ("cli.parse_input_document", "cli", "parse_input_document", ("cli",)),
    ("cli.validate", "gog", "validate", ("cli",)),
    ("cli.to_json_dict", "pipeline", "Report.to_json_dict", None),
    ("cli.report_text", "pipeline", "report_text", ("cli",)),
    ("cli.dump_json", "cli", "_dump_json", ("cli",)),
    ("pipeline.analyze", "pipeline", "analyze", None),
    ("gog.reduce", "gog", "reduce", None),
    ("gog.collapse", "gog", "_collapse", None),
    ("gog.classify", "gog", "classify", None),
    ("exact.charpoly", "exact", "IntMatrix.charpoly", None),
    ("exact.snf", "exact", "snf", None),
    ("exact.kernel", "exact", "kernel", None),
    ("exact.hnf", "exact", "_hnf_data", None),
    ("exact.lattice_intersect", "exact", "Lattice.intersect", None),
    ("exact.lattice_scaled", "exact", "Lattice.scaled", None),
    ("exact.preimage", "exact", "preimage", None),
    ("exact.quotient_structure", "exact", "quotient_structure", None),
    ("exact.mod_m_order", "exact", "mod_m_order", None),
    ("exact.rat_det", "exact", "RatMatrix.det", None),
    ("exact.rat_integer_charpoly", "exact", "RatMatrix.has_integer_charpoly", None),
    ("poly.factor_over_Q", "poly", "factor_over_Q", None),
    ("poly.integer_roots", "poly", "integer_roots", None),
    ("poly.degeneracy_test", "poly", "degeneracy_test", None),
    ("ntheory.factorize", "ntheory", "factorize", None),
    ("css.css_decide", "css", "css_decide", None),
    ("css.invariant_chain", "css", "invariant_chain", None),
    ("modular.modular_generators", "modular", "modular_generators", None),
    ("modular.conjugate_into_GLnZ", "modular", "conjugate_into_GLnZ", None),
    ("quotient.separate_in_A", "quotient", "separate_in_A", None),
    ("quotient.k_subgroup", "quotient", "k_subgroup", None),
    ("quotient.make_quotient", "quotient", "make_quotient", None),
)

WORD_CHECKS = ("exact.rat_det", "exact.rat_integer_charpoly")
FAMILY_MEMBER_CALLS = ("exact.lattice_intersect", "quotient.k_subgroup", "exact.lattice_scaled")


class Tracer:
    def __init__(self):
        self.names = [s[0] for s in SPANS]
        self.name = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request_id = -1
        self._undo = []

    def _wrap(self, fn, nid: int):
        name, parent, request, start, end, stack = (
            self.name, self.parent, self.request, self.start, self.end, self.stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = tracer.request_id
            if rid < 0:  # untimed work between requests
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            request.append(rid)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {name[len("gbsep."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("gbsep.")}
        for nid, (_, home, attr, bindings) in enumerate(SPANS):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[home], cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(raw.__func__, nid)))
                else:
                    setattr(cls, meth, self._wrap(raw, nid))
                self._undo.append((cls, meth, raw))
                continue
            fn = getattr(modules[home], attr)
            traced = self._wrap(fn, nid)
            for mname in bindings or modules:
                mod = modules[mname]
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    def write(self, path) -> None:
        """All spans, column by column: one JSON header line naming the
        columns and their array type codes, then each column's raw bytes
        (native byte order). Span i has name names[name[i]], parent span
        index parent[i] (-1 for a request's root), request id request[i]
        and perf_counter start[i] and end[i] in seconds."""
        columns = (("name", self.name), ("parent", self.parent), ("request", self.request),
                   ("start", self.start), ("end", self.end))
        header = {"names": self.names, "count": len(self.start),
                  "columns": [[key, col.typecode] for key, col in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(fh)


def layer_metrics(tracer: Tracer, traced, plain) -> dict:
    """Per-layer metrics from the spans of the traced pass; `traced` and
    `plain` are the traced and untraced passes (for the overhead ratio).
    Times and counts are per request of the traced pass; times are scaled
    to reference seconds with the probe factor of their request."""
    names = tracer.names
    nid = {n: i for i, n in enumerate(names)}
    name = tracer.name.tolist()
    parent = tracer.parent.tolist()
    wall = [e - s for s, e in zip(tracer.start.tolist(), tracer.end.tolist())]
    scale = [ref / w for ref, w in zip(traced.latencies, traced.wall)]
    dur = [d * scale[r] for d, r in zip(wall, tracer.request.tolist())]
    n_spans = len(dur)
    child = [0.0] * n_spans
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for i in range(n_spans):
        calls[name[i]] += 1
        self_s[name[i]] += dur[i] - child[i]

    conj = nid["modular.conjugate_into_GLnZ"]
    checks = {nid[n] for n in WORD_CHECKS}
    exact_ids = {i for i, n in enumerate(names) if n.startswith("exact.")}
    word_checks = word_check_s = saturation_s = 0.0
    for i in range(n_spans):
        p = parent[i]
        if p >= 0 and name[p] == conj:
            if name[i] in checks:
                word_checks += 1
                word_check_s += dur[i]
            elif name[i] in exact_ids:
                saturation_s += dur[i]

    # oracle family: spans are stored in start order, so a single forward
    # pass sees every member construction before the first scan of its separate_in_A
    sep = nid["quotient.separate_in_A"]
    qs = nid["exact.quotient_structure"]
    constructors = {nid[n] for n in FAMILY_MEMBER_CALLS}
    owner = [-1] * n_spans       # enclosing separate_in_A span, if any
    nested = [False] * n_spans   # inside a member construction below that separate_in_A
    built, scanned = {}, {}
    for i in range(n_spans):
        p = parent[i]
        if p >= 0:
            if name[p] == sep:
                owner[i], nested[i] = p, False
            else:
                owner[i], nested[i] = owner[p], nested[p] or name[p] in constructors
        if name[i] == sep:
            built[i] = scanned[i] = 0
        elif owner[i] >= 0:
            if name[i] == qs and p == owner[i]:
                scanned[p] += 1
            elif name[i] in constructors and not nested[i] and not scanned[owner[i]]:
                built[owner[i]] += 1
    total_built = sum(built.values())
    total_scanned = sum(scanned.values())

    n_req = max(1, traced.count)
    root_wall = sum(d for d, p in zip(wall, parent) if p < 0)

    def per_req(x):
        return x / n_req

    def self_of(*spans):
        return per_req(sum(self_s[nid[s]] for s in spans))

    def calls_of(span):
        return per_req(calls[nid[span]])

    m = {
        "cli.load.self_s": self_of("cli.parse_input_document", "cli.validate"),
        "cli.render.self_s": self_of("cli.to_json_dict", "cli.report_text", "cli.dump_json"),
        "cli.main.self_s": self_of("cli.main"),
        "pipeline.analyze.self_s": self_of("pipeline.analyze"),
        "gog.reduce.self_s": self_of("gog.reduce", "gog.collapse"),
        "gog.reduce.collapses": calls_of("gog.collapse"),
        "gog.classify.self_s": self_of("gog.classify"),
    }
    for short in ("charpoly", "snf", "kernel", "hnf"):
        m[f"exact.{short}.calls"] = calls_of(f"exact.{short}")
        m[f"exact.{short}.self_s"] = self_of(f"exact.{short}")
    m.update({
        "poly.factor_over_Q.calls": calls_of("poly.factor_over_Q"),
        "poly.factor_over_Q.self_s": self_of("poly.factor_over_Q"),
        "poly.integer_roots.self_s": self_of("poly.integer_roots"),
        "poly.degeneracy_test.self_s": self_of("poly.degeneracy_test"),
        "ntheory.factorize.calls": calls_of("ntheory.factorize"),
        "ntheory.factorize.self_s": self_of("ntheory.factorize"),
        "css.css_decide.self_s": self_of("css.css_decide"),
        "css.invariant_chain.calls": calls_of("css.invariant_chain"),
        "css.invariant_chain.self_s": self_of("css.invariant_chain"),
        "modular.modular_generators.self_s": self_of("modular.modular_generators"),
        "modular.conjugate_into_GLnZ.self_s": self_of("modular.conjugate_into_GLnZ"),
        "modular.word_checks": per_req(word_checks),
        "modular.word_check_s": per_req(word_check_s),
        "modular.saturation_s": per_req(saturation_s),
        "quotient.separate_in_A.calls": calls_of("quotient.separate_in_A"),
        "quotient.separate_in_A.self_s": self_of("quotient.separate_in_A"),
        "quotient.members_built": per_req(total_built),
        "quotient.members_scanned": per_req(total_scanned),
        "quotient.family_use_ratio": total_scanned / total_built if total_built else 0.0,
        "quotient.family_cache_hit_ratio":
            sum(1 for b in built.values() if b == 0) / len(built) if built else 0.0,
    })
    for short in ("lattice_intersect", "preimage", "quotient_structure"):
        m[f"exact.{short}.calls"] = calls_of(f"exact.{short}")
        m[f"exact.{short}.self_s"] = self_of(f"exact.{short}")
    m.update({
        "quotient.make_quotient.self_s": self_of("quotient.make_quotient"),
        "exact.mod_m_order.self_s": self_of("exact.mod_m_order"),
        "trace_overhead_ratio": statistics.median(traced.latencies) / statistics.median(plain.latencies),
        "trace.accounted_ratio": root_wall / sum(traced.wall),
        "trace.spans": per_req(n_spans),
    })
    return {k: (v, _unit(k)) for k, v in m.items()}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s/req"
    if metric.endswith("_ratio"):
        return "ratio"
    return "1/req"
