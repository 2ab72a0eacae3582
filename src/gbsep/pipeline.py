"""Top-level analysis: reduce, classify, and decide the three separability
properties, assembling a machine-checkable report.

Verdict logic per classification of the reduced graph:
  * free abelian: all three properties hold;
  * ascending HNN extension: residually finite always; subgroup separable
    exactly when the defining map is an automorphism (strictly ascending
    extensions are never subgroup separable); cyclic subgroup separability
    from the factor degeneracy criterion;
  * general: all three coincide with being virtually Z^n-by-free, decided by
    the modular-image conjugacy test (the only source of "unknown").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .css import AscendingHNN, CssVerdict, css_decide
from .exact import CertificateError, IntPolynomial
from .gog import Classification, LabeledGraphOfGroups, classify, reduce
from .modular import Caps, Verdict, virtually_Zn_by_free
from .poly import Factorization


@dataclass(frozen=True)
class Report:
    input_echo: dict
    classification: Classification
    residually_finite: Verdict
    subgroup_separable: Verdict
    cyclic_subgroup_separable: Verdict
    char_poly: IntPolynomial | None
    factorization: Factorization | None
    css_detail: CssVerdict | None
    caps: Caps
    elapsed_seconds: float  # not serialized: output must be run-independent

    def consistent(self) -> bool:
        """subgroup separable => cyclic subgroup separable => residually
        finite, with unknown absorbing."""
        rank = {"no": 0, "unknown": 1, "yes": 2}
        a = rank[self.subgroup_separable.status]
        b = rank[self.cyclic_subgroup_separable.status]
        c = rank[self.residually_finite.status]
        return a <= b <= c or 1 in (a, b, c)

    def to_json_dict(self) -> dict:
        out = {
            "input": self.input_echo,
            "caps": {
                "word_len": self.caps.word_len,
                "saturation_steps": self.caps.saturation_steps,
                "max_index": self.caps.max_index,
            },
            "classification": _classification_json(self.classification),
            "verdicts": {
                "residually_finite": self.residually_finite.status,
                "subgroup_separable": self.subgroup_separable.status,
                "css": self.cyclic_subgroup_separable.status,
            },
            "details": {
                "residually_finite": _verdict_json(self.residually_finite),
                "subgroup_separable": _verdict_json(self.subgroup_separable),
                "cyclic_subgroup_separable": _verdict_json(self.cyclic_subgroup_separable),
            },
            "char_poly": list(self.char_poly.coeffs) if self.char_poly else None,
            "factorization": _factorization_json(self.factorization, self.css_detail),
        }
        return out


def _verdict_json(v: Verdict) -> dict:
    return {"status": v.status, "reason": v.reason, "witness": v.witness}


def _classification_json(c: Classification) -> dict:
    return {
        "kind": c.kind,
        "phi": [list(r) for r in c.phi.rows] if c.phi is not None else None,
        "d": c.d,
        "collapse_log": [
            {"edge": s.edge_id, "merged": s.merged_vertex, "into": s.into_vertex}
            for s in c.collapse_log
        ],
    }


def _factorization_json(fact: Factorization | None, css: CssVerdict | None) -> list | None:
    if fact is None:
        return None
    deg = {row.factor: row for row in css.degeneracy.per_factor} if css else {}
    out = []
    for f, mult in fact:
        row = {"coeffs": list(f.coeffs), "multiplicity": mult}
        d = deg.get(f)
        if d is not None:
            row["degeneracy_gcd"] = d.gcd
            row["degenerate_primes"] = list(d.primes)
            row["all_primes_degenerate"] = d.all_primes
            if d.unfactored > 1:
                row["unfactored_cofactor"] = d.unfactored
        out.append(row)
    return out


def _css_witness_json(css: CssVerdict) -> dict:
    out: dict = {"failing": []}
    for i, f, p in css.failing:
        row = {"factor_index": i, "factor": list(f.coeffs), "prime": p}
        if p is None:
            row["unfactored_cofactor"] = css.degeneracy.per_factor[i].unfactored
        out["failing"].append(row)
    if css.eigen_witness is not None:
        out["eigen"] = {
            "lambda": css.eigen_witness.lam,
            "vector": list(css.eigen_witness.vector),
        }
    if css.nonseparable_witnesses:
        out["nonseparable"] = []
        for w in css.nonseparable_witnesses:
            row = {
                "i": w.i,
                "p": w.p,
                "vector": list(w.vector),
                "subgroup_generator": list(w.subgroup_generator),
            }
            if w.p is None:
                row["unfactored_cofactor"] = w.unfactored_cofactor
            out["nonseparable"].append(row)
    return out


def analyze(g: LabeledGraphOfGroups, caps: Caps = Caps(), input_echo: dict | None = None) -> Report:
    """Run the full decision pipeline on a validated labeled graph of groups."""
    start = time.monotonic()
    reduced, log = reduce(g)
    cls = classify(reduced, log)

    char_poly = None
    fact = None
    css = None
    if cls.kind == "free_abelian":
        rf = Verdict("yes", reason="free-abelian")
        subsep = Verdict("yes", reason="free-abelian")
        cssv = Verdict("yes", reason="free-abelian")
    elif cls.kind == "ascending_hnn":
        h = AscendingHNN.of(cls.phi)
        rf = Verdict("yes", reason="ascending-hnn-extension")
        if h.d == 1:
            subsep = Verdict("yes", reason="automorphism-vertex-by-cyclic")
        else:
            subsep = Verdict("no", reason="strictly-ascending", witness={"d": h.d})
        css = css_decide(h)
        fact = css.factorization
        char_poly = fact.product()
        if css.css:
            cssv = Verdict("yes", reason="all-factors-nondegenerate")
        else:
            cssv = Verdict("no", reason="degenerate-factor-mod-p", witness=_css_witness_json(css))
    else:
        v = virtually_Zn_by_free(reduced, caps)
        if v.status == "yes":
            reason = "virtually-abelian-by-free"
        elif v.status == "no":
            reason = "not-residually-finite"
        else:
            reason = v.reason
        rf = Verdict(v.status, reason=reason, witness=v.witness)
        subsep = Verdict(v.status, reason=reason, witness=v.witness)
        cssv = Verdict(v.status, reason=reason, witness=v.witness)

    report = Report(
        input_echo=input_echo if input_echo is not None else _echo_graph(g),
        classification=cls,
        residually_finite=rf,
        subgroup_separable=subsep,
        cyclic_subgroup_separable=cssv,
        char_poly=char_poly,
        factorization=fact,
        css_detail=css,
        caps=caps,
        elapsed_seconds=time.monotonic() - start,
    )
    if not report.consistent():
        raise CertificateError("verdict implication chain violated")
    return report


def _echo_graph(g: LabeledGraphOfGroups) -> dict:
    return {
        "rank": g.rank,
        "vertices": list(g.vertices),
        "edges": [
            {
                "id": e.id,
                "from": e.src,
                "to": e.dst,
                "incl_from": [list(r) for r in e.incl_from.rows],
                "incl_to": [list(r) for r in e.incl_to.rows],
            }
            for e in g.edges
        ],
    }


def report_text(report: Report) -> str:
    """Human-readable rendering with a fixed line order."""
    lines = []
    cls = report.classification
    if cls.kind == "ascending_hnn":
        lines.append(f"classification: ascending_hnn (d = {cls.d})")
    else:
        lines.append(f"classification: {cls.kind}")
    if cls.collapse_log:
        lines.append(f"collapses: {', '.join(s.edge_id for s in cls.collapse_log)}")
    for name, v in (
        ("residually_finite", report.residually_finite),
        ("subgroup_separable", report.subgroup_separable),
        ("cyclic_subgroup_separable", report.cyclic_subgroup_separable),
    ):
        lines.append(f"{name}: {v.status} ({v.reason})")
    if report.char_poly is not None:
        lines.append(f"char_poly: {report.char_poly.to_text()}")
        for f, mult in report.factorization:
            row = next(r for r in report.css_detail.degeneracy.per_factor if r.factor == f)
            parts = []
            if mult > 1:
                parts.append(f"multiplicity {mult}")
            if row.all_primes:
                parts.append("degenerate at every prime")
            elif row.primes:
                parts.append(f"degeneracy gcd {row.gcd}, primes {{{', '.join(map(str, row.primes))}}}")
            else:
                parts.append(f"degeneracy gcd {row.gcd}")
            if row.unfactored > 1:
                parts.append(f"unfactored {row.unfactored}")
            lines.append(f"  factor: {f.to_text()} ({'; '.join(parts)})")
    css = report.css_detail
    if css is not None and not css.css:
        if css.eigen_witness:
            w = css.eigen_witness
            lines.append(f"eigen_witness: lambda = {w.lam}, vector = {_vec(w.vector)}")
        for w in css.nonseparable_witnesses:
            mult = f"p = {w.p}" if w.p is not None else f"unfactored {w.unfactored_cofactor}"
            lines.append(
                f"nonseparable_witness: step {w.i}, {mult}, a = {_vec(w.vector)},"
                f" subgroup <{_vec(w.subgroup_generator)}>"
            )
    return "\n".join(lines) + "\n"


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"
