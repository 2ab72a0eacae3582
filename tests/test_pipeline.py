import json
import random
import subprocess
import sys

import pytest

from gbsep.exact import IntMatrix, IntPolynomial
from gbsep.gog import GraphValidationError, LabeledGraphOfGroups
from gbsep.modular import Caps
from gbsep.pipeline import analyze, report_text

from conftest import ascending_graph, rank1_loop


def statuses(report):
    return (
        report.residually_finite.status,
        report.subgroup_separable.status,
        report.cyclic_subgroup_separable.status,
    )


def test_worked_example_verdicts(corpus):
    assert statuses(analyze(corpus["g1"])) == ("yes", "no", "no")
    assert statuses(analyze(corpus["g2"])) == ("yes", "no", "no")
    assert statuses(analyze(corpus["g3"])) == ("yes", "no", "yes")
    assert statuses(analyze(corpus["g4"])) == ("yes", "no", "yes")
    assert statuses(analyze(corpus["g5"])) == ("yes", "no", "yes")


def test_rank1_sanity():
    assert statuses(analyze(rank1_loop(1, 5))) == ("yes", "no", "no")
    assert statuses(analyze(rank1_loop(2, 3))) == ("no", "no", "no")
    assert statuses(analyze(rank1_loop(2, 2))) == ("yes", "yes", "yes")


def test_free_abelian_and_automorphism(corpus):
    noe = LabeledGraphOfGroups(2, ("v",), ())
    assert statuses(analyze(noe)) == ("yes", "yes", "yes")
    rep = analyze(corpus["auto_loop"])
    assert rep.classification.d == 1
    assert statuses(rep) == ("yes", "yes", "yes")


def test_corpus_implication_chain(corpus):
    rank = {"no": 0, "unknown": 1, "yes": 2}
    for name, g in corpus.items():
        rep = analyze(g)
        assert rep.consistent(), name
        rf, subsep, css = (rank[s] for s in statuses(rep))
        assert 1 in (rf, subsep, css) or subsep <= css <= rf, name


def test_ascending_report_detail(corpus):
    rep = analyze(corpus["g1"])
    assert rep.char_poly == IntPolynomial((2, 3, 1))
    prod = IntPolynomial((1,))
    for f, m in rep.factorization:
        prod = prod * f ** m
    assert prod == rep.char_poly
    w = rep.cyclic_subgroup_separable.witness
    assert w["eigen"] == {"lambda": -2, "vector": [1, -2]}
    assert w["nonseparable"][0]["subgroup_generator"] == [2, -4]
    assert rep.subgroup_separable.reason == "strictly-ascending"


def test_general_verdicts_propagate(corpus):
    rep = analyze(corpus["circle_2_3"])
    assert statuses(rep) == ("no", "no", "no")
    assert rep.residually_finite.witness["defect"] == "determinant"

    rep2 = analyze(corpus["double_edge_balanced"])
    assert statuses(rep2) == ("yes", "yes", "yes")
    assert rep2.residually_finite.witness["invariant_lattice"]


def test_unknown_propagates_with_tight_caps(corpus):
    rep = analyze(corpus["double_edge_balanced"], Caps(word_len=0, saturation_steps=0))
    assert statuses(rep) == ("unknown", "unknown", "unknown")
    assert rep.consistent()


def test_invalid_input_surfaces():
    with pytest.raises(GraphValidationError):
        analyze(LabeledGraphOfGroups(2, ("a", "b"), ()))


def test_report_json_is_serializable(corpus):
    for g in corpus.values():
        doc = analyze(g).to_json_dict()
        json.dumps(doc)  # must be pure JSON types
        assert set(doc["verdicts"]) == {"residually_finite", "subgroup_separable", "css"}


def test_report_text_mentions_verdicts(corpus):
    text = report_text(analyze(corpus["g3"]))
    assert "cyclic_subgroup_separable: yes" in text
    assert "char_poly: x^2 - 3*x - 2" in text


def test_random_ascending_reports_consistent():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 3)
        while True:
            phi = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if phi.det() != 0:
                break
        rep = analyze(ascending_graph(phi))
        assert rep.residually_finite.status == "yes"
        assert (rep.subgroup_separable.status == "yes") == (abs(phi.det()) == 1)
        if rep.subgroup_separable.status == "yes":
            assert rep.cyclic_subgroup_separable.status == "yes"


def test_inconsistent_report_raises_under_optimize():
    code = """
import gbsep
from gbsep import pipeline
from gbsep.exact import IntMatrix
from gbsep.gog import Edge, LabeledGraphOfGroups
assert False, "asserts are live"  # stripped under -O
pipeline.Report.consistent = lambda self: False
g = LabeledGraphOfGroups(1, ("v",), (Edge("e", "v", "v", IntMatrix([[1]]), IntMatrix([[3]])),))
try:
    pipeline.analyze(g)
except gbsep.CertificateError as e:
    print("CertificateError", e)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "CertificateError verdict implication chain violated\n"
