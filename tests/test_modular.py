import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gbsep.exact import IntMatrix, RatMatrix
from gbsep.gog import spanning_tree
from gbsep.modular import (
    Caps,
    conjugate_into_GLnZ,
    modular_generators,
    virtually_Zn_by_free,
)

from conftest import C3, ascending_graph, rank1_loop
from oracles import cycle_ratios


def test_generators_examples(corpus):
    mi = modular_generators(rank1_loop(1, 3))
    assert len(mi.generators) == 1
    assert abs(mi.generators[0].det()) == 3

    mi2 = modular_generators(corpus["amalgam"])
    assert mi2.generators == ()

    mi3 = modular_generators(ascending_graph(C3))
    assert mi3.generators[0] == RatMatrix(C3)
    assert mi3.generators[0].det() == Fraction(-2)


def test_generator_dets_match_cycle_ratios(corpus):
    for name, g in corpus.items():
        mi = modular_generators(g)
        ratios = cycle_ratios(g)
        assert len(mi.generators) == len(ratios)
        for gen, ratio in zip(mi.generators, ratios):
            assert abs(gen.det()) == ratio, name


def test_tree_transport_identifies_base(corpus):
    g = corpus["circle_rank2"]
    mi = modular_generators(g)
    tree = spanning_tree(g)
    transports = dict(mi.tree_transport)
    assert transports[tree.base] == RatMatrix.identity(g.rank)
    assert set(transports) == set(g.vertices)


# ---------------------------------------------------------------------------
# conjugacy decision


def test_conjugacy_no_scalar():
    res = conjugate_into_GLnZ((RatMatrix(IntMatrix([[3]]), 2),))
    assert res.status == "no"
    assert res.certificate.defect == "determinant"
    assert res.certificate.word == (1,)
    assert abs(res.certificate.matrix.det()) == Fraction(3, 2)


def test_conjugacy_yes_shear():
    g = RatMatrix(IntMatrix([[2, 1], [0, 2]]), 2)  # [[1, 1/2], [0, 1]]
    res = conjugate_into_GLnZ((g,))
    assert res.status == "yes"
    assert res.invariant_lattice.basis == ((1, 0), (0, 2))
    conj = res.conjugator.inverse() @ g @ res.conjugator
    assert conj.is_integral and conj.to_int() == IntMatrix([[1, 1], [0, 1]])


def test_conjugacy_trivial_image():
    res = conjugate_into_GLnZ(())
    assert res.status == "yes"
    assert res.conjugator == RatMatrix.identity(1)


def test_conjugacy_charpoly_certificate():
    # dets are 1 but a product has non-integral trace
    g1 = RatMatrix(IntMatrix([[2, 1], [0, 2]]), 2)
    g2 = RatMatrix(IntMatrix([[1, 0], [1, 1]]))
    res = conjugate_into_GLnZ((g1, g2))
    assert res.status == "no"
    assert res.certificate.defect == "charpoly"
    # re-verify the certificate from scratch
    word = res.certificate.word
    gens = {1: g1, -1: g1.inverse(), 2: g2, -2: g2.inverse()}
    m = RatMatrix.identity(2)
    for s in word:
        m = m @ gens[s]
    assert m == res.certificate.matrix
    assert not m.has_integer_charpoly()


def test_tampered_certificates_raise_under_optimize():
    # a certificate or lattice that fails its check must raise even when
    # python -O strips asserts
    code = """
from gbsep import modular
from gbsep.exact import CertificateError, IntMatrix, RatMatrix
assert False, "asserts are live"  # stripped under -O
modular._verify_certificate = lambda cert: False
modular._verify_yes = lambda basis, gens: False
shear = RatMatrix(IntMatrix([[2, 1], [0, 2]]), 2)
for gens in [(RatMatrix(IntMatrix([[3]]), 2),), (shear, RatMatrix(IntMatrix([[1, 0], [1, 1]]))), (shear,)]:
    try:
        modular.conjugate_into_GLnZ(gens)
    except CertificateError as e:
        print("CertificateError", e)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "CertificateError determinant certificate failed verification",
        "CertificateError charpoly certificate failed verification",
        "CertificateError invariant lattice failed verification",
    ]


def test_conjugacy_unknown_with_tight_caps():
    g = RatMatrix(IntMatrix([[2, 1], [0, 2]]), 2)
    res = conjugate_into_GLnZ((g,), Caps(word_len=0, saturation_steps=1))
    assert res.status == "unknown"
    trace = res.diagnostics["index_trace"]
    assert trace == sorted(trace)  # monotone index growth


def test_conjugacy_yes_reverified_for_random_integral_conjugates():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 3)
        # conjugate GL(n,Z) elements by a random rational diagonal
        diag = [[rng.choice((1, 2, 3, 6)) if i == j else 0 for j in range(n)] for i in range(n)]
        b = RatMatrix(IntMatrix(diag), rng.choice((1, 2)))
        gens = []
        for _ in range(rng.randint(1, 2)):
            u = IntMatrix.identity(n)
            for _ in range(3):
                rows = [list(r) for r in u.rows]
                if n > 1:
                    i, j = rng.sample(range(n), 2)
                    c = rng.choice((-1, 1))
                    for k in range(n):
                        rows[i][k] += c * rows[j][k]
                u = IntMatrix(rows)
            gens.append(b @ RatMatrix(u) @ b.inverse())
        res = conjugate_into_GLnZ(tuple(gens), Caps(word_len=3, saturation_steps=128, max_index=10 ** 12))
        assert res.status == "yes"
        inv = res.conjugator.inverse()
        for g in gens:
            m = inv @ g @ res.conjugator
            assert m.is_integral and abs(m.det()) == 1


def test_conjugacy_rank1_specialization():
    rng = random.Random(14)
    for _ in range(40):
        vals = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1)) for _ in range(rng.randint(1, 3))]
        gens = tuple(RatMatrix(IntMatrix([[v.numerator]]), v.denominator) for v in vals)
        res = conjugate_into_GLnZ(gens)
        expected = all(abs(v) == 1 for v in vals)
        assert (res.status == "yes") == expected
        assert res.status in ("yes", "no")


def test_non_invertible_generator_rejected():
    with pytest.raises(ValueError):
        conjugate_into_GLnZ((RatMatrix(IntMatrix([[0]])),))


# ---------------------------------------------------------------------------
# the composed verdict


def test_virtually_znfree_examples(corpus):
    assert virtually_Zn_by_free(corpus["bs_2_2"]).status == "yes"
    assert virtually_Zn_by_free(corpus["bs_2_3"]).status == "no"
    v = virtually_Zn_by_free(ascending_graph(corpus["g2"].edges[0].incl_to)).status
    assert v == "no"  # ascending with d = 2: determinant obstruction


def test_corpus_modular_suite(corpus):
    """Every corpus graph resolves (no unknown); yes re-verifies, no re-verifies."""
    for name, g in corpus.items():
        mi = modular_generators(g)
        res = conjugate_into_GLnZ(mi.generators)
        assert res.status in ("yes", "no"), name
        if res.status == "yes":
            inv = res.conjugator.inverse()
            for gen in mi.generators:
                m = inv @ gen @ res.conjugator
                assert m.is_integral and abs(m.det()) == 1
        else:
            gens = {}
            for i, gen in enumerate(mi.generators):
                gens[i + 1] = gen
                gens[-(i + 1)] = gen.inverse()
            m = RatMatrix.identity(g.rank)
            for s in res.certificate.word:
                m = m @ gens[s]
            assert m == res.certificate.matrix
            if res.certificate.defect == "determinant":
                assert abs(m.det()) != 1
            else:
                assert not m.has_integer_charpoly()
