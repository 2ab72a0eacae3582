import itertools
import random
from fractions import Fraction

import pytest

from gbsep.exact import IntMatrix
from gbsep.gog import (
    Edge,
    GraphValidationError,
    LabeledGraphOfGroups,
    classify,
    reduce,
    validate,
)

from conftest import C2, C3, loop_graph, rank1_loop
from oracles import cycle_ratios


I2 = IntMatrix.identity(2)


# ---------------------------------------------------------------------------
# validation


def test_validate_examples():
    g = loop_graph(2, I2, C3)
    assert validate(g) == []
    assert g.edges[0].label_from == 1 and g.edges[0].label_to == 2

    bad = loop_graph(2, IntMatrix([[1, 0], [0, 0]]), C3)
    assert any("singular" in e for e in validate(bad))

    disc = LabeledGraphOfGroups(2, ("a", "b"), ())
    assert any("disconnected" in e for e in validate(disc))


def test_validate_rank_mismatch_and_ids():
    g = loop_graph(2, IntMatrix([[2]]), IntMatrix([[3]]))
    assert any("2x2" in e for e in validate(g))
    dup = LabeledGraphOfGroups(2, ("v",), (
        Edge("e", "v", "v", I2, C3),
        Edge("e", "v", "v", I2, C3),
    ))
    assert any("duplicate" in e for e in validate(dup))


# ---------------------------------------------------------------------------
# reduction


def test_reduce_segment_collapses_to_point():
    seg = LabeledGraphOfGroups(2, ("u", "w"), (Edge("e", "u", "w", I2, C3),))
    r, log = reduce(seg)
    assert len(r.vertices) == 1 and r.edges == ()
    assert classify(r, log).kind == "free_abelian"


def test_reduce_path_with_loop(corpus):
    r, log = reduce(corpus["path_with_loop"])
    assert len(r.vertices) == 1 and len(r.edges) == 1 and r.edges[0].is_loop
    cls = classify(r, log)
    assert cls.kind == "ascending_hnn" and cls.d == 2
    assert cls.phi.charpoly() == C2.charpoly()


def test_reduce_already_reduced(corpus):
    for name in ("bs_2_3", "amalgam", "theta_balanced"):
        g = corpus[name]
        r, log = reduce(g)
        assert r == g and log == ()


def test_reduce_circle_with_unimodular_edge(corpus):
    # the (1,1) edge of the circle is collapsible; the result is a (2,3) loop
    r, log = reduce(corpus["circle_2_3"])
    assert len(log) == 1 and len(r.edges) == 1 and r.edges[0].is_loop
    e = r.edges[0]
    assert {e.label_from, e.label_to} == {2, 3}


def test_reduce_leaves_no_unimodular_nonloop():
    rng = random.Random(42)
    for _ in range(30):
        g = _random_graph(rng)
        r, _ = reduce(g)
        for e in r.edges:
            if not e.is_loop:
                assert e.label_from > 1 and e.label_to > 1


def _random_unimodular(rng, n):
    m = IntMatrix.identity(n)
    for _ in range(rng.randint(0, 4)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        rows = [list(r) for r in m.rows]
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            rows[i][k] += c * rows[j][k]
        m = IntMatrix(rows)
    return m


def _random_graph(rng, n=2, nverts=3):
    verts = tuple(f"v{i}" for i in range(nverts))
    edges = []
    # spanning path keeps it connected
    for i in range(nverts - 1):
        edges.append(_random_edge(rng, n, f"t{i}", verts[i], verts[i + 1]))
    for i in range(rng.randint(0, 2)):
        a, b = rng.choice(verts), rng.choice(verts)
        edges.append(_random_edge(rng, n, f"x{i}", a, b))
    return LabeledGraphOfGroups(n, verts, tuple(edges))


def _random_edge(rng, n, eid, a, b):
    def mat():
        if rng.random() < 0.4:
            return _random_unimodular(rng, n)
        while True:
            m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if m.det() != 0:
                return m
    return Edge(eid, a, b, mat(), mat())


# ---------------------------------------------------------------------------
# confluence of collapse order (canonical label-graph hashing)


def _canonical_label_key(g):
    labels = []
    verts = list(g.vertices)
    best = None
    for perm in itertools.permutations(range(len(verts))):
        idx = {v: perm[i] for i, v in enumerate(verts)}
        rows = []
        for e in g.edges:
            a = (idx[e.src], idx[e.dst], e.label_from, e.label_to)
            b = (idx[e.dst], idx[e.src], e.label_to, e.label_from)
            rows.append(min(a, b))
        key = tuple(sorted(rows))
        if best is None or key < best:
            best = key
    return best


def _reduce_reversed(g):
    # same collapse rule, opposite deterministic order
    from gbsep.gog import _collapse

    while True:
        candidates = [
            e for e in g.edges
            if not e.is_loop and (e.incl_from.is_unimodular() or e.incl_to.is_unimodular())
        ]
        if not candidates:
            return g
        e = max(candidates, key=lambda x: x.id)
        g, _ = _collapse(g, e)
    return g


def test_reduce_confluent_on_corpus(corpus):
    # scoped to the regression corpus: reduced labeled-graph forms are not
    # unique for arbitrary graphs, but both collapse orders must agree here
    for g in corpus.values():
        a, _ = reduce(g)
        b = _reduce_reversed(g)
        assert _canonical_label_key(a) == _canonical_label_key(b)


def _ratio_exponent_lattice(ratios):
    """The subgroup of Q*_{>0} generated by the ratios, as a lattice of prime
    exponent vectors (the honest collapse invariant; the multiset itself is
    cycle-basis dependent)."""
    from gbsep.exact import Lattice
    from gbsep.ntheory import factorize

    primes = sorted({p for r in ratios for p in (*factorize(r.numerator), *factorize(r.denominator))})
    if not primes:
        return Lattice.zero(1)
    cols = []
    for r in ratios:
        nf, df = factorize(r.numerator), factorize(r.denominator)
        cols.append(tuple(nf.get(p, 0) - df.get(p, 0) for p in primes))
    return Lattice.from_columns(len(primes), cols), tuple(primes)


def test_reduce_preserves_cycle_ratio_group(corpus):
    rng = random.Random(7)
    graphs = list(corpus.values()) + [_random_graph(rng) for _ in range(25)]
    for g in graphs:
        before = cycle_ratios(g)
        after_g, _ = reduce(g)
        after = cycle_ratios(after_g)
        assert _ratio_exponent_lattice(before) == _ratio_exponent_lattice(after)


def test_reduce_preserves_single_cycle_ratio(corpus):
    # with one fundamental cycle the ratio itself survives up to orientation
    before = cycle_ratios(corpus["circle_2_3"])
    after = cycle_ratios(reduce(corpus["circle_2_3"])[0])
    assert len(before) == len(after) == 1
    assert after[0] in (before[0], 1 / before[0])


# ---------------------------------------------------------------------------
# classification


def test_classify_examples(corpus):
    cls = classify(reduce(loop_graph(2, I2, C2))[0])
    assert cls.kind == "ascending_hnn" and cls.d == 2 and cls.phi == C2

    assert classify(reduce(rank1_loop(2, 3))[0]).kind == "general"
    assert classify(LabeledGraphOfGroups(2, ("v",), ())).kind == "free_abelian"

    both_unimodular = loop_graph(2, I2, IntMatrix([[0, 1], [1, 0]]))
    cls2 = classify(both_unimodular)
    assert cls2.kind == "ascending_hnn" and cls2.d == 1


def test_classify_flipped_loop_normalizes():
    # unimodular side as incl_to: orientation must flip
    g = loop_graph(2, C3, I2)
    cls = classify(g)
    assert cls.kind == "ascending_hnn" and cls.phi == C3 and cls.d == 2


def test_classify_invariant_under_relabel_and_flip():
    rng = random.Random(5)
    for _ in range(25):
        g = _random_graph(rng)
        cls = classify(*reduce(g))
        # relabel vertices and flip a random subset of edges
        mapping = {v: f"w{i}" for i, v in enumerate(reversed(g.vertices))}
        edges = []
        for e in g.edges:
            if rng.random() < 0.5:
                edges.append(Edge(e.id, mapping[e.dst], mapping[e.src], e.incl_to, e.incl_from))
            else:
                edges.append(Edge(e.id, mapping[e.src], mapping[e.dst], e.incl_from, e.incl_to))
        g2 = LabeledGraphOfGroups(g.rank, tuple(mapping[v] for v in g.vertices), tuple(edges))
        cls2 = classify(*reduce(g2))
        assert (cls.kind, cls.d) == (cls2.kind, cls2.d)


# ---------------------------------------------------------------------------
# cycle ratios


def test_cycle_ratios_examples(corpus):
    assert cycle_ratios(corpus["circle_2_3"]) == (Fraction(3, 2),)
    assert cycle_ratios(corpus["amalgam"]) == ()
    assert cycle_ratios(rank1_loop(2, 2)) == (Fraction(1),)


def test_cycle_ratios_ascending(corpus):
    for name in ("g1", "g2", "g3"):
        (r,) = cycle_ratios(corpus[name])
        e = corpus[name].edges[0]
        assert r == Fraction(e.label_to, e.label_from)


def test_reduce_errors_on_invalid():
    with pytest.raises(GraphValidationError):
        reduce(LabeledGraphOfGroups(2, ("a", "b"), ()))
