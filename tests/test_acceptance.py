"""Acceptance suite: golden verdicts from the worked examples, rank-1 sanity,
and the randomized property suites, one pass/fail line per criterion."""

import math
import random
import time

from gbsep.css import AscendingHNN, css_decide, invariant_chain
from gbsep.exact import IntMatrix, IntPolynomial, Lattice, hnf, image, snf
from gbsep.modular import RatMatrix, conjugate_into_GLnZ, modular_generators
from gbsep.pipeline import analyze
from gbsep.poly import factor_over_Q
from gbsep.quotient import coprime_quotient, k_subgroup, make_quotient, separate_in_A

from conftest import C1, C2, C3, C4, C5, ascending_graph, corpus_graphs, rank1_loop
from oracles import cycle_ratios, n2_shortcut


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}{tail}")
    assert ok, criterion


def timed_analyze(g):
    t0 = time.monotonic()
    rep = analyze(g)
    dt = time.monotonic() - t0
    assert dt < 1.0, f"analysis took {dt:.2f}s"
    return rep


def statuses(rep):
    return (
        rep.residually_finite.status,
        rep.subgroup_separable.status,
        rep.cyclic_subgroup_separable.status,
    )


# ---------------------------------------------------------------------------
# golden verdicts


def test_criterion_1_example_c1():
    rep = timed_analyze(ascending_graph(C1))
    ok = statuses(rep) == ("yes", "no", "no")
    w = rep.css_detail.eigen_witness
    ok = ok and w is not None and w.lam == -2 and w.vector == (1, -2)
    report("criterion-1 (C1 verdicts + eigen witness)", ok, f"lambda={w.lam}, a={w.vector}")


def test_criterion_2_example_c2():
    rep = timed_analyze(ascending_graph(C2))
    v = rep.css_detail
    ok = rep.cyclic_subgroup_separable.status == "no"
    ok = ok and v.failing == ((0, IntPolynomial((2, -2, 1)), 2),)
    h = AscendingHNN.of(C2)
    ok = ok and n2_shortcut(h) is False and h.phi.trace() == 2 and h.d == 2
    report("criterion-2 (C2 not css, prime 2, shortcut agrees)", ok)


def test_criterion_3_example_c3():
    rep = timed_analyze(ascending_graph(C3))
    h = AscendingHNN.of(C3)
    ok = rep.cyclic_subgroup_separable.status == "yes"
    ok = ok and math.gcd(h.phi.trace(), h.d) == 1 and h.phi.trace() == 3 and h.d == 2
    report("criterion-3 (C3 css yes, trace coprime to d)", ok)


def test_criterion_4_example_c4():
    rep = timed_analyze(ascending_graph(C4))
    ok = rep.char_poly == IntPolynomial((-5, -5, -1, 1))
    ok = ok and len(rep.factorization) == 1 and rep.factorization.factors[0][1] == 1
    ok = ok and rep.cyclic_subgroup_separable.status == "yes"
    report("criterion-4 (C4 char poly irreducible, css yes)", ok)


def test_criterion_5_example_c5():
    rep = timed_analyze(ascending_graph(C5))
    ok = [f.coeffs for f in rep.factorization.distinct()] == [(-1, 1), (-2, -3, 1)]
    ok = ok and rep.cyclic_subgroup_separable.status == "yes"
    report("criterion-5 (C5 factors {x-1, x^2-3x-2}, css yes)", ok)


def test_rank1_sanity():
    ok = statuses(timed_analyze(rank1_loop(1, 7)))[0] == "yes"
    ok = ok and statuses(timed_analyze(rank1_loop(2, 3))) == ("no", "no", "no")
    ok = ok and statuses(timed_analyze(rank1_loop(2, 2))) == ("yes", "yes", "yes")
    report("rank-1 sanity (loop(1,q) RF; loop(2,3) not RF; loop(2,2) subsep)", ok)


# ---------------------------------------------------------------------------
# property suites


def test_criterion_6_exact_kernel_suite():
    rng = random.Random(106)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        # Cayley-Hamilton
        if m.charpoly().at_matrix(m) != IntMatrix.zeros(n, n):
            failures += 1
        # SNF: diagonal, divisibility chain, product = |det|, unimodular transforms
        s, u, v = snf(m)
        d = [s.rows[i][i] for i in range(n)]
        if u @ m @ v != s or abs(u.det()) != 1 or abs(v.det()) != 1:
            failures += 1
        if any(d[i + 1] % d[i] if d[i] else d[i + 1] for i in range(n - 1)):
            failures += 1
        if math.prod(d) != abs(m.det()):
            failures += 1
        # HNF canonicality: H = M U, unimodular U, echelon shape, reduced pivot rows
        h, uu = hnf(m)
        if m @ uu != h or abs(uu.det()) != 1:
            failures += 1
        cols = [h.column(j) for j in range(h.ncols) if any(h.column(j))]
        pivots = [next(i for i, x in enumerate(c) if x) for c in cols]
        if pivots != sorted(pivots) or len(set(pivots)) != len(pivots):
            failures += 1
        for j, c in enumerate(cols):
            p = pivots[j]
            if c[p] <= 0 or any(cols[k][p] < 0 or cols[k][p] >= c[p] for k in range(j)):
                failures += 1
        if Lattice.from_columns(n, cols).basis != tuple(cols):
            failures += 1
        # index multiplicativity on a nested chain
        m2 = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if m.det() != 0 and m2.det() != 0:
            l2 = Lattice.from_columns(n, m.columns())
            l3 = image(m, Lattice.from_columns(n, m2.columns()))
            if l3.index_in(Lattice.full(n)) != l3.index_in(l2) * l2.index_in(Lattice.full(n)):
                failures += 1
    report("criterion-6 (exact kernel suite, 1000 random matrices)", failures == 0,
           f"failures={failures}")


def _brute_irreducible(f):
    n = f.degree
    if n <= 1:
        return True
    c0 = f.coeffs[0]
    if c0 == 0:
        return False
    for d in range(1, abs(c0) + 1):
        if c0 % d == 0 and (f(d) == 0 or f(-d) == 0):
            return False
    if n < 4:
        return True
    bound = (2 ** n) * (math.isqrt(sum(c * c for c in f.coeffs)) + 1)
    for b in [s * d for d in range(1, abs(c0) + 1) if c0 % d == 0 for s in (1, -1)]:
        for a in range(-bound, bound + 1):
            _, r = f.divmod_monic(IntPolynomial((b, a, 1)))
            if r.is_zero:
                return False
    return True


def test_criterion_7_factorization_oracle():
    rng = random.Random(107)
    failures = 0
    for _ in range(500):
        target = rng.randint(1, 4)
        f = IntPolynomial((1,))
        while f.degree < target:
            deg = rng.randint(1, min(2, target - f.degree))
            f = f * IntPolynomial([rng.randint(-5, 5) for _ in range(deg)] + [1])
        fact = factor_over_Q(f)
        if fact.product() != f:
            failures += 1
        for g, _ in fact:
            if not (g.is_monic and _brute_irreducible(g)):
                failures += 1
    report("criterion-7 (factorization oracle, 500 random products)", failures == 0,
           f"failures={failures}")


def test_criterion_8_chain_suite():
    rng = random.Random(108)
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        while True:
            phi = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            if phi.det() != 0:
                break
        chain = invariant_chain(AscendingHNN.of(phi))
        prod = IntPolynomial((1,))
        for f in chain.factors:
            prod = prod * f
        if prod != phi.charpoly():
            failures += 1
        for i in range(1, chain.length + 1):
            lat = chain.lattice(i)
            if not lat.contains_lattice(image(phi, lat)):
                failures += 1
            if lat.saturate() != lat:
                failures += 1
            if lat.rank - chain.lattice(i - 1).rank != chain.steps[i - 1].factor.degree:
                failures += 1
    report("criterion-8 (chain suite, 200 random matrices)", failures == 0,
           f"failures={failures}")


def test_criterion_9_oracle_criterion_agreement():
    rng = random.Random(109)
    contradictions = 0
    no_cases = yes_cases = 0
    for _ in range(100):
        n = rng.choice((2, 3))
        while True:
            phi = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if phi.det() != 0:
                break
        h = AscendingHNN.of(phi)
        verdict = css_decide(h)
        chain = invariant_chain(h)
        if not verdict.css:
            no_cases += 1
            w = verdict.nonseparable_witnesses[0]
            if separate_in_A(phi, chain, w.subgroup_generator, w.vector, 50) is not None:
                contradictions += 1
        else:
            yes_cases += 1
            # x coprime to d: budget 50 provably suffices for these pairs
            xs = [x for x in (2, 3, 4, 5, 7, 8, 9, 11, 13) if math.gcd(x, h.d) == 1]
            for _ in range(20):
                a = tuple(rng.randint(-3, 3) for _ in range(n))
                if not any(a):
                    a = (1,) + (0,) * (n - 1)
                x = rng.choice(xs)
                y = rng.choice([v for v in range(1, 30) if v % x])
                spec = separate_in_A(
                    phi, chain, tuple(x * c for c in a), tuple(y * c for c in a), 50
                )
                if spec is None:
                    contradictions += 1
    report("criterion-9 (oracle/criterion agreement, 100 instances)", contradictions == 0,
           f"no={no_cases}, yes={yes_cases}, contradictions={contradictions}")


def test_criterion_10_modular_suite():
    unknowns = 0
    failures = 0
    for name, g in corpus_graphs().items():
        img = modular_generators(g)
        ratios = cycle_ratios(g)
        for gen, ratio in zip(img.generators, ratios):
            if gen.det() not in (ratio, -ratio):
                failures += 1
        res = conjugate_into_GLnZ(img.generators)
        if res.status == "unknown":
            unknowns += 1
        elif res.status == "yes":
            inv = res.conjugator.inverse()
            for gen in img.generators:
                conj = inv @ gen @ res.conjugator
                if not conj.is_integral or abs(conj.det()) != 1:
                    failures += 1
        else:
            lookup = {}
            for i, gen in enumerate(img.generators):
                lookup[i + 1] = gen
                lookup[-(i + 1)] = gen.inverse()
            mat = RatMatrix.identity(g.rank)
            for s in res.certificate.word:
                mat = mat @ lookup[s]
            if mat != res.certificate.matrix:
                failures += 1
            defect_holds = (
                abs(mat.det()) != 1
                if res.certificate.defect == "determinant"
                else not mat.has_integer_charpoly()
            )
            if not defect_holds:
                failures += 1
    report("criterion-10 (modular suite on the corpus)", failures == 0 and unknowns == 0,
           f"failures={failures}, unknowns={unknowns}")


def test_criterion_11_quotient_suite():
    rng = random.Random(111)
    failures = 0
    specs = []
    spec = make_quotient(C2, Lattice.scaled(2, 3))
    if spec.r != 8:
        failures += 1
    specs.append(spec)
    specs.append(coprime_quotient(C3, 5))
    ch3 = invariant_chain(AscendingHNN.of(C3))
    specs.append(make_quotient(C3, k_subgroup(C3, ch3, 2, 2, 0)))
    for _ in range(30):
        n = rng.randint(1, 3)
        while True:
            phi = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if phi.det() != 0:
                break
        m = next(m for m in range(2, 40) if math.gcd(m, abs(phi.det())) == 1)
        specs.append(coprime_quotient(phi, m))
    def identity_exponent(spec, e):
        px = spec.phi ** e
        n = spec.phi.n
        for j in range(n):
            unit = tuple(int(i == j) for i in range(n))
            diff = tuple(u - v for u, v in zip(unit, px.apply(unit)))
            if not spec.lattice.contains(diff):
                return False
        return True

    for spec in specs:
        if not spec.lattice.contains_lattice(image(spec.phi, spec.lattice)):
            failures += 1
        if not identity_exponent(spec, spec.r):
            failures += 1
        # least exponent: no maximal proper divisor of r works
        for p in {q for q in range(2, spec.r + 1) if spec.r % q == 0 and all(q % w for w in range(2, q))}:
            if identity_exponent(spec, spec.r // p):
                failures += 1
    report("criterion-11 (quotient suite + C2/m=3 gives r=8)", failures == 0,
           f"specs={len(specs)}, failures={failures}")
