import itertools
import math
import random
from fractions import Fraction

import pytest

from gbsep.exact import (
    IntMatrix,
    IntPolynomial,
    Lattice,
    RatMatrix,
    _aut_order_factors,
    hnf,
    image,
    int_inverse_unimodular,
    kernel,
    mod_m_order,
    preimage,
    quotient_structure,
    snf,
)

from conftest import C1, C2, C4
from oracles import _fraction_inverse


def random_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def random_nonsingular(rng, n, lo=-9, hi=9):
    while True:
        m = random_matrix(rng, n, lo, hi)
        if m.det() != 0:
            return m


# ---------------------------------------------------------------------------
# hnf


def test_hnf_frozen_examples():
    m = IntMatrix([[4, 2], [2, 2]])
    h, u = hnf(m)
    assert m @ u == h
    assert abs(u.det()) == 1
    assert Lattice.from_columns(2, m.columns()).basis == ((2, 0), (0, 2))

    h3, u3 = hnf(IntMatrix.identity(3))
    assert h3 == IntMatrix.identity(3)

    lat = Lattice.from_columns(2, IntMatrix([[2, 4], [6, 8]]).columns())
    assert abs(lat.basis_matrix().det()) == 8


def test_hnf_transform_and_canonicality():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n)
        h, u = hnf(m)
        assert m @ u == h
        assert abs(u.det()) == 1
        # canonical: rebuilding from shuffled generator columns gives the same basis
        lat = Lattice.from_columns(n, m.columns())
        cols = list(m.columns())
        rng.shuffle(cols)
        cols.append(tuple(a + b for a, b in zip(cols[0], cols[-1])))
        assert Lattice.from_columns(n, cols).basis == Lattice.from_columns(n, m.columns() + m.columns()).basis
        # idempotence on the stored basis
        assert Lattice.from_columns(n, lat.basis) == lat


# ---------------------------------------------------------------------------
# snf


def test_hnf_canonical_under_unimodular_change():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = random_nonsingular(rng, n)
        u = IntMatrix.identity(n)
        for _ in range(5):
            rows = [list(r) for r in u.rows]
            if n > 1:
                i, j = rng.sample(range(n), 2)
                c = rng.choice((-2, -1, 1, 2))
                for k in range(n):
                    rows[i][k] += c * rows[j][k]
            u = IntMatrix(rows)
        assert Lattice.from_columns(n, m.columns()) == Lattice.from_columns(n, (m @ u).columns())


def test_snf_frozen_examples():
    s, u, v = snf(IntMatrix([[2, 4], [6, 8]]))
    assert [s.rows[i][i] for i in range(2)] == [2, 4]
    s2, _, _ = snf(IntMatrix([[3, 0], [0, 3]]))
    assert s2 == IntMatrix([[3, 0], [0, 3]])
    s3, _, _ = snf(IntMatrix.identity(4))
    assert s3 == IntMatrix.identity(4)


def test_snf_properties_random():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n)
        s, u, v = snf(m)
        assert u @ m @ v == s
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        d = [s.rows[i][i] for i in range(n)]
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            assert b % a == 0 if a else b == 0
        assert math.prod(d) == abs(m.det())
        # off-diagonal zero
        assert all(s.rows[i][j] == 0 for i in range(n) for j in range(n) if i != j)


# ---------------------------------------------------------------------------
# charpoly


def test_charpoly_frozen_examples():
    assert C1.charpoly() == IntPolynomial((2, 3, 1))
    assert IntMatrix.identity(2).charpoly() == IntPolynomial((1, -2, 1))
    assert C4.charpoly() == IntPolynomial((-5, -5, -1, 1))


def _charpoly_cofactor(m):
    """Independent oracle: expand det(xI - M) over polynomial entries."""
    n = m.n
    entries = [
        [IntPolynomial((-m.rows[i][j], 1)) if i == j else IntPolynomial((-m.rows[i][j],)) for j in range(n)]
        for i in range(n)
    ]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        out = IntPolynomial(())
        for j, top in enumerate(rows[0]):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = top * det(minor)
            out = out + term if j % 2 == 0 else out - term
        return out

    return det(entries)


def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, -5, 5)
        assert m.charpoly() == _charpoly_cofactor(m)


def test_cayley_hamilton_random():
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n)
        assert m.charpoly().at_matrix(m) == IntMatrix.zeros(n, n)


# ---------------------------------------------------------------------------
# inverses


def _with_zero_pivots(rng, rows):
    """Zero the first i + 1 entries of row i for the first k rows, so
    elimination must swap rows."""
    k = rng.randint(0, len(rows) - 1)
    return [[0] * (i + 1) + r[i + 1:] if i < k else r for i, r in enumerate(rows)]


def test_inverse_matches_fraction_gauss_jordan():
    rng = random.Random(5)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        num = IntMatrix(_with_zero_pivots(rng, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]))
        den = rng.randint(1, 6)
        m = RatMatrix(num, den)
        try:
            expected = _fraction_inverse(tuple(tuple(Fraction(x, m.den) for x in r) for r in m.num.rows))
        except ZeroDivisionError:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            continue
        inv = m.inverse()
        assert [[Fraction(x, inv.den) for x in r] for r in inv.num.rows] == [list(r) for r in expected]
        assert inv == RatMatrix(inv.num, inv.den)  # already in lowest terms
        assert m @ inv == RatMatrix.identity(n)
    assert singular > 5


def test_int_inverse_unimodular_matches_fraction_gauss_jordan():
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randint(1, 6)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rng.shuffle(rows)  # a permutation: zero leading pivots
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            else:
                rows[i] = [-x for x in rows[i]]
        u = IntMatrix(rows)
        expected = _fraction_inverse(tuple(tuple(Fraction(x) for x in r) for r in rows))
        assert int_inverse_unimodular(u).rows == tuple(tuple(int(x) for x in r) for r in expected)
    with pytest.raises(ValueError):
        int_inverse_unimodular(IntMatrix([[0, 2], [1, 0]]))
    with pytest.raises(ZeroDivisionError):
        int_inverse_unimodular(IntMatrix([[0, 2], [0, 1]]))


# ---------------------------------------------------------------------------
# differential checks against sympy


def test_charpoly_snf_hnf_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

    x = sympy.Symbol("x")
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(6):
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if n > 2 and rng.random() < 0.3:
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]  # rank deficient
            m, sm = IntMatrix(rows), sympy.Matrix(rows)
            assert m.charpoly().coeffs == tuple(int(c) for c in reversed(sm.charpoly(x).all_coeffs()))
            s, _, _ = snf(m)
            expected = smith_normal_form(sm, domain=sympy.ZZ)
            assert [s.rows[i][i] for i in range(n)] == [abs(int(expected[i, i])) for i in range(n)]
            # same column lattice: sympy's canonical form of H equals that of M
            h, _ = hnf(m)
            assert hermite_normal_form(sympy.Matrix(h.rows)) == hermite_normal_form(sm)


# ---------------------------------------------------------------------------
# lattice operations


def test_lattice_frozen_examples():
    assert Lattice.scaled(2, 2).index_in(Lattice.full(2)) == 4
    assert Lattice.from_columns(2, [(2, 4)]).saturate().basis == ((1, 2),)
    meet = Lattice.from_columns(2, [(1, 0)]).intersect(Lattice.from_columns(2, [(0, 1)]))
    assert meet.basis == ()


def test_lattice_errors():
    full = Lattice.full(2)
    other = Lattice.from_columns(2, [(1, 1)])
    with pytest.raises(ValueError):
        full.index_in(other)  # not nested
    with pytest.raises(ValueError):
        Lattice.from_columns(2, [(1, 0, 0)])


def test_index_multiplicativity_random():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 4)
        m2 = random_nonsingular(rng, n, -4, 4)
        m3 = random_nonsingular(rng, n, -4, 4)
        l1 = Lattice.full(n)
        l2 = Lattice.from_columns(n, m2.columns())
        l3 = image(m2, Lattice.from_columns(n, m3.columns()))
        assert l3.index_in(l1) == l3.index_in(l2) * l2.index_in(l1)


def test_sum_intersect_interplay():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = Lattice.from_columns(n, random_nonsingular(rng, n, -3, 3).columns())
        b = Lattice.from_columns(n, random_nonsingular(rng, n, -3, 3).columns())
        s = a.add(b)
        i = a.intersect(b)
        assert s.contains_lattice(a) and s.contains_lattice(b)
        assert a.contains_lattice(i) and b.contains_lattice(i)
        # |A/ (a cap b)| * |A / (a+b)| == |A/a| * |A/b| for full-rank a, b
        ia = a.index_in(Lattice.full(n))
        ib = b.index_in(Lattice.full(n))
        assert i.index_in(Lattice.full(n)) * s.index_in(Lattice.full(n)) == ia * ib


def test_preimage_image_adjunction():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = random_nonsingular(rng, n, -4, 4)
        lat = Lattice.from_columns(n, random_nonsingular(rng, n, -3, 3).columns())
        pre = preimage(m, lat)
        for v in pre.basis:
            assert lat.contains(m.apply(v))
        for _ in range(5):
            v = tuple(rng.randint(-6, 6) for _ in range(n))
            in_pre = pre.contains(v)
            maps_in = lat.contains(m.apply(v))
            assert in_pre == maps_in


def test_saturate_properties():
    rng = random.Random(8)
    for _ in range(80):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        cols = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        lat = Lattice.from_columns(n, cols)
        sat = lat.saturate()
        assert sat.contains_lattice(lat)
        assert sat.saturate() == sat
        if lat.rank:
            assert lat.rank == sat.rank
            assert lat.index_in(sat) is not None  # finite index in the saturation


def test_kernel():
    m = IntMatrix([[1, 2, -4], [0, 0, 0]])
    k = kernel(m)
    assert k.rank == 2
    for v in k.basis:
        assert m.apply(v) == (0, 0)
    assert kernel(IntMatrix.identity(3)).basis == ()


# ---------------------------------------------------------------------------
# quotient structure


def test_quotient_structure_frozen():
    qs = quotient_structure(Lattice.scaled(2, 3))
    assert qs.invariant_factors == (3, 3)
    assert qs.order((1, 0)) == 3
    qs2 = quotient_structure(Lattice.from_columns(2, [(2, 0), (0, 1)]))
    assert qs2.invariant_factors == (1, 2)
    qs3 = quotient_structure(Lattice.from_columns(2, IntMatrix([[2, 4], [6, 8]]).columns()))
    assert qs3.invariant_factors == (2, 4)


def test_quotient_structure_orders_random():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = Lattice.from_columns(n, random_nonsingular(rng, n, -4, 4).columns())
        qs = quotient_structure(k)
        assert qs.size == k.index_in(Lattice.full(n))
        for _ in range(5):
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            o = qs.order(v)
            assert k.contains(tuple(o * x for x in v))
            for p in {2, 3, 5, 7}:
                if o % p == 0:
                    assert not k.contains(tuple(o // p * x for x in v))


def test_quotient_structure_infinite_raises():
    with pytest.raises(ValueError):
        quotient_structure(Lattice.from_columns(2, [(1, 0)]))


# ---------------------------------------------------------------------------
# mod_m_order


def test_mod_m_order_frozen():
    assert mod_m_order(C2, 3) == 8
    assert mod_m_order(IntMatrix.identity(3), 7) == 1
    assert mod_m_order(C2, 2) is None  # det C2 = 2


def test_mod_m_order_agrees_with_iteration():
    rng = random.Random(10)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        m = random_matrix(rng, n, -4, 4)
        mod = rng.randint(2, 12)
        r = mod_m_order(m, mod)
        if r is None:
            assert math.gcd(m.det() % mod, mod) != 1
            continue
        checked += 1
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        cur = ident
        rows = tuple(tuple(x % mod for x in row) for row in m.rows)
        for step in range(1, r + 1):
            cur = tuple(
                tuple(sum(rows[i][k] * cur[k][j] for k in range(n)) % mod for j in range(n))
                for i in range(n)
            )
            if step < r:
                assert cur != ident
        assert cur == ident
    assert checked > 50


def _brute_aut_count(ds):
    """Number of automorphisms of Z/d_1 + ... + Z/d_k: generator images of
    admissible order that give a bijection."""
    elems = list(itertools.product(*(range(d) for d in ds)))

    def fits(v, d):
        return all(d * x % e == 0 for x, e in zip(v, ds))

    count = 0
    for imgs in itertools.product(*([v for v in elems if fits(v, d)] for d in ds)):
        images = {tuple(sum(c * im[j] for c, im in zip(x, imgs)) % ds[j] for j in range(len(ds)))
                  for x in elems}
        count += len(images) == len(elems)
    return count


def test_aut_order_matches_brute_force_count():
    for p, exps in ((2, [1]), (3, [2]), (2, [1, 1]), (2, [1, 2]), (2, [2, 2]), (3, [1, 2]),
                    (5, [1, 1]), (2, [1, 1, 1]), (2, [1, 1, 2])):
        fac = _aut_order_factors(p, exps)
        assert math.prod(q ** a for q, a in fac.items()) == _brute_aut_count([p ** e for e in exps])
    # |GL(n, Z/p^k)| is the homocyclic case
    fac = _aut_order_factors(3, [2, 2, 2])
    assert math.prod(q ** a for q, a in fac.items()) == 3 ** 9 * (27 - 1) * (27 - 3) * (27 - 9)


def test_mod_m_order_cap():
    assert mod_m_order(C2, 3) == 8
