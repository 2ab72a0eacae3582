import math
import random

import pytest

from gbsep.css import (
    AscendingHNN,
    css_decide,
    invariant_chain,
    nonseparable_witness,
)
from gbsep.exact import IntMatrix, IntPolynomial, Lattice, image, int_inverse_unimodular

from conftest import C1, C2, C3, C4, C5
from oracles import full_chain_witnesses, n2_shortcut


def h(m):
    return AscendingHNN.of(m)


def random_nonsingular(rng, n, lo=-9, hi=9):
    while True:
        m = IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


# ---------------------------------------------------------------------------
# the decision on the worked examples


def test_css_decide_worked_examples():
    v1 = css_decide(h(C1))
    assert not v1.css
    assert v1.eigen_witness.lam == -2
    assert v1.eigen_witness.vector == (1, -2)

    assert css_decide(h(C3)).css
    assert css_decide(h(C5)).css
    assert not css_decide(h(C2)).css
    assert css_decide(h(C4)).css


def test_css_failing_detail():
    v = css_decide(h(C2))
    assert v.failing == ((0, IntPolynomial((2, -2, 1)), 2),)
    (w,) = v.nonseparable_witnesses
    assert (w.i, w.p, w.vector, w.subgroup_generator) == (1, 2, (1, 0), (2, 0))

    v1 = css_decide(h(C1))
    assert [(f.coeffs, p) for _, f, p in v1.failing] == [((2, 1), 2)]
    (w1,) = v1.nonseparable_witnesses
    assert (w1.vector, w1.subgroup_generator) == ((1, -2), (2, -4))


def test_singular_phi_rejected():
    with pytest.raises(ValueError):
        h(IntMatrix([[1, 1], [1, 1]]))


# ---------------------------------------------------------------------------
# invariant chains


def test_chain_worked_examples():
    ch5 = invariant_chain(h(C5))
    assert ch5.length == 2
    assert [f.coeffs for f in ch5.factors] == [(-1, 1), (-2, -3, 1)]
    assert ch5.lattice(1).basis == ((1, 2, -4),)

    ch4 = invariant_chain(h(C4))
    assert ch4.length == 1 and ch4.lattice(1) == Lattice.full(3)

    chr1 = invariant_chain(h(IntMatrix([[2]])))
    assert chr1.length == 1 and chr1.factors[0] == IntPolynomial((-2, 1))


def test_chain_properties_random():
    rng = random.Random(21)
    for _ in range(120):
        n = rng.randint(1, 3)
        phi = random_nonsingular(rng, n)
        hh = h(phi)
        chain = invariant_chain(hh)
        # multiset identity: product of step factors is the char poly
        prod = IntPolynomial((1,))
        for f in chain.factors:
            prod = prod * f
        assert prod == phi.charpoly()
        assert chain.lattice(chain.length) == Lattice.full(n)
        for i in range(1, chain.length + 1):
            lat = chain.lattice(i)
            assert lat.saturate() == lat
            assert lat.contains_lattice(image(phi, lat))
            assert lat.contains_lattice(chain.lattice(i - 1))
            assert lat.rank - chain.lattice(i - 1).rank == chain.steps[i - 1].factor.degree
            assert chain.steps[i - 1].induced.charpoly() == chain.steps[i - 1].factor


def test_chain_prefer_places_factor_first():
    ch = invariant_chain(h(C1), prefer=IntPolynomial((2, 1)))
    assert ch.factors[0] == IntPolynomial((2, 1))
    assert ch.lattice(1).basis == ((1, -2),)
    # default tie-break: least degree then ascending coefficient tuple
    ch_default = invariant_chain(h(C1))
    assert ch_default.factors[0] == IntPolynomial((1, 1))
    assert ch_default.lattice(1).basis == ((1, -1),)


# ---------------------------------------------------------------------------
# witnesses


def test_nonseparable_witness_rejects_bad_prime():
    hh = h(C3)
    chain = invariant_chain(hh)
    with pytest.raises(ValueError):
        nonseparable_witness(hh, chain, 1, 3)


def test_eigen_witness_exactness_random():
    rng = random.Random(22)
    found = 0
    for _ in range(200):
        n = rng.randint(2, 3)
        phi = random_nonsingular(rng, n, -4, 4)
        v = css_decide(h(phi))
        if v.eigen_witness is None:
            continue
        found += 1
        w = v.eigen_witness
        assert abs(w.lam) > 1
        assert phi.apply(w.vector) == tuple(w.lam * x for x in w.vector)
        assert math.gcd(*w.vector) == 1  # primitive
        assert not v.css
    assert found > 10


def test_nonseparable_witness_membership_random():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 3)
        phi = random_nonsingular(rng, n, -4, 4)
        hh = h(phi)
        v = css_decide(hh)
        if v.css:
            assert not v.nonseparable_witnesses
            continue
        assert len(v.nonseparable_witnesses) == len(v.failing)
        for (_, f, p), w in zip(v.failing, v.nonseparable_witnesses):
            assert w.p == p
            assert w.subgroup_generator == tuple(p * x for x in w.vector)
            chain = invariant_chain(hh, prefer=f)
            assert chain.steps[w.i - 1].factor == f
            assert chain.lattice(w.i).contains(w.vector)
            assert not chain.lattice(w.i - 1).contains(w.vector)


def random_degenerate_phi(rng, n):
    """U B U^-1 with U unimodular and B block upper triangular; each diagonal
    block is a companion matrix, the first (and some others) of an Eisenstein
    polynomial, so at least one factor of charpoly(phi) is degenerate."""
    rows = [[0] * n for _ in range(n)]
    off = 0
    while off < n:
        k = rng.randint(1, min(3, n - off))
        if off == 0 or rng.random() < 0.3:
            p = rng.choice((2, 3, 5))
            coeffs = [p * rng.choice([u for u in (-2, -1, 1, 2) if u % p])]
            coeffs += [p * rng.randint(-1, 1) for _ in range(k - 1)]
        else:
            coeffs = [rng.choice((-3, -2, -1, 1, 2, 3))] + [rng.randint(-3, 3) for _ in range(k - 1)]
        for i in range(k):
            if i:
                rows[off + i][off + i - 1] = 1
            rows[off + i][off + k - 1] = -coeffs[i]
            for j in range(off + k, n):
                rows[off + i][j] = rng.randint(-1, 1)
        off += k
    u = IntMatrix.identity(n)
    for _ in range(n + 2):
        m = [list(r) for r in u.rows]
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((-1, 1))
        for c in range(n):
            m[i][c] += sign * m[j][c]
        u = IntMatrix(m)
    return u @ IntMatrix(rows) @ int_inverse_unimodular(u)


def test_witnesses_match_full_chain_reference():
    """css_decide builds only the first step of each preferred chain; its
    witnesses equal those read off the whole chain."""
    rng = random.Random(27)
    several = 0
    for _ in range(150):
        hh = h(random_degenerate_phi(rng, rng.choice((2, 2, 3, 3, 4, 4, 5, 6))))
        v = css_decide(hh)
        assert not v.css
        assert v.nonseparable_witnesses == full_chain_witnesses(hh)
        several += len(v.failing) > 1
    assert several > 20


# ---------------------------------------------------------------------------
# shortcuts and global facts


def test_n2_shortcut_examples():
    assert n2_shortcut(h(C2)) is False
    assert n2_shortcut(h(C3)) is True
    assert n2_shortcut(h(IntMatrix.identity(2))) is True
    with pytest.raises(ValueError):
        n2_shortcut(h(IntMatrix([[2]])))


def test_n2_shortcut_agrees_with_decision():
    rng = random.Random(24)
    for _ in range(1000):
        phi = random_nonsingular(rng, 2)
        hh = h(phi)
        assert n2_shortcut(hh) == css_decide(hh).css


def test_unimodular_phi_always_css():
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(1, 3)
        u = IntMatrix.identity(n)
        for _ in range(6):
            rows = [list(r) for r in u.rows]
            if n > 1:
                i, j = rng.sample(range(n), 2)
                c = rng.choice((-2, -1, 1, 2))
                for k in range(n):
                    rows[i][k] += c * rows[j][k]
            u = IntMatrix(rows)
        if rng.random() < 0.5:
            u = -u
        hh = h(u)
        assert hh.d == 1
        assert css_decide(hh).css


def test_large_integer_eigenvalue_forces_no():
    rng = random.Random(26)
    for _ in range(80):
        n = rng.randint(2, 3)
        lam = rng.choice([-5, -3, -2, 2, 3, 4])
        rows = [[0] * n for _ in range(n)]
        rows[0][0] = lam
        for i in range(1, n):
            for j in range(i, n):
                rows[i][j] = rng.randint(-3, 3)
            rows[i][i] = rng.choice((1, -1, 2))
        phi = IntMatrix(rows)
        if phi.det() == 0:
            continue
        # conjugate by a random unimodular to hide the triangular shape
        u = IntMatrix.identity(n)
        for _ in range(4):
            m = [list(r) for r in u.rows]
            i, j = rng.sample(range(n), 2)
            for k in range(n):
                m[i][k] += m[j][k]
            u = IntMatrix(m)
        phi = u @ phi @ int_inverse_unimodular(u)
        assert not css_decide(h(phi)).css
