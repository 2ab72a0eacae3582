import math
import random

import pytest

from gbsep.exact import IntPolynomial
from gbsep.poly import (
    UnsupportedDegreeError,
    degeneracy_test,
    factor_over_Q,
    integer_roots,
    squarefree_decomposition,
)

from conftest import C5


def poly(*coeffs):
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# integer roots


def test_integer_roots_frozen():
    assert integer_roots(poly(2, 3, 1)) == (-2, -1)
    assert integer_roots(poly(2, -2, 1)) == ()
    assert integer_roots(poly(-1, 1)) == (1,)


def test_integer_roots_multiplicity():
    f = poly(-1, 1) ** 3 * poly(2, 1) * poly(1, 0, 1)
    assert integer_roots(f) == (-2, 1, 1, 1)
    assert integer_roots(poly(0, 0, 1)) == (0, 0)


# ---------------------------------------------------------------------------
# factorization


def test_factor_frozen_examples():
    fa = factor_over_Q(poly(-5, -5, -1, 1))
    assert fa.factors == ((poly(-5, -5, -1, 1), 1),)

    fa5 = factor_over_Q(C5.charpoly())
    assert [f.coeffs for f in fa5.distinct()] == [(-1, 1), (-2, -3, 1)]

    fa2 = factor_over_Q(poly(2, 3, 1))
    assert fa2.factors == ((poly(1, 1), 1), (poly(2, 1), 1))


def test_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        factor_over_Q(poly(1, 2))  # not monic
    with pytest.raises(UnsupportedDegreeError):
        factor_over_Q(IntPolynomial([0] * 13 + [1]))


def _random_monic(rng, degree, lo=-5, hi=5):
    return IntPolynomial([rng.randint(lo, hi) for _ in range(degree)] + [1])


def _landau_mignotte(f):
    return (2 ** f.degree) * (math.isqrt(sum(c * c for c in f.coeffs)) + 1)


def brute_force_irreducible(f):
    """Exhaustive search for a monic factor within the coefficient bound."""
    n = f.degree
    if n <= 1:
        return True
    c0 = f.coeffs[0]
    if c0 == 0:
        return False  # x divides
    # linear factors: roots divide the constant term
    for d in range(1, abs(c0) + 1):
        if c0 % d == 0:
            if f(d) == 0 or f(-d) == 0:
                return False
    if n < 4:
        return True
    bound = _landau_mignotte(f)
    divisors = [s * d for d in range(1, abs(c0) + 1) if c0 % d == 0 for s in (1, -1)]
    for b in divisors:
        d_, rem = divmod(c0, b)
        assert rem == 0
        for a in range(-bound, bound + 1):
            g = IntPolynomial((b, a, 1))
            q, r = f.divmod_monic(g)
            if r.is_zero:
                return False
    return True


def test_factorization_reconstruction_and_oracle():
    rng = random.Random(123)
    for _ in range(200):
        target = rng.randint(1, 4)
        f = IntPolynomial((1,))
        while f.degree < target:
            f = f * _random_monic(rng, rng.randint(1, 2))
        fa = factor_over_Q(f)
        assert fa.product() == f
        assert math.prod(g.constant ** m for g, m in fa) == f.constant
        for g, _ in fa:
            assert g.is_monic
            assert brute_force_irreducible(g)


def test_factorization_higher_degrees():
    rng = random.Random(321)
    for _ in range(40):
        f = IntPolynomial((1,))
        target = rng.randint(5, 9)
        while f.degree < target:
            f = f * _random_monic(rng, rng.randint(1, 3), -3, 3)
        fa = factor_over_Q(f)
        assert fa.product() == f
    # known irreducibles that force the lifting path
    for coeffs in [(1, 0, -10, 0, 1), (1, 0, 0, 1, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0, 0, 1)]:
        fa = factor_over_Q(IntPolynomial(coeffs))
        assert fa.factors == ((IntPolynomial(coeffs), 1),)
    fa = factor_over_Q(IntPolynomial((-1, 0, 0, 0, 0, 0, 1)))
    assert [f.coeffs for f in fa.distinct()] == [(-1, 1), (1, 1), (1, -1, 1), (1, 1, 1)]


def _sympy_factors(f):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    _, pairs = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
    return sorted((tuple(int(c) for c in reversed(g.all_coeffs())), m) for g, m in pairs)


def test_factorization_matches_sympy():
    """Random products of linear factors, rootless cubics, quartics that
    split into two quadratics and random quartics, with constant terms up
    to 10^15."""
    rng = random.Random(2024)

    def big():
        return rng.choice((-1, 1)) * rng.randint(0, 10 ** rng.randint(1, 15))

    def linear():
        return IntPolynomial((big(), 1))

    def cubic():
        while True:
            g = IntPolynomial((big(), rng.randint(-50, 50), rng.randint(-50, 50), 1))
            if not integer_roots(g):
                return g

    def split_quartic():
        return IntPolynomial((big(), rng.randint(-9, 9), 1)) * IntPolynomial((big(), rng.randint(-9, 9), 1))

    def quartic():
        return IntPolynomial((big(), rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50), 1))

    makers = (linear, linear, cubic, split_quartic, quartic)
    for _ in range(150):
        f = IntPolynomial((1,))
        target = rng.randint(1, 12)
        while f.degree < target:
            g = rng.choice(makers)() ** rng.choice((1, 1, 2))
            if f.degree + g.degree <= 12:
                f = f * g
        fa = factor_over_Q(f)
        assert fa.product() == f
        assert sorted((g.coeffs, m) for g, m in fa) == _sympy_factors(f), f.coeffs


def test_squarefree_decomposition():
    f = poly(1, 1) ** 3 * poly(2, 0, 1) ** 2 * poly(-3, 1)
    parts = squarefree_decomposition(f)
    rebuilt = IntPolynomial((1,))
    for g, mult in parts:
        rebuilt = rebuilt * g ** mult
    assert rebuilt == f
    assert sorted(m for _, m in parts) == [1, 2, 3]


def test_squarefree_decomposition_matches_sympy():
    """Random products, some with repeated factors, and (x - a)(x - a - P)
    with P = 2^31 - 1, squarefree over Q but not modulo P: both the modular
    squarefree test and Yun's algorithm run."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(31)
    cases = []
    for _ in range(60):
        f = poly(1)
        for _ in range(rng.randint(1, 4)):
            g = IntPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(1, 3))] + [1])
            f = f * g ** rng.choice((1, 1, 2, 3))
        cases.append(f)
    for _ in range(20):
        a = rng.randint(-10**6, 10**6)
        cases.append(poly(-a, 1) * poly(-a - (2**31 - 1), 1) * poly(rng.randint(1, 9), 0, 1) ** rng.randint(1, 2))
    for f in cases:
        _, expected = sympy.sqf_list(sympy.Poly(list(reversed(f.coeffs)), x))
        assert sorted((g.coeffs, m) for g, m in squarefree_decomposition(f)) == sorted(
            (tuple(int(c) for c in reversed(g.all_coeffs())), m) for g, m in expected), f.coeffs


def test_factor_ordering_deterministic():
    f = poly(2, 1) * poly(1, 1) * poly(1, 1, 1)
    fa = factor_over_Q(f)
    assert [g.coeffs for g, _ in fa] == [(1, 1), (2, 1), (1, 1, 1)]


# ---------------------------------------------------------------------------
# degeneracy


def test_degeneracy_frozen_examples():
    d = degeneracy_test(factor_over_Q(poly(2, -2, 1)))
    assert d.per_factor[0].gcd == 2
    assert d.per_factor[0].primes == (2,)
    assert not d.separable

    d2 = degeneracy_test(factor_over_Q(poly(-2, -3, 1)))
    assert d2.per_factor[0].gcd == 1
    assert d2.separable

    d3 = degeneracy_test(factor_over_Q(poly(0, 0, 0, 1)))
    row = d3.per_factor[0]
    assert row.factor == poly(0, 1) and row.gcd == 0 and row.all_primes
    assert row.witness_prime == 2
    assert not d3.separable


def test_degeneracy_matches_modp_reduction():
    rng = random.Random(77)
    primes = [p for p in range(2, 101) if all(p % q for q in range(2, p))]
    for _ in range(100):
        f = IntPolynomial((1,))
        while f.degree < rng.randint(1, 4):
            f = f * _random_monic(rng, rng.randint(1, 2))
        res = degeneracy_test(factor_over_Q(f))
        for row in res.per_factor:
            g = row.factor
            for p in primes:
                is_xk = all(c % p == 0 for c in g.coeffs[: g.degree])
                reported = row.all_primes or p in row.primes
                assert is_xk == reported, (g.coeffs, p)
