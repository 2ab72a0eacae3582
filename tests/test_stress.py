"""Stress cases for the exact kernel and the factorization engine: entry
swell, adversarial polynomials, and order minimality at larger moduli."""

import json
import math
import random
import subprocess
import sys

from gbsep.exact import (
    IntMatrix,
    IntPolynomial,
    _mat_mod,
    _mat_pow_mod,
    hnf,
    mod_m_order,
    snf,
)
import pytest

from gbsep.ntheory import _strong_lucas, factorize, is_prime, partial_factorize, primes_upto
from gbsep.poly import factor_over_Q

# psi_12: the least strong pseudoprime to the twelve prime bases 2..37
PSI12 = 318665857834031151167461
# psi_13: the least strong pseudoprime to the thirteen prime bases 2..41
PSI13 = 3317044064679887385961981
# a product of two primes near 10^15: beyond the Pollard rho budget
RHO_HARD = (10 ** 15 + 37) * (10 ** 15 + 91)


def test_normal_forms_with_large_entries():
    rng = random.Random(888)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = IntMatrix([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)])
        h, u = hnf(m)
        assert m @ u == h and abs(u.det()) == 1
        s, uu, vv = snf(m)
        assert uu @ m @ vv == s and abs(uu.det()) == 1 and abs(vv.det()) == 1
        d = [s.rows[i][i] for i in range(n)]
        assert math.prod(d) == abs(m.det())
        for a, b in zip(d, d[1:]):
            assert (b % a == 0) if a else (b == 0)


def test_charpoly_with_large_entries():
    rng = random.Random(889)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = IntMatrix([[rng.randint(-10 ** 5, 10 ** 5) for _ in range(n)] for _ in range(n)])
        cp = m.charpoly()
        assert cp.at_matrix(m) == IntMatrix.zeros(n, n)
        assert cp.constant == ((-1) ** n) * m.det()


def test_adversarial_factorizations():
    f = IntPolynomial((1,))
    for c in [(1, 1), (2, 1), (3, 1), (1, -1), (2, -1), (5, 3)]:
        f = f * IntPolynomial((c[0], c[1], 1))
    cases = [
        f,  # six quadratics: maximal recombination pressure at degree 12
        IntPolynomial((1, 1)) ** 6 * IntPolynomial((2, -2, 1)) ** 3,
        IntPolynomial((1, 1, 1, 1, 1, 1, 1)) * IntPolynomial((1, -1, 1)) * IntPolynomial((-1, 1)) ** 2,
        IntPolynomial((997, 1000003, 1)) * IntPolynomial((-999983, 12345, 1)),
    ]
    for g in cases:
        fa = factor_over_Q(g)
        assert fa.product() == g


def test_degree8_polynomial_reducible_mod_every_prime():
    # splits into quadratics modulo every prime yet is irreducible over Q,
    # so the subset recombination must run to completion
    f = IntPolynomial((576, 0, -960, 0, 352, 0, -40, 0, 1))
    fa = factor_over_Q(f)
    assert fa.factors == ((f, 1),)


def test_mod_m_order_minimality_larger_moduli():
    rng = random.Random(890)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        mod = rng.randint(2, 400)
        r = mod_m_order(m, mod)
        if r is None:
            assert math.gcd(m.det() % mod, mod) != 1
            continue
        checked += 1
        rows = _mat_mod(m.rows, mod)
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert _mat_pow_mod(rows, r, mod) == ident
        for p in factorize(r):
            assert _mat_pow_mod(rows, r // p, mod) != ident
    assert checked > 20


def _cli(argv, seconds):
    """Run the CLI in a child process; a hang fails the test (TimeoutExpired)
    instead of stalling the suite."""
    proc = subprocess.run([sys.executable, "-m", "gbsep.cli", *argv],
                          capture_output=True, text=True, timeout=seconds)
    return proc.returncode, proc.stdout


def test_huge_constant_terms_answer_fast(tmp_path):
    # the characteristic polynomial x^2 - (a+1) x + (a-1) has constant a-1;
    # no step may cost time polynomial in a rather than in its bit size
    for a in (10 ** 14, 10 ** 400):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"rank": 2, "ascending_hnn": [[a, 1], [1, 1]]}))
        code, out = _cli(["analyze", str(path), "--json"], 5)
        assert code == 0
        doc = json.loads(out)
        assert doc["char_poly"] == [a - 1, -(a + 1), 1]
        assert doc["verdicts"]["residually_finite"] == "yes"


def test_strong_pseudoprime_psi12_is_split():
    assert not is_prime(PSI12)
    assert factorize(PSI12) == {399165290221: 1, 798330580441: 1}
    code, out = _cli(["factor", f"[{PSI12},{PSI12},1]", "--json"], 10)
    assert code == 0
    (row,) = json.loads(out)["factors"]
    assert row["degeneracy_gcd"] == PSI12
    assert row["degenerate_primes"] == [399165290221, 798330580441]


def test_strong_pseudoprime_psi13_is_split():
    # a strong pseudoprime to the thirteen prime bases 2..41: the strong
    # Lucas test rejects it
    assert not is_prime(PSI13)
    assert partial_factorize(PSI13) == ({1287836182261: 1, 2575672364521: 1}, 1)


def test_strong_lucas_pseudoprimes():
    # the strong Lucas pseudoprimes (Selfridge parameters) below 2 * 10^5
    # with no prime factor <= 41 (OEIS A217255): the Lucas part alone accepts
    # them, Miller-Rabin rejects them
    pseudo = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
              100127, 113573, 115639, 130139, 158399, 161027, 162133, 176399, 176471, 189419,
              192509, 197801]
    small = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for n in range(43, 200000, 2):
        if all(n % p for p in small):
            assert _strong_lucas(n) == (n in pseudo or is_prime(n)), n
    assert not any(is_prime(n) for n in pseudo)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1980)
    numbers = [rng.getrandbits(rng.randint(80, 120)) | 1 for _ in range(3000)]
    numbers += [int(sympy.nextprime(rng.getrandbits(100))) for _ in range(100)]
    for n in numbers:
        assert is_prime(n) == sympy.isprime(n), n


def test_rho_budget_leaves_hard_composites_unfactored():
    assert partial_factorize(6 * RHO_HARD) == ({2: 1, 3: 1}, RHO_HARD)
    with pytest.raises(ArithmeticError):
        factorize(RHO_HARD)
    # the degeneracy verdict needs only gcd > 1; the witness names the
    # cofactor as unfactored instead of hanging or listing it as a prime
    code, out = _cli(["factor", f"[{RHO_HARD},{RHO_HARD},1]", "--json"], 10)
    assert code == 0
    doc = json.loads(out)
    (row,) = doc["factors"]
    assert row["degeneracy_gcd"] == RHO_HARD
    assert row["degenerate_primes"] == []
    assert row["unfactored_cofactor"] == RHO_HARD
    assert doc["separable_criterion"] is False
    code, out = _cli(["factor", f"[{RHO_HARD},{RHO_HARD},1]"], 10)
    assert code == 0 and f"unfactored {RHO_HARD}" in out


def test_unfactored_cofactor_is_not_reported_as_a_prime(tmp_path):
    # the companion matrix of x^2 + N x + N: css fails with no known prime
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"rank": 2, "ascending_hnn": [[0, -RHO_HARD], [1, -RHO_HARD]]}))
    code, out = _cli(["analyze", str(path), "--json"], 10)
    assert code == 0
    css = json.loads(out)["details"]["cyclic_subgroup_separable"]
    assert css["status"] == "no"
    (failing,) = css["witness"]["failing"]
    assert failing["prime"] is None
    assert failing["unfactored_cofactor"] == RHO_HARD
    (w,) = css["witness"]["nonseparable"]
    assert w["p"] is None
    assert w["unfactored_cofactor"] == RHO_HARD
    assert w["subgroup_generator"] == [RHO_HARD * x for x in w["vector"]]
    code, out = _cli(["analyze", str(path)], 10)
    assert code == 0
    assert f"nonseparable_witness: step 1, unfactored {RHO_HARD}, a = (1, 0)" in out


def test_good_prime_search_is_unbounded():
    # x^2 - (product of the odd primes below 500) is not squarefree modulo
    # any of those primes, so the first good prime is 503
    c = math.prod(primes_upto(500)[1:])
    f = IntPolynomial((-c, 0, 1))
    assert factor_over_Q(f).factors == ((f, 1),)
    g = IntPolynomial((-c * c, 0, 1))
    assert factor_over_Q(g).factors == ((IntPolynomial((-c, 1)), 1), (IntPolynomial((c, 1)), 1))
