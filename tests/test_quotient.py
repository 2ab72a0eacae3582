import math
import random
import subprocess
import sys

import pytest

from gbsep.css import AscendingHNN, css_decide, invariant_chain
from gbsep.exact import IntMatrix, Lattice, image, quotient_structure
from gbsep import quotient
from gbsep.ntheory import factorize
from gbsep.quotient import (
    CertificateError,
    FiniteQuotientSpec,
    NormalFormElement,
    NotASeparationInstance,
    coprime_quotient,
    element_order,
    k_subgroup,
    make_quotient,
    nf_in_cyclic,
    nf_inv,
    nf_mul,
    nf_pow,
    normal_form,
    separate_cyclic,
    separate_in_A,
    twisted_power_sum,
    _family,
    _in_cyclic_plus_lattice,
)

from conftest import C1, C2, C3, C4, C5
from oracles import base_family, eager_family


def chain_of(phi):
    return invariant_chain(AscendingHNN.of(phi))


def random_nonsingular(rng, n, lo=-4, hi=4):
    while True:
        m = IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


# ---------------------------------------------------------------------------
# twisted power sums


def test_twisted_power_sum_examples():
    assert twisted_power_sum(C3, (1, 0), 1, 2) == (2, 2)
    assert twisted_power_sum(C3, (3, -4), 2, 1) == (3, -4)
    assert twisted_power_sum(C3, (0, 0), 1, 7) == (0, 0)


def test_twisted_power_sum_matches_group_power():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 3)
        phi = random_nonsingular(rng, n)
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        i = rng.randint(1, 3)
        m = rng.randint(1, 5)
        g = NormalFormElement(0, a, i)
        p = nf_pow(phi, g, m)
        assert p == normal_form(phi, 0, twisted_power_sum(phi, a, i, m), i * m)


# ---------------------------------------------------------------------------
# quotient construction


def test_make_quotient_examples():
    s = make_quotient(C2, Lattice.scaled(2, 3))
    assert s.r == 8
    assert make_quotient(C3, Lattice.full(2)).r == 1
    assert make_quotient(C3, Lattice.scaled(2, 2)) is None


def test_make_quotient_rejects_noninvariant():
    k = Lattice.from_columns(2, [(1, 0), (0, 5)])
    assert not k.contains_lattice(image(C3, k))
    with pytest.raises(ValueError):
        make_quotient(C3, k)


def test_coprime_quotient_examples():
    s = coprime_quotient(C2, 3)
    assert s.r == 8 and s.lattice == Lattice.scaled(2, 3)
    assert coprime_quotient(C2, 1).r == 1
    with pytest.raises(ValueError):
        coprime_quotient(C3, 2)


def test_spec_hypotheses_checked_at_build():
    # phi-invariance and the exponent condition are validated
    with pytest.raises(ValueError):
        FiniteQuotientSpec.build(C2, Lattice.scaled(2, 3), 3)  # 3 not a multiple of 8
    spec = FiniteQuotientSpec.build(C2, Lattice.scaled(2, 3), 16)  # non-minimal is fine
    assert spec.r == 16


def test_remark_higher_exponents():
    # a - phi^(x r)(a) stays in K for x = 1..5
    rng = random.Random(32)
    for _ in range(25):
        n = rng.randint(1, 3)
        phi = random_nonsingular(rng, n)
        d = abs(phi.det())
        m = next(m for m in range(2, 30) if math.gcd(m, d) == 1)
        spec = coprime_quotient(phi, m)
        for x in range(1, 6):
            px = phi ** (x * spec.r)
            for j in range(n):
                unit = tuple(int(i == j) for i in range(n))
                diff = tuple(u - v for u, v in zip(unit, px.apply(unit)))
                assert spec.lattice.contains(diff)


# ---------------------------------------------------------------------------
# the K_{p^m,i} family


def test_k_subgroup_examples():
    ch2 = chain_of(C2)
    assert k_subgroup(C2, ch2, 2, 1, 0) == Lattice.full(2)  # C2^2 = 0 mod 2

    ch3 = chain_of(C3)
    assert k_subgroup(C3, ch3, 2, 1, 0).basis == ((2, 0), (0, 1))

    # p coprime to d with invertible reduction: plain p^m A
    assert k_subgroup(C3, ch3, 3, 2, 0) == Lattice.scaled(2, 9)


def test_k_subgroup_properties_random():
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 3)
        phi = random_nonsingular(rng, n)
        chain = chain_of(phi)
        p = rng.choice((2, 3, 5))
        m = rng.randint(1, 2)
        i = rng.randrange(chain.length)
        k = k_subgroup(phi, chain, p, m, i)
        idx = k.index_in(Lattice.full(n))
        assert idx is not None
        while idx % p == 0:
            idx //= p
        assert idx == 1  # index is a power of p
        assert k.contains_lattice(image(phi, k))  # phi-invariant
        # filtration compatibility: p^(m-1) a in K_{p^m,i}  =>  a in K_{p,i}
        k1 = k_subgroup(phi, chain, p, 1, i)
        for _ in range(8):
            a = tuple(rng.randint(-6, 6) for _ in range(n))
            if k.contains(tuple(p ** (m - 1) * x for x in a)):
                assert k1.contains(a)


def test_element_order_examples():
    s = make_quotient(C2, Lattice.scaled(2, 3))
    assert element_order(s, (1, 0)) == 3
    assert element_order(s, (3, 0)) == 1
    ch3 = chain_of(C3)
    k = k_subgroup(C3, ch3, 2, 1, 0)
    s2 = make_quotient(C3, k)
    assert element_order(s2, (1, 0)) == 2


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_reduction():
    # t^-1 (C3 a) t == a
    assert normal_form(C3, 1, C3.apply((1, 0)), 1) == NormalFormElement(0, (1, 0), 0)
    assert normal_form(C3, 2, (0, 0), 3) == NormalFormElement(0, (0, 0), 1)
    # (0,1) is not in the image of C3 (index-2 image lattice): stays put
    assert normal_form(C3, 1, (0, 1), 1) == NormalFormElement(1, (0, 1), 1)


def test_nf_group_laws():
    rng = random.Random(34)
    for _ in range(40):
        n = rng.randint(1, 2)
        phi = random_nonsingular(rng, n)
        xs = [
            normal_form(phi, rng.randint(0, 2), tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(0, 2))
            for _ in range(3)
        ]
        a, b, c = xs
        assert nf_mul(phi, nf_mul(phi, a, b), c) == nf_mul(phi, a, nf_mul(phi, b, c))
        ident = NormalFormElement(0, (0,) * n, 0)
        assert nf_mul(phi, a, nf_inv(phi, a)) == ident
        assert nf_mul(phi, nf_inv(phi, a), a) == ident
        assert nf_pow(phi, a, 3) == nf_mul(phi, a, nf_mul(phi, a, a))


def test_nf_in_cyclic():
    t = NormalFormElement(0, (0, 0), 1)
    a = NormalFormElement(0, (1, 0), 0)
    assert nf_in_cyclic(C3, t, NormalFormElement(0, (0, 0), 2))
    assert not nf_in_cyclic(C3, t, a)
    assert nf_in_cyclic(C3, a, NormalFormElement(0, (2, 0), 0))
    assert not nf_in_cyclic(C3, a, NormalFormElement(0, (1, 1), 0))
    # conjugates of multiples: t^-1 (2,4)t = (2,0)... via phi arithmetic
    g = normal_form(C3, 1, (2, 4), 1)
    assert nf_in_cyclic(C3, a, g) == nf_in_cyclic(C3, a, NormalFormElement(0, (2, 0), 0))


# ---------------------------------------------------------------------------
# separation oracle in A


def test_separate_in_A_examples():
    ch3 = chain_of(C3)
    spec = separate_in_A(C3, ch3, (2, 0), (1, 0), 50)
    assert spec.lattice.basis == ((2, 0), (0, 1)) and spec.r == 1

    ch2 = chain_of(C2)
    assert separate_in_A(C2, ch2, (2, 0), (1, 0), 50) is None

    with pytest.raises(NotASeparationInstance):
        separate_in_A(C3, ch3, (1, 0), (3, 0), 50)


def test_separate_in_A_certificate_is_sound():
    rng = random.Random(35)
    hits = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        phi = random_nonsingular(rng, n)
        chain = chain_of(phi)
        g1 = tuple(rng.randint(-3, 3) for _ in range(n))
        g2 = tuple(rng.randint(-3, 3) for _ in range(n))
        try:
            spec = separate_in_A(phi, chain, g1, g2, 20)
        except NotASeparationInstance:
            continue
        if spec is None:
            continue
        hits += 1
        # brute recheck: g2 - k g1 never lands in K for k below the g1 order
        q = element_order(spec, g1)
        for k in range(q):
            diff = tuple(a - k * b for a, b in zip(g2, g1))
            assert not spec.lattice.contains(diff)
    assert hits > 10


def _eager_first_hit(phi, chain, g1, g2, budget):
    """First member of the eager family whose lattice separates g2 from <g1>."""
    for k in eager_family(phi, chain, budget):
        if not _in_cyclic_plus_lattice(quotient_structure(k), g1, g2):
            spec = make_quotient(phi, k)
            return spec.lattice.basis, spec.r
    return None


def test_lazy_family_matches_eager_first_hit():
    # phi drawn as in criterion 9; pairs: the css-no witness, multiples of one
    # vector (separable when x is prime to d) and unrelated vectors
    rng = random.Random(37)
    cases = hits = 0
    while cases < 160:
        n = rng.choice((2, 3))
        while True:
            phi = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if phi.det() != 0:
                break
        h = AscendingHNN.of(phi)
        chain = invariant_chain(h)
        verdict = css_decide(h)
        budget = rng.randint(12, 30)
        pairs = [(w.subgroup_generator, w.vector) for w in verdict.nonseparable_witnesses]
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(a):
            x = rng.randint(2, 9)
            pairs.append((tuple(x * c for c in a), tuple(rng.choice([y for y in range(1, 20) if y % x]) * c for c in a)))
        pairs.append((tuple(rng.randint(-3, 3) for _ in range(n)), tuple(rng.randint(-3, 3) for _ in range(n))))
        for g1, g2 in pairs:
            try:
                spec = separate_in_A(phi, chain, g1, g2, budget)
            except NotASeparationInstance:
                continue
            cases += 1
            got = None if spec is None else (spec.lattice.basis, spec.r)
            assert got == _eager_first_hit(phi, chain, g1, g2, budget), (phi, g1, g2, budget)
            if spec is not None:
                hits += 1
                for q in factorize(spec.r):  # r is the least valid exponent
                    with pytest.raises(ValueError):
                        FiniteQuotientSpec.build(phi, spec.lattice, spec.r // q)
    assert 40 < hits < cases


def test_family_resumes_where_the_last_query_stopped():
    phi, budget = C2, 30
    chain = chain_of(phi)
    _family.cache_clear()
    family = _family(phi, chain, budget)
    spec = separate_in_A(phi, chain, (3, 0), (1, 0), budget)  # separable: stops early
    assert spec is not None
    assert _family(phi, chain, budget) is family
    partial = len(family._built)
    assert separate_in_A(phi, chain, (2, 0), (1, 0), budget) is None  # drains the family
    assert len(family._built) > partial
    _family.cache_clear()
    fresh = list(_family(phi, chain, budget))
    assert list(family) == fresh == family._built == base_family(phi, chain, budget)
    rng = random.Random(38)
    examples = [(C1, 20), (C3, 24), (C4, 16), (C5, 20)]
    examples += [(random_nonsingular(rng, rng.choice((2, 3))), rng.randint(12, 20)) for _ in range(12)]
    for phi, budget in examples:
        assert list(_family(phi, chain_of(phi), budget)) == base_family(phi, chain_of(phi), budget)
    # bench/run.py empties every functools cache of gbsep between cold requests
    assert callable(getattr(_family, "cache_clear", None))


def test_family_survives_an_error_while_building(monkeypatch):
    # the first hit of this query is the first K_{p^m,i}, built after the scales
    phi, budget, g1, g2 = C1, 20, (2, 2), (1, 1)
    chain = chain_of(phi)
    _family.cache_clear()
    calls = []

    def failing_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return k_subgroup(*args)

    monkeypatch.setattr(quotient, "k_subgroup", failing_once)
    with pytest.raises(RuntimeError, match="injected"):
        separate_in_A(phi, chain, g1, g2, budget)
    spec = separate_in_A(phi, chain, g1, g2, budget)
    assert spec is not None
    assert (spec.lattice.basis, spec.r) == _eager_first_hit(phi, chain, g1, g2, budget)
    assert list(_family(phi, chain, budget)) == base_family(phi, chain, budget)
    _family.cache_clear()


def test_certificate_check_survives_optimize():
    # a tampered oracle answer must raise even when python -O strips asserts
    code = """
import sys
from gbsep import quotient
from gbsep.exact import IntMatrix, Lattice
assert False, "asserts are live"  # stripped under -O
phi = IntMatrix([[1, 2], [2, 2]])
quotient.separate_in_A = lambda phi, chain, g1, g2, budget: quotient.FiniteQuotientSpec.build(phi, Lattice.full(2), 1)
a = quotient.NormalFormElement(0, (2, 0), 0)
b = quotient.NormalFormElement(0, (1, 0), 0)
try:
    quotient.separate_cyclic(phi, a, b, 50)
except quotient.CertificateError as e:
    print("CertificateError", e)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CertificateError certificate failed verification")
    assert issubclass(CertificateError, ArithmeticError)


# ---------------------------------------------------------------------------
# general cyclic separation


def test_separate_cyclic_examples():
    t = NormalFormElement(0, (0, 0), 1)
    a = NormalFormElement(0, (1, 0), 0)
    spec = separate_cyclic(C3, t, a, 50)
    assert spec is not None and spec.separates(t, a)

    x1 = NormalFormElement(0, (1, 0), 2)
    x2 = NormalFormElement(0, (0, 1), 3)
    spec2 = separate_cyclic(C3, x1, x2, 50)
    assert spec2.lattice == Lattice.full(2) and spec2.r == 2

    spec3 = separate_cyclic(C3, NormalFormElement(0, (2, 0), 0), NormalFormElement(0, (1, 0), 0), 50)
    assert spec3.lattice.basis == ((2, 0), (0, 1))

    with pytest.raises(NotASeparationInstance):
        separate_cyclic(C3, x1, nf_pow(C3, x1, 3), 50)


def test_separate_cyclic_t_exponent_mismatch():
    x1 = NormalFormElement(0, (1, 1), 0)  # in A
    x2 = NormalFormElement(1, (1, 0), 3)  # t-exponent 2
    spec = separate_cyclic(C3, x1, x2, 50)
    assert spec.lattice == Lattice.full(2) and spec.r == 3


def test_separate_cyclic_random_verified():
    rng = random.Random(36)
    separated = 0
    for _ in range(60):
        n = rng.randint(1, 2)
        phi = random_nonsingular(rng, n, -3, 3)
        x1 = normal_form(phi, rng.randint(0, 1), tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(0, 2))
        x2 = normal_form(phi, rng.randint(0, 1), tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(0, 2))
        try:
            spec = separate_cyclic(phi, x1, x2, 30)
        except NotASeparationInstance:
            continue
        if spec is not None:
            separated += 1
            assert spec.separates(x1, x2)  # redundant with the internal check
    assert separated > 15


def test_separate_cyclic_conjugates_of_hyperbolic():
    # x1 = t^-1 (a t^2) t with a outside the image of phi, x2 in A
    phi = C3
    x1 = normal_form(phi, 1, (1, 0), 3)
    x2 = NormalFormElement(0, (0, 1), 0)
    spec = separate_cyclic(phi, x1, x2, 50)
    assert spec is not None
    assert spec.separates(x1, x2)
