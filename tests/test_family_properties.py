"""Hypothesis properties behind the oracle family having no intersection
tier: an intersection of two members of coprime index never separates a
pair that neither member separates, and every p-part of every intersection
contains a base member, so a base member always separates first."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gbsep.css import AscendingHNN, invariant_chain
from gbsep.exact import IntMatrix, Lattice, quotient_structure
from gbsep.ntheory import factorize
from gbsep.quotient import _family, _in_cyclic_plus_lattice

from oracles import base_family, eager_family

entries = st.integers(-4, 4)
vectors = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.tuples(entries, entries, entries, entries), vectors, vectors, st.data())
def test_coprime_intersection_separates_only_through_a_member(rows, g1, g2, data):
    phi = IntMatrix([rows[:2], rows[2:]])
    assume(phi.det() != 0)
    members = list(_family(phi, invariant_chain(AscendingHNN.of(phi)), 12))

    def separates(k):
        return not _in_cyclic_plus_lattice(quotient_structure(k), g1, g2)

    def index(k):
        return quotient_structure(k).size

    quiet = [k for k in members if not separates(k)]
    pairs = [(a, b) for i, a in enumerate(quiet) for b in quiet[i + 1:]
             if math.gcd(index(a), index(b)) == 1]
    assume(pairs)
    k1, k2 = data.draw(st.sampled_from(pairs))
    assert not separates(k1.intersect(k2))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 3).flatmap(lambda n: st.lists(entries, min_size=n * n, max_size=n * n)),
       st.integers(8, 20))
def test_every_p_part_of_an_intersection_contains_a_base_member(flat, budget):
    n = math.isqrt(len(flat))
    phi = IntMatrix([flat[i * n:(i + 1) * n] for i in range(n)])
    assume(phi.det() != 0)
    chain = invariant_chain(AscendingHNN.of(phi))
    base = base_family(phi, chain, budget)
    eager = eager_family(phi, chain, budget)
    assert list(eager[:len(base)]) == base
    for inter in eager[len(base):]:
        for p, v in factorize(quotient_structure(inter).exponent).items():
            p_part = inter.add(Lattice.scaled(n, p ** v))
            assert any(p_part.contains_lattice(k) for k in base), (phi, budget, inter.basis, p)
