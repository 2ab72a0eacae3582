"""Hypothesis property behind the CRT pruning of the oracle family: an
intersection of two members of coprime index never separates a pair that
neither member separates."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gbsep.css import AscendingHNN, invariant_chain
from gbsep.exact import IntMatrix, quotient_structure
from gbsep.quotient import _family, _in_cyclic_plus_lattice, _index

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

    quiet = [k for k in members if not separates(k)]
    pairs = [(a, b) for i, a in enumerate(quiet) for b in quiet[i + 1:]
             if math.gcd(_index(a), _index(b)) == 1]
    assume(pairs)
    k1, k2 = data.draw(st.sampled_from(pairs))
    assert not separates(k1.intersect(k2))
