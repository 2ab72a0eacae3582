"""Independent cross-check routines used only by the tests: the rank-2
CSS shortcut, the label ratios of a graph's fundamental cycles, the eager
separation-oracle family whose first hit the lazy one must match, the
full-chain css witnesses and the Fraction Gauss-Jordan inverse."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from gbsep.css import (
    AscendingHNN,
    InvariantChain,
    NonSeparableWitness,
    invariant_chain,
    nonseparable_witness,
)
from gbsep.exact import IntMatrix, Lattice
from gbsep.gog import LabeledGraphOfGroups, SpanningTree, require_valid, spanning_tree
from gbsep.ntheory import primes_upto
from gbsep.poly import degeneracy_test, factor_over_Q, integer_roots
from gbsep.quotient import k_subgroup


def n2_shortcut(h: AscendingHNN) -> bool:
    """Rank-2 cross-check: separable iff there is no integer eigenvalue of
    absolute value > 1 and the trace is coprime to d."""
    if h.n != 2:
        raise ValueError("shortcut applies to n = 2 only")
    if any(abs(r) > 1 for r in integer_roots(h.phi.charpoly())):
        return False
    return math.gcd(h.phi.trace(), h.d) == 1


def full_chain_witnesses(h: AscendingHNN) -> tuple[NonSeparableWitness, ...]:
    """css witnesses read off the whole chain that prefers each failing
    factor, at the step that factor heads."""
    deg = degeneracy_test(factor_over_Q(h.phi.charpoly()))
    out = []
    for _, row in deg.failing():
        chain = invariant_chain(h, prefer=row.factor)
        step_index = next(i + 1 for i, s in enumerate(chain.steps) if s.factor == row.factor)
        out.append(nonseparable_witness(h, chain, step_index, row.witness_prime, row.unfactored))
    return tuple(out)


def _fraction_inverse(rows: tuple[tuple[Fraction, ...], ...]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(rows)
    a = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def _ratio_to_base(tree: SpanningTree, v: str) -> Fraction:
    """Product of label_to/label_from along the tree path base -> v."""
    out = Fraction(1)
    while v != tree.base:
        e, forward = tree.parent[v]
        step = Fraction(e.label_to, e.label_from)
        out *= step if forward else 1 / step
        v = e.src if forward else e.dst
    return out


def cycle_ratios(g: LabeledGraphOfGroups) -> tuple[Fraction, ...]:
    """One label ratio per fundamental cycle (non-tree edge, in id order).

    The cycle runs base -> iota(e) through the tree, across e, then
    tau(e) -> base; the ratio multiplies label_to/label_from along it.
    """
    require_valid(g)
    tree = spanning_tree(g)
    out = []
    for e in tree.nontree_edges:
        r = _ratio_to_base(tree, e.src) * Fraction(e.label_to, e.label_from) / _ratio_to_base(tree, e.dst)
        out.append(r)
    return tuple(out)


@lru_cache(maxsize=64)
def eager_family(phi: IntMatrix, chain: InvariantChain, budget: int) -> tuple[Lattice, ...]:
    """Candidate lattices in oracle enumeration order: coprime scales mA by
    increasing m, then K_{p^m,i} by increasing p (then m, then i), then
    pairwise intersections in the induced order.

    The exponent m runs to ceil(log2 budget) for primes dividing d, where the
    eventual-preimage filtration can be deep, and keeps p^m <= budget for the
    other primes (there K_{p^m,i} is close to p^m A and higher powers add
    nothing the coprime scales miss).
    """
    n = phi.n
    d = abs(phi.det())
    log_budget = max(1, (budget - 1).bit_length())
    base: list[Lattice] = []
    seen: set = set()

    def push(lat: Lattice) -> None:
        if lat.basis not in seen:
            seen.add(lat.basis)
            base.append(lat)

    for m in range(2, budget + 1):
        if math.gcd(m, d) == 1:
            push(Lattice.scaled(n, m))
    for p in primes_upto(budget):
        if d % p == 0:
            m_max = log_budget
        else:
            m_max = 1
            while p ** (m_max + 1) <= budget:
                m_max += 1
        for m in range(1, m_max + 1):
            for i in range(chain.length):
                push(k_subgroup(phi, chain, p, m, i))
    out = list(base)
    for a, b in itertools.combinations(range(len(base)), 2):
        lat = base[a].intersect(base[b])
        if lat.basis not in seen:
            seen.add(lat.basis)
            out.append(lat)
    return tuple(out)


def base_family(phi: IntMatrix, chain: InvariantChain, budget: int) -> list[Lattice]:
    """eager_family without its intersections: the coprime scales and the
    K_{p^m,i}. The lazy family must yield exactly these, in this order."""
    n, d = phi.n, abs(phi.det())
    base = [Lattice.scaled(n, m) for m in range(2, budget + 1) if math.gcd(m, d) == 1]
    log_budget = max(1, (budget - 1).bit_length())
    for p in primes_upto(budget):
        m_max = log_budget if d % p == 0 else max(m for m in range(1, budget) if p ** m <= budget)
        base += [k_subgroup(phi, chain, p, m, i) for m in range(1, m_max + 1) for i in range(chain.length)]
    return list(dict.fromkeys(base))  # first occurrence wins, as in the family
