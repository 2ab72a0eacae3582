"""Independent cross-check routines used only by the tests: the rank-2
CSS shortcut and the label ratios of a graph's fundamental cycles."""

import math
from fractions import Fraction

from gbsep.css import AscendingHNN
from gbsep.gog import LabeledGraphOfGroups, SpanningTree, require_valid, spanning_tree
from gbsep.poly import integer_roots


def n2_shortcut(h: AscendingHNN) -> bool:
    """Rank-2 cross-check: separable iff there is no integer eigenvalue of
    absolute value > 1 and the trace is coprime to d."""
    if h.n != 2:
        raise ValueError("shortcut applies to n = 2 only")
    if any(abs(r) > 1 for r in integer_roots(h.phi.charpoly())):
        return False
    return math.gcd(h.phi.trace(), h.d) == 1


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
