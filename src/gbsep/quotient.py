"""Finite-quotient machinery for ascending HNN extensions of Z^n.

A full-rank phi-invariant sublattice K together with a compatible exponent r
determines the finite-index normal subgroup <K, t^r>; the quotient is the
semidirect product (Z^n/K) x| Z/r with t acting by the induced map. This
module builds such quotients (coprime-scale lattices mA and the eventual
preimage family K_{p^m,i}), computes element orders, and runs the budgeted
separation oracle for cyclic subgroups.

A "none" from the oracle means no separating quotient was found within the
budget; it is evidence, not proof, of non-separability.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator

from .css import AscendingHNN, InvariantChain, invariant_chain
from .exact import (
    CertificateError,
    IntMatrix,
    Lattice,
    QuotientStructure,
    RatMatrix,
    _induced_order,
    _mat_mod,
    _mat_pow_mod,
    image,
    mod_m_order,
    preimage,
    quotient_structure,
)
from .ntheory import binary_power, primes_upto


class NotASeparationInstance(ValueError):
    """The element to separate already lies in the cyclic subgroup."""


# ---------------------------------------------------------------------------
# normal forms t^-i a t^j


@dataclass(frozen=True)
class NormalFormElement:
    """t^-i a t^j with i, j >= 0, fully reduced (no i,j > 0 with a in phi(Z^n))."""

    i: int
    vector: tuple[int, ...]
    j: int

    @property
    def t_exponent(self) -> int:
        return self.j - self.i

    @property
    def is_identity(self) -> bool:
        return self.i == 0 and self.j == 0 and not any(self.vector)


def preimage_point(phi: IntMatrix, v) -> tuple[int, ...] | None:
    """The integer solution x of phi x = v (phi nonsingular), or None."""
    inv = RatMatrix(phi).inverse()
    x = inv.num.apply(v)
    if any(c % inv.den for c in x):
        return None
    return tuple(c // inv.den for c in x)


def normal_form(phi: IntMatrix, i: int, a, j: int) -> NormalFormElement:
    """Canonical form of t^-i a t^j: strip phi-preimages while both exponents
    are positive."""
    if i < 0 or j < 0:
        raise ValueError("exponents must be nonnegative")
    vec = tuple(int(x) for x in a)
    while i > 0 and j > 0:
        b = preimage_point(phi, vec)
        if b is None:
            break
        vec = b
        i -= 1
        j -= 1
    return NormalFormElement(i, vec, j)


def nf_mul(phi: IntMatrix, x: NormalFormElement, y: NormalFormElement) -> NormalFormElement:
    if x.j >= y.i:
        k = x.j - y.i
        vec = tuple(p + q for p, q in zip(x.vector, (phi ** k).apply(y.vector)))
        return normal_form(phi, x.i, vec, k + y.j)
    k = y.i - x.j
    vec = tuple(p + q for p, q in zip((phi ** k).apply(x.vector), y.vector))
    return normal_form(phi, x.i + k, vec, y.j)


def nf_inv(phi: IntMatrix, x: NormalFormElement) -> NormalFormElement:
    return normal_form(phi, x.j, tuple(-v for v in x.vector), x.i)


def nf_pow(phi: IntMatrix, x: NormalFormElement, k: int) -> NormalFormElement:
    if k < 0:
        return nf_pow(phi, nf_inv(phi, x), -k)
    return binary_power(x, k, partial(nf_mul, phi), NormalFormElement(0, (0,) * phi.n, 0))


def nf_conjugate_t(phi: IntMatrix, x: NormalFormElement, k: int) -> NormalFormElement:
    """t^k x t^-k for k >= 0."""
    if k < 0:
        raise ValueError("conjugation exponent must be nonnegative")
    tk = NormalFormElement(0, (0,) * phi.n, k)
    tmk = NormalFormElement(k, (0,) * phi.n, 0)
    return nf_mul(phi, nf_mul(phi, tk, x), tmk)


def _scalar_multiple(target, base) -> int | None:
    """Integer k with target = k * base, or None."""
    k = None
    for t, b in zip(target, base):
        if b == 0:
            if t != 0:
                return None
            continue
        q, r = divmod(t, b)
        if r:
            return None
        if k is None:
            k = q
        elif k != q:
            return None
    if k is None:
        return 0 if not any(target) else None
    return k


def nf_in_cyclic(phi: IntMatrix, gen: NormalFormElement, x: NormalFormElement) -> bool:
    """Exact membership of x in <gen>."""
    if x.is_identity:
        return True
    eg, ex = gen.t_exponent, x.t_exponent
    if eg != 0:
        if ex % eg:
            return False
        return nf_pow(phi, gen, ex // eg) == x
    if ex != 0:
        return False
    if gen.is_identity:
        return False
    depth = max(gen.i, x.i)
    gv = (phi ** (depth - gen.i)).apply(gen.vector)
    xv = (phi ** (depth - x.i)).apply(x.vector)
    return _scalar_multiple(xv, gv) is not None


# ---------------------------------------------------------------------------
# finite quotients <K, t^r>


def _pow_apply_mod(phi: IntMatrix, e: int, v, modulus: int) -> tuple[int, ...]:
    """phi^e v reduced mod modulus*Z^n (enough for membership questions mod K
    whenever modulus is a multiple of the quotient exponent)."""
    if modulus == 1:
        return (0,) * phi.n
    m = _mat_pow_mod(_mat_mod(phi.rows, modulus), e, modulus)
    return tuple(sum(r * x for r, x in zip(row, v)) % modulus for row in m)


@dataclass(frozen=True)
class FiniteQuotientSpec:
    """Data for the finite-index normal subgroup <K, t^r>.

    K is full rank with phi(K) < K and a - phi^r(a) in K for all a; the
    quotient group is (Z^n/K) x| Z/r of order structure.size * r.
    """

    phi: IntMatrix
    lattice: Lattice
    r: int
    structure: QuotientStructure

    @classmethod
    def build(cls, phi: IntMatrix, k: Lattice, r: int) -> "FiniteQuotientSpec":
        if not k.is_full_rank:
            raise ValueError("K must have full rank")
        if r < 1:
            raise ValueError("r must be positive")
        if not k.contains_lattice(image(phi, k)):
            raise ValueError("K is not phi-invariant")
        qs = quotient_structure(k)
        e = qs.exponent
        for j in range(phi.n):
            unit = tuple(int(i == j) for i in range(phi.n))
            shifted = _pow_apply_mod(phi, r, unit, e)
            if any(qs.coords(tuple(u - s for u, s in zip(unit, shifted)))):
                raise ValueError("a - phi^r(a) escapes K for a basis vector")
        return cls(phi, k, r, qs)

    @property
    def group_order(self) -> int:
        return self.structure.size * self.r

    def image_of(self, x: NormalFormElement) -> tuple[tuple[int, ...], int]:
        """Image of t^-i a t^j in (Z^n/K) x| Z/r (t bar acts by the induced map,
        which has order dividing r)."""
        e = (-x.i) % self.r
        vec = _pow_apply_mod(self.phi, e, x.vector, self.structure.exponent)
        return self.structure.coords(vec), (x.j - x.i) % self.r

    def quot_mul(self, a, b):
        va, ea = a
        vb, eb = b
        shifted = self.structure.coords(
            _pow_apply_mod(self.phi, ea, vb, self.structure.exponent)
        )
        addv = tuple((x + y) % d for x, y, d in zip(va, shifted, self.structure.invariant_factors))
        return addv, (ea + eb) % self.r

    def separates(self, x1: NormalFormElement, x2: NormalFormElement) -> bool:
        """True iff the image of x2 avoids the cyclic subgroup generated by
        the image of x1 in the finite quotient."""
        ident = (self.structure.coords((0,) * self.phi.n), 0)
        g = self.image_of(x1)
        target = self.image_of(x2)
        seen = {ident}
        cur = ident
        for _ in range(self.group_order + 1):
            cur = self.quot_mul(cur, g)
            if cur == ident:
                break
            seen.add(cur)
        return target not in seen


def make_quotient(phi: IntMatrix, k: Lattice) -> FiniteQuotientSpec | None:
    """Quotient spec for a full-rank phi-invariant K, with r the least valid
    exponent; None when the induced map on Z^n/K is not bijective (no valid
    exponent exists then)."""
    if not k.is_full_rank:
        raise ValueError("K must have full rank")
    if not k.contains_lattice(image(phi, k)):
        raise ValueError("K is not phi-invariant")
    full = Lattice.full(phi.n)
    if image(phi, full).add(k) != full:
        return None  # induced map not surjective, hence not bijective
    qs = quotient_structure(k)
    return FiniteQuotientSpec.build(phi, k, _induced_order(phi, qs))


def coprime_quotient(phi: IntMatrix, m: int) -> FiniteQuotientSpec:
    """Quotient with K = mA; requires gcd(m, |det phi|) = 1 so the induced map
    is an automorphism of (Z/m)^n."""
    d = abs(phi.det())
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return FiniteQuotientSpec.build(phi, Lattice.full(phi.n), 1)
    if math.gcd(m, d) != 1:
        raise ValueError(f"m = {m} shares a factor with d = {d}")
    r = mod_m_order(phi, m)
    if r is None:
        raise CertificateError(f"phi has no order modulo {m} although gcd({m}, {d}) = 1")
    return FiniteQuotientSpec.build(phi, Lattice.scaled(phi.n, m), r)


def twisted_power_sum(phi: IntMatrix, a, i: int, m: int) -> tuple[int, ...]:
    """a + phi^i(a) + ... + phi^((m-1)i)(a): the A-part of (a t^i)^m."""
    if i < 1 or m < 1:
        raise ValueError("exponents must be positive")
    step = phi ** i
    acc = tuple(int(x) for x in a)
    out = acc
    for _ in range(m - 1):
        acc = step.apply(acc)
        out = tuple(x + y for x, y in zip(out, acc))
    return out


def k_subgroup(phi: IntMatrix, chain: InvariantChain, p: int, m: int, i: int) -> Lattice:
    """K_{p^m, i} = {a : phi^j(a) in A_i + p^m A for some j >= 0}.

    The iterated preimages of A_i + p^m A form an ascending lattice chain in
    Z^n, so the union is reached at the first repeat.
    """
    if not (0 <= i < chain.length):
        raise ValueError("chain index out of range")
    if m < 1:
        raise ValueError("m must be positive")
    cur = chain.lattice(i).add(Lattice.scaled(phi.n, p ** m))
    while True:
        nxt = preimage(phi, cur)
        if nxt == cur:
            return cur
        cur = nxt


def element_order(spec: FiniteQuotientSpec, a) -> int:
    """Order of a + K in Z^n/K (= the order of a in G/<K, t^r>)."""
    return spec.structure.order(a)


# ---------------------------------------------------------------------------
# the separation oracle


def _in_cyclic_plus_lattice(qs: QuotientStructure, g1, g2) -> bool:
    """Does g2 lie in <g1> + K?  Coordinatewise congruences k*c1 = c2 merged
    by CRT; no loop over k."""
    c1 = qs.transform.apply(g1)
    c2 = qs.transform.apply(g2)
    residue, modulus = 0, 1
    for a, b, d in zip(c1, c2, qs.invariant_factors):
        if d == 1:
            continue
        a %= d
        b %= d
        g = math.gcd(a, d)
        if b % g:
            return False
        dd = d // g
        k0 = (b // g) * pow(a // g, -1, dd) % dd if dd > 1 else 0
        gg = math.gcd(modulus, dd)
        if (k0 - residue) % gg:
            return False
        lcm = modulus // gg * dd
        if dd > gg:
            mult = ((k0 - residue) // gg) * pow(modulus // gg, -1, dd // gg) % (dd // gg)
            residue = residue + modulus * mult
        modulus = lcm
        residue %= modulus
    return True


class _LazyFamily:
    """The oracle family of one (phi, chain, budget), built on demand.

    Iterating replays the members built so far, then pulls new ones from the
    member generator, so a query that hits early builds only a prefix, and
    the next query on the same family resumes where the last one stopped.
    """

    def __init__(self, make_members: Callable[[], Iterator[Lattice]]):
        self._make = make_members
        self._built: list[Lattice] = []
        self._members = make_members()

    def __iter__(self) -> Iterator[Lattice]:
        i = 0
        while True:
            if i == len(self._built):
                try:
                    lat = next(self._members, None)
                except BaseException:
                    # a generator that raised is finished and would read as
                    # drained: continue from a fresh one past the built prefix
                    self._members = itertools.islice(self._make(), len(self._built), None)
                    raise
                if lat is None:
                    return
                self._built.append(lat)
            yield self._built[i]
            i += 1


def _family_members(phi: IntMatrix, chain: InvariantChain, budget: int) -> Iterator[Lattice]:
    d = abs(phi.det())
    log_budget = max(1, (budget - 1).bit_length())
    seen: set = set()

    def candidates() -> Iterator[Lattice]:
        for m in range(2, budget + 1):
            if math.gcd(m, d) == 1:
                yield Lattice.scaled(phi.n, m)
        for p in primes_upto(budget):
            if d % p == 0:
                m_max = log_budget
            else:
                m_max = 1
                while p ** (m_max + 1) <= budget:
                    m_max += 1
            for m in range(1, m_max + 1):
                for i in range(chain.length):
                    yield k_subgroup(phi, chain, p, m, i)

    for lat in candidates():
        if lat.basis not in seen:
            seen.add(lat.basis)
            yield lat


@lru_cache(maxsize=64)
def _family(phi: IntMatrix, chain: InvariantChain, budget: int) -> _LazyFamily:
    """Candidate lattices in oracle order, built lazily and memoised: coprime
    scales mA by increasing m, then K_{p^m,i} by increasing p (then m, then
    i), skipping any lattice met before.

    The exponent m runs to ceil(log2 budget) for primes dividing d, where the
    eventual-preimage filtration can be deep, and keeps p^m <= budget for the
    other primes (there K_{p^m,i} is close to p^m A and higher powers add
    nothing the coprime scales miss).

    Intersections of two members are not candidates: none is ever the first
    separating lattice. Separation is monotone: if K < K' and K' separates,
    so does K. By CRT, I = K1 n K2 separates only if one of its p-parts
    I + p^v Z^n does (a cyclic subgroup of a product of groups of coprime
    order splits), and that p-part is the intersection of the p-parts of K1
    and K2. The p-part of mA is p^v A with p^v exactly dividing m, a member;
    K_{p^m,i} is its own p-part. Two scales meet in p^max(v,v') A, a member.
    Two members of one prime meet in a lattice containing
    K_{p^max(m,m'), min(i,i')}, since the chain ascends and A_i + p^m A
    shrinks as m grows; it is a member. For p^v A n K_{p^k,i}, p does not
    divide d, so K_{p^k,i} = A_i + p^k A and the intersection contains
    p^max(v,k) A, a member. So every separating p-part contains a member,
    which separates too and is scanned before any intersection would be: the
    first hit is unchanged.
    """
    return _LazyFamily(partial(_family_members, phi, chain, budget))


def separate_in_A(phi: IntMatrix, chain: InvariantChain, g1, g2, budget: int = 50) -> FiniteQuotientSpec | None:
    """Find a quotient whose lattice K has g2 outside <g1> + K (then g2 avoids
    <g1><K, t^r>); first hit in family order, None when the family is spent."""
    g1 = tuple(int(x) for x in g1)
    g2 = tuple(int(x) for x in g2)
    if _scalar_multiple(g2, g1) is not None:
        raise NotASeparationInstance("g2 is a multiple of g1")
    for k in _family(phi, chain, budget):
        qs = quotient_structure(k)
        if not _in_cyclic_plus_lattice(qs, g1, g2):
            spec = make_quotient(phi, k)
            if spec is None:
                raise CertificateError("family member with non-bijective induced map")
            return spec
    return None


def _hyperbolic_vs_A(phi: IntMatrix, a, i: int, b, budget: int) -> FiniteQuotientSpec | None:
    """Quotient <K, t^(i*l*q*r)> separating <a t^i> from the nonzero vector b:
    K = mA for the first coprime scale missing b, l the induced-map order,
    q the order of the twisted power sum a_l in A/K."""
    d = abs(phi.det())
    chosen = None
    for m in range(2, budget + 1):
        if math.gcd(m, d) == 1 and any(x % m for x in b):
            chosen = m
            break
    if chosen is None:
        return None
    start = coprime_quotient(phi, chosen)
    l = start.r
    a_l = twisted_power_sum(phi, a, i, l)
    q = element_order(start, a_l)
    return FiniteQuotientSpec.build(phi, start.lattice, i * l * q * start.r)


def separate_cyclic(
    phi: IntMatrix,
    x1: NormalFormElement,
    x2: NormalFormElement,
    budget: int = 50,
    chain: InvariantChain | None = None,
) -> FiniteQuotientSpec | None:
    """Separate the cyclic subgroup <x1> from x2 by a finite quotient.

    Normalizes by t-conjugation, splits on t-exponents (mismatches fall to
    <A, t^s> quotients), runs the twisted-power-sum construction when x1 is
    hyperbolic, and defers to separate_in_A when both elements sit in A.
    The returned spec is verified against the original elements; None means
    the budget ran out (not a disproof).
    """
    n = phi.n
    x1 = normal_form(phi, x1.i, x1.vector, x1.j)
    x2 = normal_form(phi, x2.i, x2.vector, x2.j)
    if nf_in_cyclic(phi, x1, x2):
        raise NotASeparationInstance("x2 lies in <x1>")

    def finish(spec: FiniteQuotientSpec | None) -> FiniteQuotientSpec | None:
        if spec is not None and not spec.separates(x1, x2):
            raise CertificateError("certificate failed verification")
        return spec

    e1, e2 = x1.t_exponent, x2.t_exponent
    if e1 == 0:
        if e2 != 0:
            return finish(FiniteQuotientSpec.build(phi, Lattice.full(n), abs(e2) + 1))
        depth = max(x1.i, x2.i)
        v1 = (phi ** (depth - x1.i)).apply(x1.vector)
        v2 = (phi ** (depth - x2.i)).apply(x2.vector)
        if chain is None:
            chain = invariant_chain(AscendingHNN.of(phi))
        return finish(separate_in_A(phi, chain, v1, v2, budget))

    y1 = x1 if e1 > 0 else nf_inv(phi, x1)
    y2 = x2
    # bring y1 to the shape a * t^i (conjugating both keeps separability)
    shift = y1.i
    y1 = nf_conjugate_t(phi, y1, shift)
    y2 = nf_conjugate_t(phi, y2, shift)
    if y2.t_exponent < 0:
        y2 = nf_inv(phi, y2)
    # bring y2 to the shape b * t^j; y1 stays in A * t^i
    shift2 = y2.i
    y1 = nf_conjugate_t(phi, y1, shift2)
    y2 = nf_conjugate_t(phi, y2, shift2)
    i = y1.t_exponent
    j = y2.t_exponent
    if not (y1.i == 0 and y2.i == 0 and i > 0 and j >= 0):
        raise CertificateError("t-conjugation left the elements outside the shapes a t^i, b t^j")
    if j == 0:
        return finish(_hyperbolic_vs_A(phi, y1.vector, i, y2.vector, budget))
    if j % i:
        return finish(FiniteQuotientSpec.build(phi, Lattice.full(n), i))
    a_l = twisted_power_sum(phi, y1.vector, i, j // i)
    c = tuple(x - y for x, y in zip(y2.vector, a_l))
    if not any(c):
        raise NotASeparationInstance("x2 lies in <x1>")
    return finish(_hyperbolic_vs_A(phi, y1.vector, i, c, budget))
