"""Cyclic subgroup separability for ascending HNN extensions of Z^n.

The verdict is read off the characteristic polynomial of the defining
monomorphism: the extension is cyclic subgroup separable exactly when no
irreducible factor reduces to a pure power of x modulo any prime, i.e. when
every factor's non-leading coefficients are coprime. Failures come with
explicit witnesses: an eigenvector subgroup embedding BS(1, lambda) when an
integer eigenvalue exceeds 1 in absolute value, and a vector from the
invariant-lattice chain for each degenerate factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import IntMatrix, IntPolynomial, Lattice, int_inverse_unimodular, kernel, snf
from .poly import DegeneracyResult, Factorization, degeneracy_test, factor_over_Q


@dataclass(frozen=True)
class AscendingHNN:
    """<A, t | t a t^-1 = phi(a)> with A = Z^n and phi injective."""

    n: int
    phi: IntMatrix
    d: int  # |A : phi(A)| = |det phi|

    @classmethod
    def of(cls, phi: IntMatrix) -> "AscendingHNN":
        det = phi.det()
        if det == 0:
            raise ValueError("phi must be injective (nonzero determinant)")
        return cls(phi.n, phi, abs(det))


@dataclass(frozen=True)
class ChainStep:
    lattice: Lattice          # A_i, saturated and phi-invariant
    factor: IntPolynomial     # irreducible char poly of the induced map
    induced: IntMatrix        # matrix of phi on A_i / A_{i-1}


@dataclass(frozen=True)
class InvariantChain:
    """Saturated phi-invariant chain {0} = A_0 < A_1 < ... < A_l = Z^n whose
    induced factors multiply to charpoly(phi)."""

    ambient: int
    steps: tuple[ChainStep, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    def lattice(self, i: int) -> Lattice:
        """A_i for 0 <= i <= l."""
        if i == 0:
            return Lattice.zero(self.ambient)
        return self.steps[i - 1].lattice

    @property
    def factors(self) -> tuple[IntPolynomial, ...]:
        return tuple(s.factor for s in self.steps)


@dataclass(frozen=True)
class EigenWitness:
    """phi(a) = lambda * a with |lambda| > 1: <lambda*a> cannot be separated
    from a, and <a, t> is a BS(1, lambda) subgroup."""

    lam: int
    vector: tuple[int, ...]


@dataclass(frozen=True)
class NonSeparableWitness:
    """a in A_i - A_{i-1} for a degenerate step factor: <p*a> is not separable.

    p is None when no prime of the step's gcd is known (Pollard rho left it
    unsplit); the multiplier is then unfactored_cofactor, a divisor of the
    gcd, so each of its primes is degenerate."""

    i: int
    p: int | None
    vector: tuple[int, ...]
    subgroup_generator: tuple[int, ...]
    unfactored_cofactor: int = 1


@dataclass(frozen=True)
class CssVerdict:
    css: bool
    failing: tuple[tuple[int, IntPolynomial, int | None], ...]  # (factor index, factor, prime or None)
    factorization: Factorization
    degeneracy: DegeneracyResult
    eigen_witness: EigenWitness | None
    nonseparable_witnesses: tuple[NonSeparableWitness, ...]


# ---------------------------------------------------------------------------
# invariant chain construction


def _complement_columns(lat: Lattice) -> tuple[IntMatrix, IntMatrix]:
    """For a saturated lattice with basis B, return (P, P^-1) where P is a
    unimodular matrix whose first rank(B) columns are B."""
    n = lat.ambient_rank
    k = lat.rank
    if k == 0:
        ident = IntMatrix.identity(n)
        return ident, ident
    b = lat.basis_matrix()
    s, u, v = snf(b)
    if any(s.rows[i][i] != 1 for i in range(k)):
        raise ValueError("lattice is not saturated")
    uinv = int_inverse_unimodular(u)
    # B = U^-1 S V^-1: the first k columns of U^-1 span the same saturated
    # lattice; splice B itself in so the chain lattices appear verbatim.
    cols = list(b.columns()) + [uinv.column(j) for j in range(k, n)]
    p = IntMatrix.from_columns(cols, n)
    if abs(p.det()) != 1:
        raise ArithmeticError("complement construction failed")
    return p, int_inverse_unimodular(p)


def _quotient_matrix(phi: IntMatrix, lat: Lattice) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Induced integer matrix of phi on Z^n / lat plus the basis data (P, P^-1).

    Requires lat saturated and phi-invariant; the change of basis makes phi
    block triangular and the lower-right block is the induced map.
    """
    p, pinv = _complement_columns(lat)
    m = pinv @ phi @ p
    k = lat.rank
    n = lat.ambient_rank
    for i in range(k, n):
        for j in range(k):
            if m.rows[i][j] != 0:
                raise ValueError("lattice is not phi-invariant")
    quot = IntMatrix(tuple(r[k:] for r in m.rows[k:]))
    return quot, p, pinv


def _chain_step(phi: IntMatrix, current: Lattice, prefer: IntPolynomial | None = None,
                cp: IntPolynomial | None = None) -> ChainStep:
    """The chain step above `current`; cp, when given, is the characteristic
    polynomial of the map phi induces on Z^n / current."""
    quot, p, _ = _quotient_matrix(phi, current)
    cp = quot.charpoly() if cp is None else cp
    if prefer is not None and prefer.divides(cp):
        pick = prefer
    else:
        pick = min(factor_over_Q(cp).distinct(), key=IntPolynomial.sort_key)
    ker = kernel(pick.at_matrix(quot))
    if not ker.basis:
        raise ArithmeticError("irreducible factor with trivial kernel")
    v = ker.basis[0]
    # phi-cyclic span of v inside the quotient, then saturate
    vecs = [v]
    for _ in range(pick.degree - 1):
        vecs.append(quot.apply(vecs[-1]))
    sub = Lattice.from_columns(quot.n, vecs).saturate()
    if sub.rank != pick.degree:
        raise ArithmeticError("cyclic span has wrong dimension")
    # induced matrix of the quotient map on sub (integral: sub is invariant)
    coords = []
    for b in sub.basis:
        c = sub.coordinates(quot.apply(b))
        if c is None:
            raise ArithmeticError("cyclic span not invariant")
        coords.append(tuple(c))
    induced = IntMatrix.from_columns(coords, sub.rank)
    if induced.charpoly() != pick:
        raise ArithmeticError("induced matrix has wrong characteristic polynomial")
    # pull back to Z^n through the complement columns of P
    k = current.rank
    lift = [p.apply((0,) * k + w) for w in sub.basis]
    nxt = Lattice.from_columns(phi.n, list(current.basis) + lift).saturate()
    return ChainStep(nxt, pick, induced)


def invariant_chain(h: AscendingHNN, prefer: IntPolynomial | None = None) -> InvariantChain:
    """Build the chain deterministically: at each step take the irreducible
    factor of least degree (ties by ascending coefficient tuple) of the
    current quotient's characteristic polynomial, and the first kernel basis
    vector. A preferred factor, when it divides the current quotient's
    characteristic polynomial, is taken first instead."""
    steps: list[ChainStep] = []
    current = Lattice.zero(h.n)
    while current.rank < h.n:
        steps.append(_chain_step(h.phi, current, prefer))
        current = steps[-1].lattice
    return InvariantChain(h.n, tuple(steps))


# ---------------------------------------------------------------------------
# witnesses


def _eigen_witness(h: AscendingHNN, fact: Factorization) -> EigenWitness | None:
    for f in fact.distinct():
        if f.degree == 1:
            lam = -f.constant
            if abs(lam) > 1:
                ker = kernel(h.phi - lam * IntMatrix.identity(h.n))
                vec = ker.basis[0]
                if h.phi.apply(vec) != tuple(lam * x for x in vec):
                    raise ArithmeticError("eigenvector verification failed")
                return EigenWitness(lam, vec)
    return None


def nonseparable_witness(
    h: AscendingHNN, chain: InvariantChain, i: int, p: int | None, unfactored: int = 1
) -> NonSeparableWitness:
    """Witness for step i (1-based) of the chain at a degenerate prime p:
    the first basis vector of A_i outside A_{i-1}, with subgroup <p*a>.
    With p None the multiplier is the unfactored cofactor of the step's gcd."""
    step = chain.steps[i - 1]
    non_leading = step.factor.coeffs[: step.factor.degree]
    g = math.gcd(*non_leading) if non_leading else 1
    m = unfactored if p is None else p
    if m < 2 or not (g == 0 or (g > 1 and g % m == 0)):
        raise ValueError(f"multiplier {m} is not degenerate for the step factor")
    prev = chain.lattice(i - 1)
    for b in step.lattice.basis:
        if not prev.contains(b):
            return NonSeparableWitness(i, p, b, tuple(m * x for x in b), 1 if p is not None else m)
    raise ArithmeticError("chain step adds no new basis vector")


# ---------------------------------------------------------------------------
# the decision


def css_decide(h: AscendingHNN) -> CssVerdict:
    """Cyclic subgroup separability of <A, t | tat^-1 = phi(a)>.

    Separable iff every irreducible factor of charpoly(phi) keeps a unit gcd
    among its non-leading coefficients; each failure is witnessed.
    """
    cp = h.phi.charpoly()
    fact = factor_over_Q(cp)
    deg = degeneracy_test(fact)
    failing = tuple(
        (idx, row.factor, row.witness_prime) for idx, row in deg.failing()
    )
    if not failing:
        return CssVerdict(True, (), fact, deg, None, ())
    witnesses = []
    for idx, f, p in failing:
        # f divides cp, so it heads its preferred chain: the witness is at step 1
        chain = InvariantChain(h.n, (_chain_step(h.phi, Lattice.zero(h.n), f, cp),))
        witnesses.append(nonseparable_witness(h, chain, 1, p, deg.per_factor[idx].unfactored))
    return CssVerdict(
        False,
        failing,
        fact,
        deg,
        _eigen_witness(h, fact),
        tuple(witnesses),
    )

