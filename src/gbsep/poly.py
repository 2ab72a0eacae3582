"""Monic integer polynomial factorization over Q and the mod-p degeneracy test.

Factorization strategy: split off squarefree parts (Yun), then factor each
part, whatever its degree, by one route: factor it modulo a good prime,
Hensel-lift past the Landau-Mignotte bound, and recombine subsets of the
lifted factors (linear factors come out like any other). Degrees above 12
are rejected, never answered wrongly.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import IntPolynomial
from .ntheory import binary_power, is_prime, partial_factorize

MAX_DEGREE = 12


class UnsupportedDegreeError(ValueError):
    pass


@dataclass(frozen=True)
class Factorization:
    """Multiset of monic irreducible factors with multiplicities.

    Factors are sorted by (degree, coefficient tuple); the product over the
    multiset reproduces the input exactly.
    """

    factors: tuple[tuple[IntPolynomial, int], ...]

    def product(self) -> IntPolynomial:
        out = IntPolynomial((1,))
        for f, mult in self.factors:
            for _ in range(mult):
                out = out * f
        return out

    def distinct(self) -> tuple[IntPolynomial, ...]:
        return tuple(f for f, _ in self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class FactorDegeneracy:
    factor: IntPolynomial
    multiplicity: int
    gcd: int                      # gcd of the non-leading coefficients
    primes: tuple[int, ...]       # primes p with factor == x^deg (mod p)
    unfactored: int               # part of gcd the rho budget left unsplit (1: none)
    all_primes: bool              # True iff every prime degenerates (factor = x^k)

    @property
    def degenerate(self) -> bool:
        return self.all_primes or self.gcd > 1

    @property
    def witness_prime(self) -> int | None:
        """A known degenerate prime; None when there is none, or when the
        gcd's only part left is the cofactor Pollard rho could not split."""
        if self.all_primes:
            return 2
        return self.primes[0] if self.primes else None


@dataclass(frozen=True)
class DegeneracyResult:
    per_factor: tuple[FactorDegeneracy, ...]

    @property
    def separable(self) -> bool:
        return not any(f.degenerate for f in self.per_factor)

    def failing(self) -> tuple[tuple[int, FactorDegeneracy], ...]:
        return tuple((i, f) for i, f in enumerate(self.per_factor) if f.degenerate)


# ---------------------------------------------------------------------------
# rational-coefficient helpers (gcds stay monic integer by Gauss's lemma)


def _q_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    rem = a[:]
    q = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    for i in range(len(rem) - len(b), -1, -1):
        f = rem[i + len(b) - 1] / b[-1]
        if f:
            q[i] = f
            for j, c in enumerate(b):
                rem[i + j] -= f * c
    while rem and rem[-1] == 0:
        rem.pop()
    return q, rem


def gcd_monic(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Monic gcd over Q of two integer polynomials (integer by Gauss)."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while fb:
        _, r = _q_divmod(fa, fb)
        fa, fb = fb, r
    if not fa:
        return IntPolynomial(())
    lead = fa[-1]
    monic = [c / lead for c in fa]
    if any(c.denominator != 1 for c in monic):
        raise ArithmeticError("gcd of monic-relevant polynomials must be integral")
    return IntPolynomial(int(c) for c in monic)


def _exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    q, r = a.divmod_monic(b)
    if not r.is_zero:
        raise ArithmeticError("division expected to be exact")
    return q


def squarefree_decomposition(f: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """f = prod a_i^i with each a_i monic squarefree, for monic f.

    f is squarefree when gcd(f, f') = 1 modulo P = 2^31 - 1 (the monic gcd
    over Q divides both mod P and keeps its degree); Yun's algorithm runs
    only when that test fails: repeated factors, or P | disc(f)."""
    if f.degree <= 0:
        return []
    if len(_gf_gcd(list(f.coeffs), list(f.derivative().coeffs), 2**31 - 1)) == 1:
        return [(f, 1)]
    b = gcd_monic(f, f.derivative())
    c = _exact_div(f, b)
    d = _exact_div(f.derivative(), b) - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        a = gcd_monic(c, d)
        c = _exact_div(c, a)
        d = _exact_div(d, a) - c.derivative()
        if a.degree > 0:
            out.append((a, i))
        i += 1
    return out


# ---------------------------------------------------------------------------
# arithmetic in (Z/m)[x]; coefficient lists ascending, trailing zeros stripped


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return _gf_trim(out)


def _gf_add(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % m
    return _gf_trim(out)


def _gf_sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _gf_add(a, [(-y) % m for y in b], m)


def _gf_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    # b must have invertible leading coefficient mod m (monic in all our uses)
    inv = pow(b[-1], -1, m)
    rem = a[:]
    q = [0] * max(0, len(rem) - len(b) + 1)
    for i in range(len(rem) - len(b), -1, -1):
        f = rem[i + len(b) - 1] * inv % m
        if f:
            q[i] = f
            for j, c in enumerate(b):
                rem[i + j] = (rem[i + j] - f * c) % m
    return _gf_trim(q), _gf_trim(rem)


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _gf_trim([x % p for x in a])
    b = _gf_trim([x % p for x in b])
    while b:
        _, r = _gf_divmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _gf_egcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with s*a + t*b = g (monic gcd) over F_p."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = [x * inv % p for x in r0]
        s0 = [x * inv % p for x in s0]
        t0 = [x * inv % p for x in t0]
    return r0, s0, t0


def _gf_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    def mul(x: list[int], y: list[int]) -> list[int]:
        return _gf_divmod(_gf_mul(x, y, p), mod, p)[1]

    return binary_power(_gf_divmod(a, mod, p)[1], e, mul, [1])


def _gf_factor_squarefree(f: list[int], p: int) -> list[list[int]]:
    """Irreducible monic factors of a squarefree monic f over F_p."""
    # distinct-degree stage
    stages: list[tuple[list[int], int]] = []
    h = [0, 1]  # x
    rest = f[:]
    d = 0
    while len(rest) - 1 > 2 * (d := d + 1) - 1 and len(rest) > 1:
        h = _gf_powmod(h, p, rest, p)
        g = _gf_gcd(_gf_sub(h, [0, 1], p), rest, p)
        if len(g) > 1:
            stages.append((g, d))
            rest, _ = _gf_divmod(rest, g, p)
            h = _gf_divmod(h, rest, p)[1]
    if len(rest) > 1:
        stages.append((rest, len(rest) - 1))
    # equal-degree stage (Cantor-Zassenhaus, fixed seed for determinism)
    rng = random.Random(0x5EED)
    out: list[list[int]] = []
    for g, d in stages:
        work = [g]
        while work:
            u = work.pop()
            if len(u) - 1 == d:
                out.append(u)
                continue
            while True:
                r = [rng.randrange(p) for _ in range(len(u) - 1)] + [1]
                w = _gf_powmod(r, (p ** d - 1) // 2, u, p)
                w = _gf_sub(w, [1], p)
                v = _gf_gcd(w, u, p)
                if 1 < len(v) < len(u):
                    work.append(v)
                    work.append(_gf_divmod(u, v, p)[0])
                    break
    return out


# ---------------------------------------------------------------------------
# Hensel lifting


def _hensel_step(q: int, f: list[int], g: list[int], h: list[int],
                 s: list[int], t: list[int]) -> tuple[list[int], list[int], list[int], list[int]]:
    """Lift f = g*h (mod q), s*g + t*h = 1 (mod q) to mod q^2; g, h monic."""
    m = q * q
    e = _gf_sub([c % m for c in f], _gf_mul(g, h, m), m)
    qq, r = _gf_divmod(_gf_mul(s, e, m), h, m)
    g1 = _gf_add(_gf_add(g, _gf_mul(t, e, m), m), _gf_mul(qq, g, m), m)
    h1 = _gf_add(h, r, m)
    b = _gf_sub(_gf_add(_gf_mul(s, g1, m), _gf_mul(t, h1, m), m), [1], m)
    cc, d = _gf_divmod(_gf_mul(s, b, m), h1, m)
    s1 = _gf_sub(s, d, m)
    t1 = _gf_sub(_gf_sub(t, _gf_mul(t, b, m), m), _gf_mul(cc, g1, m), m)
    return g1, h1, s1, t1


def _hensel_lift_list(p: int, bound: int, f: IntPolynomial, parts: list[list[int]]) -> tuple[list[list[int]], int]:
    """Lift the mod-p factorization `parts` of monic f to modulus >= bound."""
    target = p
    while target < bound:
        target *= target

    def rec(fpoly: IntPolynomial, factors: list[list[int]]) -> list[list[int]]:
        if len(factors) == 1:
            return [[c % target for c in fpoly.coeffs]]
        half = len(factors) // 2
        g = [1]
        for fac in factors[:half]:
            g = _gf_mul(g, fac, p)
        h = [1]
        for fac in factors[half:]:
            h = _gf_mul(h, fac, p)
        _, s, t = _gf_egcd(g, h, p)
        q = p
        fg, fh, fs, ft = g, h, s, t
        while q < target:
            fg, fh, fs, ft = _hensel_step(q, list(fpoly.coeffs), fg, fh, fs, ft)
            q *= q
        gpoly = IntPolynomial(_symmetric(fg, target))
        hpoly = IntPolynomial(_symmetric(fh, target))
        return rec(gpoly, factors[:half]) + rec(hpoly, factors[half:])

    return rec(f, parts), target


def _symmetric(a: list[int], m: int) -> list[int]:
    return [c - m if c > m // 2 else c for c in (x % m for x in a)]


def _mignotte_bound(f: IntPolynomial) -> int:
    norm = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    return (2 ** f.degree) * norm


# ---------------------------------------------------------------------------
# irreducible factorization of squarefree monic polynomials


def _factor_zassenhaus(f: IntPolynomial) -> list[IntPolynomial]:
    """Irreducible factors of a squarefree monic f of degree >= 1."""
    # f is monic, so f mod p keeps its degree; f mod p is squarefree unless p
    # divides disc(f) != 0, so the walk over odd primes ends within
    # log2|disc(f)| failures.
    deriv = f.derivative()
    p = next(
        p for p in itertools.count(3, 2)
        if is_prime(p) and len(_gf_gcd([c % p for c in f.coeffs], [c % p for c in deriv.coeffs], p)) == 1
    )
    parts = sorted(_gf_factor_squarefree([c % p for c in f.coeffs], p))
    if len(parts) == 1:
        return [f]
    bound = 2 * _mignotte_bound(f) + 1
    lifted, modulus = _hensel_lift_list(p, bound, f, parts)
    out: list[IntPolynomial] = []
    work = f
    size = 1
    while 2 * size <= len(lifted):
        hit = True
        while hit:
            hit = False
            for combo in itertools.combinations(range(len(lifted)), size):
                prod = [1]
                for i in combo:
                    prod = _gf_mul(prod, lifted[i], modulus)
                cand = IntPolynomial(_symmetric(prod, modulus))
                if not cand.is_monic:
                    continue
                q, r = work.divmod_monic(cand)
                if r.is_zero:
                    out.append(cand)
                    work = q
                    lifted = [u for i, u in enumerate(lifted) if i not in combo]
                    hit = True
                    break
            if 2 * size > len(lifted):
                break
        size += 1
    if work.degree > 0:
        out.append(work)
    return out


def factor_over_Q(f: IntPolynomial) -> Factorization:
    """Complete factorization of a monic integer polynomial into monic
    irreducibles over Q (integer by Gauss's lemma)."""
    if f.is_zero or not f.is_monic:
        raise ValueError("factor_over_Q expects a monic nonzero polynomial")
    if f.degree > MAX_DEGREE:
        raise UnsupportedDegreeError(f"degree {f.degree} exceeds supported {MAX_DEGREE}")
    counts: dict[IntPolynomial, int] = {}
    for part, mult in squarefree_decomposition(f):
        for irr in _factor_zassenhaus(part):
            counts[irr] = counts.get(irr, 0) + mult
    factors = tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key()))
    fact = Factorization(factors)
    if fact.product() != f:
        raise ArithmeticError("factorization failed to reconstruct the input")
    return fact


def integer_roots(f: IntPolynomial) -> tuple[int, ...]:
    """All integer roots with multiplicity, ascending (monic input): the
    linear factors of factor_over_Q."""
    roots: list[int] = []
    for g, mult in factor_over_Q(f):
        if g.degree == 1:
            roots.extend([-g.constant] * mult)
    return tuple(sorted(roots))


# ---------------------------------------------------------------------------
# degeneracy (factor congruent to x^deg modulo a prime)


def degeneracy_test(fact: Factorization) -> DegeneracyResult:
    """Per factor: gcd of non-leading coefficients and its prime divisors
    (with the part Pollard rho could not split within its budget).

    A factor f of degree k satisfies f = x^k (mod p) exactly when p divides
    that gcd (f is monic); gcd 0 means every prime degenerates (f = x^k).
    """
    rows = []
    for f, mult in fact.factors:
        non_leading = f.coeffs[: f.degree]
        g = math.gcd(*non_leading) if non_leading else 1
        primes, unfactored = partial_factorize(g)
        rows.append(FactorDegeneracy(
            factor=f,
            multiplicity=mult,
            gcd=g,
            primes=tuple(sorted(primes)),
            unfactored=unfactored,
            all_primes=(g == 0),
        ))
    return DegeneracyResult(tuple(rows))
