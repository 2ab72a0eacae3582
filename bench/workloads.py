"""Seeded input streams for the gbsep benchmark.

Every input is built so that its answer is known from the construction,
without calling gbsep:

* ascending inputs are phi = P B P^-1 with P unimodular and B block upper
  triangular, each diagonal block the companion matrix of a polynomial whose
  irreducibility has an elementary proof (Eisenstein at p, an Eisenstein
  polynomial shifted by x -> x + c, or a unit-constant polynomial of degree
  <= 3 without rational roots). So charpoly(phi), its factors, |det phi| and
  the degeneracy of each factor are known;
* general inputs carry holonomies H_i chosen first (Q U_i Q^-1 for a "yes",
  a non-unit determinant or a differently conjugated generator for a "no");
  the edge matrices are then solved for so that the reduced graph has exactly
  these holonomies;
* separation pairs are (x a, y a) with gcd(x, d) = 1 and x not dividing y,
  which K = xA separates, or (p a, a) with a in the first invariant block,
  Eisenstein at p, which no finite quotient separates.

A workload is an endless stream of requests in a fixed round-robin order of
strata, so that any prefix of the stream has the same mix up to one round.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from reference import (
    frac_matrix,
    identity,
    inverse,
    matmul,
    non_leading_gcd,
    obstructs,
    poly_mul,
    word_matrix,
)


# ---------------------------------------------------------------------------
# cases: an input plus the answer its construction fixes


@dataclass
class AscendingCase:
    phi: tuple                      # integer rows
    poly: tuple                     # charpoly(phi), ascending coefficients
    factors: dict                   # coeffs -> (multiplicity, degeneracy gcd, its primes)
    d: int                          # |det phi|
    css: bool                       # every factor has degeneracy gcd 1
    first_block: tuple              # (degree, prime) of B's first block; prime 0 unless Eisenstein
    basis: tuple                    # columns of P, the basis B is written in


@dataclass
class FactorCase:
    poly: tuple
    factors: dict
    css: bool


@dataclass
class GeneralCase:
    doc: dict
    holonomy: dict                  # edge id -> rational matrix, at the surviving vertex
    expect: str                     # "yes" | "no"


@dataclass
class SeparationCase:
    phi: tuple
    g1: tuple
    g2: tuple
    separable: bool
    budget: int


@dataclass
class Request:
    stratum: str                    # label of the slot that made it
    kind: str                       # "analyze-ascending" | "factor" | "analyze-general" | "separate" | "separate-lib"
    case: object
    argv: list = field(default_factory=list)   # CLI arguments; "{input}" stands for the input file
    doc: dict | None = None                    # input document written to the input file
    chain_key: int = -1                        # separate-lib: index of the input whose chain to use


# ---------------------------------------------------------------------------
# integer helpers


_KNOWN_PRIMES = tuple(p for p in range(2, 4000) if all(p % q for q in range(2, math.isqrt(p) + 1)))
_MEDIUM_PRIMES = tuple(p for p in _KNOWN_PRIMES if p > 200)


def _int_matmul(a, b) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in bt) for r in a)


def _int_identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _random_unimodular(rng: random.Random, n: int, steps: int) -> tuple[tuple, tuple]:
    """(P, P^-1) as a product of elementary column additions and sign flips."""
    p = _int_identity(n)
    pinv = _int_identity(n)
    for _ in range(steps):
        if n == 1 or rng.random() < 0.15:
            i = rng.randrange(n)
            for r in range(n):
                p[r][i] = -p[r][i]
            pinv[i] = [-x for x in pinv[i]]
            continue
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # P <- P (I + c e_ij): column j += c * column i; inverse rows: row i -= c * row j
        for r in range(n):
            p[r][j] += c * p[r][i]
        pinv[i] = [x - c * y for x, y in zip(pinv[i], pinv[j])]
    return tuple(map(tuple, p)), tuple(map(tuple, pinv))


def _primes_of(g: int, known) -> tuple:
    """Distinct prime divisors of g, all of which lie in `known`."""
    out = []
    g = abs(g)
    for q in sorted(set(known)):
        if g % q == 0:
            out.append(q)
            while g % q == 0:
                g //= q
    if g != 1:
        raise AssertionError("construction produced an unexpected prime factor")
    return tuple(out)


def _taylor_shift(f, c: int) -> tuple:
    """Coefficients of f(x + c)."""
    out = [0]
    for a in reversed(f):
        # out <- out * (x + c) + a
        nxt = [0] * (len(out) + 1)
        for i, x in enumerate(out):
            nxt[i] += c * x
            nxt[i + 1] += x
        nxt[0] += a
        out = nxt
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# irreducible blocks; each is (coeffs, degeneracy gcd, primes of the gcd, eisenstein prime or 0)


def _big_unit(rng: random.Random, lo: int, hi: int, avoid: int) -> tuple[int, list]:
    """A product u of known primes other than `avoid`, with lo <= u < hi,
    and its prime list."""
    while True:
        u, primes = 1, []
        while u * _KNOWN_PRIMES[-1] < lo:
            q = rng.choice(_MEDIUM_PRIMES)
            if q != avoid:
                u *= q
                primes.append(q)
        last = [q for q in _KNOWN_PRIMES if lo <= u * q < hi and q != avoid]
        if last:
            q = rng.choice(last)
            return u * q, primes + [q]


def _eisenstein(rng: random.Random, k: int, p: int, unit_range: tuple | None = None):
    """x^k + p*(a_{k-1} x^{k-1} + ... + a_1 x) + p*u with p not dividing u.

    With unit_range = (lo, hi), |u| is a product of known primes in
    [lo, hi), so the primes of the degeneracy gcd are known."""
    if unit_range:
        u, known = _big_unit(rng, *unit_range, p)
    else:
        u, known = rng.choice([x for x in (1, 2, 3, 5) if x % p]), [2, 3, 5]
    u *= rng.choice((-1, 1))
    mids = [p * rng.randint(-1, 1) for _ in range(k - 1)]
    f = (p * u, *mids, 1)
    g = non_leading_gcd(f)
    return f, g, _primes_of(g, known + [p]), p


def _shifted_eisenstein(rng: random.Random, k: int):
    """An Eisenstein polynomial at a small prime shifted by x -> x + c, kept
    only when its non-leading coefficients are coprime and its constant
    term is nonzero."""
    while True:
        f, _, _, _ = _eisenstein(rng, k, rng.choice((2, 3, 5)))
        g = _taylor_shift(f, rng.choice((-2, -1, 1, 2)))
        if g[0] != 0 and non_leading_gcd(g) == 1:
            return g, 1, (), 0


def _unit_block(rng: random.Random, k: int):
    """Monic, constant term +-1, no rational root: irreducible for k <= 3."""
    while True:
        c = rng.choice((-1, 1))
        if k == 1:
            f = (c, 1)
        elif k == 2:
            b = rng.choice((-3, -2, -1, 1, 2, 3))
            disc = b * b - 4 * c
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                continue
            f = (c, b, 1)
        else:
            f = (c, rng.randint(-2, 2), rng.randint(-2, 2), 1)
            if sum(f) == 0 or sum(x * (-1) ** i for i, x in enumerate(f)) == 0:
                continue
        return f, 1, (), 0


def _companion(f) -> list:
    """Companion matrix of monic f (ascending coefficients)."""
    k = len(f) - 1
    m = [[0] * k for _ in range(k)]
    for i in range(1, k):
        m[i][i - 1] = 1
    for i in range(k):
        m[i][k - 1] = -f[i]
    return m


def _factor_table(blocks) -> dict:
    mult = Counter(b[0] for b in blocks)
    return {b[0]: (mult[b[0]], b[1], b[2]) for b in blocks}


def _ascending_from_blocks(rng: random.Random, blocks) -> AscendingCase:
    n = sum(len(b[0]) - 1 for b in blocks)
    bmat = [[0] * n for _ in range(n)]
    off = 0
    for f, _, _, _ in blocks:
        k = len(f) - 1
        for i, row in enumerate(_companion(f)):
            bmat[off + i][off:off + k] = row
            for j in range(off + k, n):
                bmat[off + i][j] = rng.randint(-1, 1)
        off += k
    p, pinv = _random_unimodular(rng, n, n + 2)
    phi = _int_matmul(_int_matmul(p, bmat), pinv)
    poly = (1,)
    for f, _, _, _ in blocks:
        poly = poly_mul(poly, f)
    factors = _factor_table(blocks)
    d = abs(math.prod(f[0] for f, _, _, _ in blocks))
    first = blocks[0]
    return AscendingCase(
        phi=phi,
        poly=poly,
        factors=factors,
        d=d,
        css=all(g == 1 for _, g, _ in factors.values()),
        first_block=(len(first[0]) - 1, first[3]),
        basis=tuple(zip(*p)),
    )


def _degrees(rng: random.Random, n: int, largest: int = 4) -> list:
    out = []
    while n:
        k = rng.randint(1, min(largest, n))
        out.append(k)
        n -= k
    return out


def ascending_case(rng: random.Random, n: int, style: str) -> AscendingCase:
    """style: "degenerate" (first block Eisenstein), "nondegenerate" or
    "unimodular"."""
    if style == "unimodular":
        blocks = [_unit_block(rng, k) for k in _degrees(rng, n, 3)]
    else:
        degs = _degrees(rng, n)
        blocks = [_unit_block(rng, k) if k <= 3 and rng.random() < 0.3 else _shifted_eisenstein(rng, k)
                  for k in degs]
        if style == "degenerate":
            blocks[0] = _eisenstein(rng, degs[0], rng.choice((2, 3, 5, 7)))
    return _ascending_from_blocks(rng, blocks)


def factor_case(rng: random.Random, degree: int, const_bits: int) -> FactorCase:
    """Product of distinct irreducibles of total degree `degree`; with
    const_bits > 0 the constant term is just below 2^const_bits."""
    while True:
        blocks = []
        for k in _degrees(rng, degree):
            r = rng.random()
            if r < 0.4:
                blocks.append(_eisenstein(rng, k, rng.choice((2, 3, 5, 7))))
            elif r < 0.8 or k > 3:
                blocks.append(_shifted_eisenstein(rng, k))
            else:
                blocks.append(_unit_block(rng, k))
        if const_bits:
            # one Eisenstein factor carries a large constant, so that the
            # product's constant term lies in [0.8, 1) * 2^const_bits
            # (trial division costs sqrt of it, so this keeps the stratum tight)
            i = rng.randrange(len(blocks))
            k = len(blocks[i][0]) - 1
            p = rng.choice((2, 3, 5, 7))
            rest = p * abs(math.prod(b[0][0] for j, b in enumerate(blocks) if j != i))
            hi = (1 << const_bits) // rest
            if hi < 1000:
                continue
            blocks[i] = _eisenstein(rng, k, p, (hi * 4 // 5, hi))
        coeffs = [b[0] for b in blocks]
        if len(set(coeffs)) != len(coeffs):
            continue
        poly = (1,)
        for f in coeffs:
            poly = poly_mul(poly, f)
        factors = _factor_table(blocks)
        return FactorCase(poly, factors, all(g == 1 for _, g, _ in factors.values()))


# ---------------------------------------------------------------------------
# general graphs: holonomies first, edge matrices solved for


def _rational_conjugator(rng: random.Random, n: int) -> tuple:
    """U diag(c, 1, ..., 1) V with U, V unimodular and c in {2, 3, 4}."""
    u, _ = _random_unimodular(rng, n, n + 1)
    v, _ = _random_unimodular(rng, n, n + 1)
    diag = _int_identity(n)
    diag[0][0] = rng.choice((2, 3, 4))
    return frac_matrix(_int_matmul(_int_matmul(u, diag), v))


def _signed_permutation(rng: random.Random, n: int) -> tuple:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(tuple(rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)) for i in range(n))


def _infinite_order_unimodular(rng: random.Random, n: int) -> tuple:
    """Finite orders in GL(n, Z) for n <= 3 divide 12, so U^j != I for
    j <= 12 proves infinite order."""
    ident = tuple(map(tuple, _int_identity(n)))
    while True:
        u, _ = _random_unimodular(rng, n, n + 2)
        power = u
        for _ in range(12):
            if power == ident:
                break
            power = _int_matmul(power, u)
        else:
            return u


def _free_generators(rng: random.Random, n: int, k: int) -> list:
    """k unimodular matrices whose reduced words of length <= 4 are all
    distinct, so the word search below the cap meets (almost) no repeats
    and every yes-case of a stratum pays a similar full search."""
    alphabet = 2 * k
    expected = 1 + sum(alphabet * (alphabet - 1) ** (j - 1) for j in range(1, 5))
    while True:
        us = [_infinite_order_unimodular(rng, n) for _ in range(k)]
        inverses = [tuple(tuple(int(x) for x in r) for r in inverse(frac_matrix(u))) for u in us]
        letters = [m for pair in zip(us, inverses) for m in pair]
        seen = {tuple(map(tuple, _int_identity(n)))}
        frontier = list(seen)
        for _ in range(4):
            frontier = [_int_matmul(w, g) for w in frontier for g in letters]
            seen.update(frontier)
        if len(seen) == expected:
            return us


def _conj(q, u) -> tuple:
    return matmul(matmul(q, frac_matrix(u)), inverse(q))


def _edge_doc(rng: random.Random, n: int, holonomy: dict, leaves: int) -> dict:
    """A graph whose reduction is one vertex "a" carrying the given
    holonomies, one loop per edge id.

    Leaves hang off "a" by tree edges "t<i>" with a unimodular leaf side, so
    reduction collapses every leaf into "a" (tree ids sort before the "x<i>"
    holonomy edges, so they go first) and moves its coordinates by
    C = incl_to incl_from^-1. A holonomy edge u -> w then gets incl_from = s I
    and incl_to = s C_w^-1 H C_u, which the collapses turn into a loop at "a"
    with holonomy H.
    """
    names = ["a"] + [f"z{i}" for i in range(leaves)]
    coords = {"a": identity(n)}
    edges = []
    for i, z in enumerate(names[1:]):
        u, uinv = _random_unimodular(rng, n, n)
        m, _ = _random_unimodular(rng, n, n)
        if rng.random() < 0.5:
            m = _int_matmul(m, [[2 if (r == c == 0) else int(r == c) for c in range(n)] for r in range(n)])
        coords[z] = frac_matrix(_int_matmul(m, uinv))
        edges.append({"id": f"t{i}", "from": z, "to": "a",
                      "incl_from": [list(r) for r in u], "incl_to": [list(r) for r in m]})
    for eid, h in sorted(holonomy.items()):
        src, dst = rng.choice(names), rng.choice(names)
        g = matmul(matmul(inverse(coords[dst]), h), coords[src])
        s = math.lcm(*(x.denominator for r in g for x in r))
        edges.append({
            "id": eid, "from": src, "to": dst,
            "incl_from": [[s * int(i == j) for j in range(n)] for i in range(n)],
            "incl_to": [[int(s * x) for x in r] for r in g],
        })
    rng.shuffle(edges)
    return {"rank": n, "vertices": names, "edges": edges}


def _first_obstruction(gens: dict, max_len: int):
    """Shortest word (signed 1-based indices) whose matrix obstructs, or None."""
    alphabet = [s for i in gens for s in (i, -i)]
    for length in range(1, max_len + 1):
        for word in itertools.product(alphabet, repeat=length):
            if any(a == -b for a, b in zip(word, word[1:])):
                continue
            if obstructs(word_matrix(gens, word)):
                return word
    return None


def _full_signed_permutations(rng: random.Random, n: int, k: int) -> list:
    """k signed permutation matrices generating the whole group of order
    2^n n!, so that a yes-case's word search visits exactly that many
    matrices whatever the draw."""
    order = 2 ** n * math.factorial(n)
    while True:
        us = [_signed_permutation(rng, n) for _ in range(k)]
        group = {tuple(map(tuple, _int_identity(n)))}
        frontier = list(group)
        while frontier:
            frontier = [m for m in {_int_matmul(w, u) for w in frontier for u in us} if m not in group]
            group.update(frontier)
        if len(group) == order:
            return us


def general_case(rng: random.Random, n: int, k: int, style: str) -> GeneralCase:
    """style: "yes-free" (generic unimodular U_i, the word search grows),
    "yes-finite" (U_i generate all signed permutations), "no-shallow" (one
    generator of non-unit determinant) or "no-deep" (each generator
    integral in its own basis, obstruction first at word length 2 or 3)."""
    ids = [f"x{i}" for i in range(k)]
    leaves = rng.randint(0, 2)
    if style in ("yes-free", "yes-finite", "no-shallow"):
        q = _rational_conjugator(rng, n) if n > 1 else frac_matrix([[rng.choice((2, 3, 5))]])
        if style == "yes-free":
            us = _free_generators(rng, n, k)
        elif style == "yes-finite":
            us = _full_signed_permutations(rng, n, k)
        else:
            us = [_signed_permutation(rng, n) for _ in ids]
        if style == "no-shallow":
            bad = rng.randrange(k)
            scale = [[int(i == j) for j in range(n)] for i in range(n)]
            scale[0][0] = rng.choice((2, 3, -2))
            us[bad] = _int_matmul(us[bad], scale)
        hol = {e: _conj(q, u) for e, u in zip(ids, us)}
        expect = "no" if style == "no-shallow" else "yes"
        return GeneralCase(_edge_doc(rng, n, hol, leaves), hol, expect)
    while True:
        hol = {e: _conj(_rational_conjugator(rng, n), _infinite_order_unimodular(rng, n)) for e in ids}
        gens = {i + 1: hol[e] for i, e in enumerate(ids)}
        word = _first_obstruction(gens, 3)
        if word is not None and len(word) >= 2:
            return GeneralCase(_edge_doc(rng, n, hol, leaves), hol, "no")


# ---------------------------------------------------------------------------
# separation pairs


def _primitive(rng: random.Random, n: int) -> tuple:
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        if math.gcd(*v) == 1:
            return v


def separation_input(rng: random.Random, n: int, p: int) -> AscendingCase:
    """phi for the oracle: B = [x + p u | *; 0 | unit block of degree n - 1]
    with u = +-1. So d = p and the invariant chain has length 2 whatever the
    draw, which fixes the size of the oracle's family for given (n, p,
    budget) and keeps the cost of one stratum tight."""
    first = ((p * rng.choice((-1, 1)), 1), p, (p,), p)
    return _ascending_from_blocks(rng, [first, _unit_block(rng, n - 1)])


def separation_case(rng: random.Random, case: AscendingCase, separable: bool, budget: int) -> SeparationCase:
    """A pair for the oracle on phi; case.first_block must be Eisenstein."""
    n = len(case.phi)
    if separable:
        x = rng.choice([x for x in range(2, 14) if math.gcd(x, case.d) == 1])
        y = rng.choice([y for y in range(1, 2 * x) if y % x])
        a = _primitive(rng, n)
        return SeparationCase(case.phi, tuple(x * v for v in a), tuple(y * v for v in a), True, budget)
    k, p = case.first_block
    coeffs = _primitive(rng, k)
    a = tuple(sum(c * col[i] for c, col in zip(coeffs, case.basis)) for i in range(n))
    return SeparationCase(case.phi, tuple(p * v for v in a), a, False, budget)


def _phi_doc(phi) -> dict:
    return {"rank": len(phi), "ascending_hnn": [list(r) for r in phi]}


def _vec_arg(v) -> str:
    return ",".join(map(str, v))


def separate_argv(pair: SeparationCase) -> list:
    # "--g1=-3,6" rather than "--g1 -3,6", which argparse reads as an option
    return ["separate", "{input}", f"--g1={_vec_arg(pair.g1)}", f"--g2={_vec_arg(pair.g2)}",
            "--budget", str(pair.budget), "--json"]


# ---------------------------------------------------------------------------
# the four workloads


def _round_robin(seed: int, slots):
    """Request i comes from slot i mod len(slots), with its own random stream
    derived from the seed and i."""
    for i in itertools.count():
        rng = random.Random(f"{seed}:{i}")
        yield slots[i % len(slots)](rng)


def _analyze_ascending(n, style):
    def make(rng):
        case = ascending_case(rng, n, style)
        return Request(f"analyze-r{n}-{style}", "analyze-ascending", case,
                       ["analyze", "{input}", "--json"], _phi_doc(case.phi))
    return make


def _factor(degree_range, const_bits):
    def make(rng):
        case = factor_case(rng, rng.randint(*degree_range), const_bits)
        label = f"factor-{const_bits}bit" if const_bits else "factor"
        return Request(label, "factor", case, ["factor", "[" + ",".join(map(str, case.poly)) + "]", "--json"])
    return make


def _analyze_general(n, k, style):
    def make(rng):
        case = general_case(rng, n, k, style)
        return Request(f"general-r{n}-k{k}-{style}", "analyze-general", case,
                       ["analyze", "{input}", "--json"], case.doc)
    return make


def _separate(n, p, separable, budget):
    def make(rng):
        case = separation_input(rng, n, p)
        pair = separation_case(rng, case, separable, budget)
        label = f"separate-r{n}-p{p}-b{budget}-{'sep' if separable else 'nonsep'}"
        return Request(label, "separate", pair, separate_argv(pair), _phi_doc(pair.phi))
    return make


# The slot lists fix each workload's mix. Strata are ordered so that the
# median and the 90th percentile fall inside a group of similar requests
# rather than on the edge between two groups; see README.md.
ASCENDING_SLOTS = (
    _analyze_ascending(2, "degenerate"),
    _analyze_ascending(3, "nondegenerate"),
    _analyze_ascending(4, "degenerate"),
    _analyze_ascending(5, "unimodular"),
    _factor((6, 9), 0),
    _analyze_ascending(6, "nondegenerate"),
    _analyze_ascending(8, "degenerate"),
    _factor((10, 12), 40),
    _analyze_ascending(3, "degenerate"),
    _analyze_ascending(10, "nondegenerate"),
    _analyze_ascending(12, "degenerate"),
    _factor((10, 12), 0),
    _analyze_ascending(2, "unimodular"),
    _factor((6, 9), 40),
)

GENERAL_SLOTS = (
    _analyze_general(2, 2, "yes-free"),
    _analyze_general(1, 3, "no-shallow"),
    _analyze_general(3, 2, "yes-finite"),
    _analyze_general(3, 2, "yes-free"),
    _analyze_general(2, 3, "no-deep"),
    _analyze_general(3, 3, "yes-finite"),
    _analyze_general(2, 2, "yes-free"),
    _analyze_general(3, 2, "no-shallow"),
    _analyze_general(3, 4, "yes-finite"),
    _analyze_general(3, 2, "yes-free"),
    _analyze_general(3, 2, "no-deep"),
    _analyze_general(3, 3, "yes-finite"),
)

SEPARATE_SLOTS = (
    _separate(2, 2, True, 20),
    _separate(2, 3, True, 20),
    _separate(2, 2, False, 50),
    _separate(2, 2, False, 20),
    _separate(3, 2, True, 20),
    _separate(2, 2, True, 50),
    _separate(2, 3, False, 20),
    _separate(2, 5, True, 20),
    _separate(3, 2, True, 50),
    _separate(2, 2, True, 20),
    _separate(3, 2, False, 20),
    _separate(2, 2, True, 100),
    _separate(3, 3, True, 20),
    _separate(2, 3, True, 20),
)


def ascending(seed: int):
    return _round_robin(seed, ASCENDING_SLOTS)


def general(seed: int):
    return _round_robin(seed, GENERAL_SLOTS)


def separate_cold(seed: int):
    return _round_robin(seed, SEPARATE_SLOTS)


BATCH_PAIRS = 20          # queries per input, shuffled
BATCH_NONSEPARABLE = 13   # of them non-separable: the median falls among warm full scans
BATCH_BUDGET = 50


BATCH_SHAPES = ((3, 2), (3, 3))   # (rank, p) of successive inputs


def separate_batch(seed: int):
    """Per input, BATCH_PAIRS library queries on the same phi and chain;
    request.chain_key names the input."""
    for i in itertools.count():
        rng = random.Random(f"{seed}:{i}")
        n, p = BATCH_SHAPES[i % len(BATCH_SHAPES)]
        case = separation_input(rng, n, p)
        pairs = [separation_case(rng, case, j < BATCH_PAIRS - BATCH_NONSEPARABLE, BATCH_BUDGET)
                 for j in range(BATCH_PAIRS)]
        rng.shuffle(pairs)
        for pair in pairs:
            label = f"batch-r{n}-p{p}-{'sep' if pair.separable else 'nonsep'}"
            yield Request(label, "separate-lib", pair, chain_key=i)


WORKLOADS = {
    "ascending": ascending,
    "general": general,
    "separate-cold": separate_cold,
    "separate-batch": separate_batch,
}
