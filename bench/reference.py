"""Independent checks of gbsep answers, in the benchmark's own arithmetic.

Nothing here imports gbsep. The expected answer of every input comes from
how the input was built (see workloads.py); every witness gbsep returns is
re-verified here with Fraction and integer arithmetic written for the
benchmark. A check returns an Outcome: "ok", "unknown" (gbsep gave no
decision although the construction fixes one) or "error" (wrong verdict,
wrong factor data, or a witness that does not verify).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction


# ---------------------------------------------------------------------------
# rational matrices as tuples of row tuples


def frac_matrix(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


def identity(n: int) -> tuple:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def matmul(a, b) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def matvec(a, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def inverse(a) -> tuple:
    """Gauss-Jordan inverse; ZeroDivisionError when singular."""
    n = len(a)
    m = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return tuple(tuple(r[n:]) for r in m)


def det(a) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [list(map(Fraction, r)) for r in a]
    n = len(m)
    out = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return out


def charpoly(a) -> tuple:
    """Ascending coefficients of det(xI - A) over Q, by expanding the
    determinant of the polynomial matrix with Fraction coefficient lists
    (Laplace expansion; the benchmark only needs n <= 3 here)."""
    n = len(a)

    def entry(i, j):
        c = [-Fraction(a[i][j])]
        if i == j:
            c.append(Fraction(1))
        return c

    def pmul(f, g):
        out = [Fraction(0)] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    def padd(f, g, sign=1):
        out = [Fraction(0)] * max(len(f), len(g))
        for i, x in enumerate(f):
            out[i] += x
        for i, y in enumerate(g):
            out[i] += sign * y
        return out

    def minor_det(rows, cols):
        if len(rows) == 1:
            return entry(rows[0], cols[0])
        acc = [Fraction(0)]
        for k, c in enumerate(cols):
            sub = minor_det(rows[1:], cols[:k] + cols[k + 1:])
            acc = padd(acc, pmul(entry(rows[0], c), sub), -1 if k % 2 else 1)
        return acc

    coeffs = minor_det(list(range(n)), list(range(n)))
    coeffs += [Fraction(0)] * (n + 1 - len(coeffs))
    return tuple(coeffs[: n + 1])


def is_integral(a) -> bool:
    return all(Fraction(x).denominator == 1 for r in a for x in r)


def word_matrix(gens: dict, word) -> tuple:
    """Product of generators along a word of signed 1-based indices,
    multiplied left to right."""
    n = len(next(iter(gens.values())))
    out = identity(n)
    for sym in word:
        g = gens[abs(sym)]
        out = matmul(out, g if sym > 0 else inverse(g))
    return out


def obstructs(m) -> bool:
    """A word matrix that no conjugate of GL(n, Z) contains."""
    return abs(det(m)) != 1 or any(c.denominator != 1 for c in charpoly(m))


# ---------------------------------------------------------------------------
# integer polynomials as ascending coefficient tuples


def poly_mul(f, g) -> tuple:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return tuple(out)


def poly_at_matrix(f, m) -> tuple:
    """f(M) for an integer matrix M, by Horner's rule."""
    n = len(m)
    out = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    for c in reversed(f):
        out = matmul(out, m)
        out = tuple(tuple(x + (c if i == j else 0) for j, x in enumerate(r)) for i, r in enumerate(out))
    return out


def non_leading_gcd(f) -> int:
    return math.gcd(*f[:-1]) if len(f) > 1 else 1


# ---------------------------------------------------------------------------
# lattices spanned by integer columns


def columns_matrix(cols) -> tuple:
    """Square matrix whose columns are the given vectors."""
    return frac_matrix(tuple(zip(*cols)))


def in_lattice(basis_inv, v) -> bool:
    """v lies in the lattice whose basis matrix has inverse basis_inv."""
    return all(x.denominator == 1 for x in matvec(basis_inv, v))


def _solve_linear_congruence(a: int, b: int, m: int):
    """All k with a*k = b (mod m) as (k0, step), or None."""
    a %= m
    b %= m
    g = math.gcd(a, m)
    if b % g:
        return None
    step = m // g
    k0 = (b // g) * pow(a // g, -1, step) % step if step > 1 else 0
    return k0, step


def in_cyclic_plus_lattice(basis_inv, index: int, g1, g2) -> bool:
    """Is g2 in <g1> + K?  K is full rank of the given index, so index * Z^n
    lies in K and k only matters modulo index. Solves the congruences
    coordinate by coordinate, narrowing k = k0 (mod step)."""
    u = matvec(basis_inv, g1)
    w = matvec(basis_inv, g2)
    den = index
    k0, step = 0, 1
    for x, y in zip(u, w):
        # need (y - k x) integral, i.e. k*(den x) = den y (mod den)
        a = int(x * den)
        b = int(y * den)
        # substitute k = k0 + step*t and solve for t
        sol = _solve_linear_congruence(a * step, b - a * k0, den)
        if sol is None:
            return False
        t0, tstep = sol
        k0 = (k0 + step * t0) % (step * tstep)
        step *= tstep
    return True


def mat_pow_mod(m, e: int, mod: int) -> tuple:
    n = len(m)
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    base = tuple(tuple(x % mod for x in r) for r in m)

    def mul(a, b):
        bt = tuple(zip(*b))
        return tuple(tuple(sum(x * y for x, y in zip(r, c)) % mod for c in bt) for r in a)

    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# outcomes


@dataclass
class Outcome:
    status: str = "ok"                      # "ok" | "unknown" | "error"
    problems: list = field(default_factory=list)

    def fail(self, msg: str) -> "Outcome":
        self.status = "error"
        self.problems.append(msg)
        return self


def _same(out: Outcome, what: str, got, want) -> None:
    if got != want:
        out.fail(f"{what}: got {got!r}, expected {want!r}")


def check_factor_rows(out: Outcome, rows, expect) -> None:
    """rows: gbsep's factor rows; expect: {coeffs: (multiplicity, gcd, primes)}."""
    got = Counter()
    for row in rows:
        got[tuple(row["coeffs"])] += row["multiplicity"]
    want = Counter({c: m for c, (m, _, _) in expect.items()})
    if got != want:
        out.fail(f"factors: got {dict(got)}, expected {dict(want)}")
        return
    for row in rows:
        _, g, primes = expect[tuple(row["coeffs"])]
        _same(out, f"gcd of {row['coeffs']}", row["degeneracy_gcd"], g)
        _same(out, f"primes of {row['coeffs']}", list(row["degenerate_primes"]), list(primes))
        _same(out, f"all-primes flag of {row['coeffs']}", row["all_primes_degenerate"], False)


def check_factor(result: dict, case) -> Outcome:
    out = Outcome()
    _same(out, "input", tuple(result["input"]), case.poly)
    check_factor_rows(out, result["factors"], case.factors)
    _same(out, "criterion", result["separable_criterion"], case.css)
    return out


def check_ascending(report: dict, case) -> Outcome:
    """Ascending analyze: classification, verdicts, char poly, factors and
    the eigen / non-separability witnesses."""
    out = Outcome()
    cls = report["classification"]
    _same(out, "kind", cls["kind"], "ascending_hnn")
    _same(out, "d", cls["d"], case.d)
    _same(out, "phi", [tuple(r) for r in cls["phi"] or ()], list(case.phi))
    verdicts = report["verdicts"]
    _same(out, "residually_finite", verdicts["residually_finite"], "yes")
    _same(out, "subgroup_separable", verdicts["subgroup_separable"], "yes" if case.d == 1 else "no")
    _same(out, "css", verdicts["css"], "yes" if case.css else "no")
    _same(out, "char_poly", tuple(report["char_poly"] or ()), case.poly)
    check_factor_rows(out, report["factorization"] or [], case.factors)
    if out.status != "ok" or case.css:
        return out
    witness = report["details"]["cyclic_subgroup_separable"]["witness"] or {}
    phi = case.phi
    degenerate = {c for c, (_, g, _) in case.factors.items() if g != 1}
    failing = witness.get("failing", [])
    nonseparable = witness.get("nonseparable", [])
    _same(out, "failing factors", {tuple(x["factor"]) for x in failing}, degenerate)
    if len(nonseparable) != len(failing):
        out.fail("one nonseparable witness per failing factor expected")
    for x, w in zip(failing, nonseparable):
        f, p, a = tuple(x["factor"]), w["p"], tuple(w["vector"])
        if p != x["prime"] or non_leading_gcd(f) % p:
            out.fail(f"witness prime {p} is not degenerate for {f}")
        elif not any(a):
            out.fail("nonseparable witness vector is zero")
        elif any(matvec(poly_at_matrix(f, phi), a)):
            out.fail(f"nonseparable witness {a} is not killed by f(phi), f = {f}")
        elif tuple(w["subgroup_generator"]) != tuple(p * v for v in a):
            out.fail("nonseparable subgroup generator is not p * a")
    eigen = witness.get("eigen")
    if eigen is not None:
        lam, v = eigen["lambda"], tuple(eigen["vector"])
        if (-lam, 1) not in case.factors or abs(lam) <= 1 or not any(v):
            out.fail(f"eigen witness lambda {lam} is not an integer eigenvalue > 1")
        elif matvec(phi, v) != tuple(lam * x for x in v):
            out.fail("eigen witness vector is not an eigenvector")
    elif any(len(c) == 2 and abs(c[0]) > 1 for c in case.factors):
        out.fail("missing eigen witness for an integer eigenvalue > 1")
    return out


def _rat(m: dict) -> tuple:
    return tuple(tuple(Fraction(x, m["den"]) for x in r) for r in m["num"])


def check_general(report: dict, case) -> Outcome:
    """General analyze: one verdict for all three properties, and a
    conjugator (yes) or an obstruction word (no) verified against the
    holonomies the input was built from."""
    out = Outcome()
    _same(out, "kind", report["classification"]["kind"], "general")
    statuses = set(report["verdicts"].values())
    if len(statuses) != 1:
        return out.fail(f"verdicts disagree: {report['verdicts']}")
    status = statuses.pop()
    if status == "unknown":
        out.status = "unknown"
        return out
    if status != case.expect:
        return out.fail(f"verdict {status}, expected {case.expect}")
    witness = report["details"]["residually_finite"]["witness"]
    order = witness["generator_edges"]
    if sorted(order) != sorted(case.holonomy):
        return out.fail(f"generator edges {order} differ from {sorted(case.holonomy)}")
    gens = {i + 1: case.holonomy[e] for i, e in enumerate(order)}
    if status == "yes":
        c = _rat(witness["conjugator"])
        try:
            cinv = inverse(c)
        except ZeroDivisionError:
            return out.fail("conjugator is singular")
        for e, h in case.holonomy.items():
            conj = matmul(matmul(cinv, h), c)
            if not is_integral(conj) or abs(det(conj)) != 1:
                out.fail(f"conjugated holonomy of {e} is not in GL(n, Z)")
    else:
        word = witness["word"]
        if not word or any(not 1 <= abs(s) <= len(gens) for s in word):
            return out.fail(f"bad certificate word {word}")
        m = word_matrix(gens, word)
        if m != _rat(witness["matrix"]):
            out.fail("certificate matrix is not the product along its word")
        if not obstructs(m):
            out.fail("certificate matrix has |det| = 1 and an integral char poly")
    return out


def check_separation(result: dict | None, case) -> Outcome:
    """separate: None stands for the oracle's "none". A certificate must give
    a full-rank phi-invariant K with a valid r and g2 outside <g1> + K."""
    out = Outcome()
    if result is None:
        if case.separable:
            out.status = "unknown"
        return out
    if not case.separable:
        out.fail("certificate returned for a pair built to be non-separable")
    basis = [tuple(c) for c in result["k_basis"]]
    n = len(case.phi)
    if len(basis) != n:
        return out.fail("K is not full rank")
    bm = columns_matrix(basis)
    index = abs(det(bm))
    if index == 0:
        return out.fail("K basis is singular")
    index = int(index)
    binv = inverse(bm)
    phi = case.phi
    if not all(in_lattice(binv, matvec(phi, b)) for b in basis):
        out.fail("K is not phi-invariant")
    r = result["r"]
    if not isinstance(r, int) or r < 1:
        return out.fail(f"bad exponent r = {r}")
    # phi^r must act trivially on Z^n / K; index * Z^n lies in K, so entries mod index suffice
    pr = mat_pow_mod(phi, r, index)
    for j in range(n):
        col = tuple((int(i == j) - pr[i][j]) for i in range(n))
        if not in_lattice(binv, col):
            out.fail("a - phi^r(a) escapes K")
            break
    if math.prod(result["quotient_invariants"]) != index:
        out.fail("quotient invariants do not multiply to |Z^n : K|")
    if in_cyclic_plus_lattice(binv, index, case.g1, case.g2):
        out.fail("g2 lies in <g1> + K")
    return out
