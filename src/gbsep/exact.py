"""Exact integer and rational linear algebra.

Column Hermite and Smith normal forms, fraction-free characteristic
polynomials, and sublattice arithmetic in Z^r, all on Python's
arbitrary-precision integers. Every value here is immutable and every
operation is a pure function, so the module is safe to use concurrently.

Conventions:
  * matrices are row-major; lattices are spanned by COLUMN vectors;
  * HNF is column-style lower-left echelon: pivot rows strictly increase,
    entries above a pivot are zero, pivots are positive, and in each pivot
    row the entries left of the pivot are reduced into [0, pivot);
  * the zero lattice is a first-class value (empty basis, explicit rank).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .ntheory import binary_power, factorize

Vector = tuple[int, ...]


class CertificateError(ArithmeticError):
    """An internal check failed: a certificate did not verify or a
    construction broke an invariant it guarantees. Raised explicitly, so the
    check survives python -O."""


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix:
    """Immutable matrix over Z."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        tup = tuple(tuple(int(x) for x in row) for row in rows)
        if tup and any(len(r) != len(tup[0]) for r in tup):
            raise ValueError("ragged rows")
        self.rows = tup

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, r: int, c: int) -> "IntMatrix":
        return cls(((0,) * c,) * r)

    @classmethod
    def from_columns(cls, cols: Sequence[Vector], nrows: int) -> "IntMatrix":
        return cls(tuple(tuple(col[i] for col in cols) for i in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def n(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(self.column(j) for j in range(self.ncols))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.rows))!r})"

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(-a for a in r) for r in self.rows)

    def __rmul__(self, k: int) -> "IntMatrix":
        return IntMatrix(tuple(k * a for a in r) for r in self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        bt = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in self.rows
        )

    def apply(self, v: Sequence[int]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(sum(x * y for x, y in zip(row, v)) for row in self.rows)

    def __pow__(self, e: int) -> "IntMatrix":
        if e < 0:
            raise ValueError("negative power of an integer matrix")
        return binary_power(self, e, operator.matmul, IntMatrix.identity(self.n))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        n = self.n
        if n == 0:
            return 1
        a = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def charpoly(self) -> "IntPolynomial":
        """Monic characteristic polynomial det(xI - M).

        Faddeev-LeVerrier recursion; every interior division is exact,
        so no rational intermediates appear.
        """
        n = self.n
        coeffs = [0] * (n + 1)
        coeffs[n] = 1
        if n == 0:
            return IntPolynomial(coeffs)
        ident = IntMatrix.identity(n)
        acc = self
        c = -acc.trace()
        coeffs[n - 1] = c
        for k in range(2, n + 1):
            acc = self @ (acc + c * ident)
            t = acc.trace()
            if t % k:
                raise ArithmeticError("non-exact division in charpoly")
            c = -t // k
            coeffs[n - k] = c
        return IntPolynomial(coeffs)

    def is_unimodular(self) -> bool:
        return self.nrows == self.ncols and abs(self.det()) == 1


# ---------------------------------------------------------------------------
# integer polynomials


class IntPolynomial:
    """Integer polynomial, coefficient list ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(other * x for x in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPolynomial":
        out = IntPolynomial((1,))
        for _ in range(e):
            out = out * self
        return out

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def at_matrix(self, m: IntMatrix) -> IntMatrix:
        """Evaluate at a square integer matrix (Horner)."""
        n = m.n
        out = IntMatrix.zeros(n, n)
        for c in reversed(self.coeffs):
            out = out @ m + c * IntMatrix.identity(n)
        return out

    def divmod_monic(self, d: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Division with remainder by a monic divisor (stays in Z[x])."""
        if not d.is_monic:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dd = d.degree
        q = [0] * max(0, len(rem) - dd)
        for i in range(len(rem) - dd - 1, -1, -1):
            f = rem[i + dd]
            if f:
                q[i] = f
                for j, c in enumerate(d.coeffs):
                    rem[i + j] -= f * c
        return IntPolynomial(q), IntPolynomial(rem[:dd])

    def divides(self, other: "IntPolynomial") -> bool:
        if self.is_zero:
            return other.is_zero
        if not self.is_monic:
            raise ValueError("divisibility test implemented for monic arguments")
        _, r = other.divmod_monic(self)
        return r.is_zero

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def sort_key(self) -> tuple:
        return (self.degree, self.coeffs)

    def to_text(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.to_text()})"


# ---------------------------------------------------------------------------
# rational matrices


class RatMatrix:
    """Rational matrix stored as num/den with den > 0 and content coprime to den."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntMatrix, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = den
        for row in num.rows:
            for x in row:
                g = math.gcd(g, x)
                if g == 1:
                    break
            if g == 1:
                break
        if g > 1:
            num = IntMatrix(tuple(x // g for x in row) for row in num.rows)
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(IntMatrix.identity(n))

    @property
    def n(self) -> int:
        return self.num.n

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def to_int(self) -> IntMatrix:
        if not self.is_integral:
            raise ValueError("matrix is not integral")
        return self.num

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatMatrix({self.num!r}, den={self.den})"

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if isinstance(other, IntMatrix):
            other = RatMatrix(other)
        return RatMatrix(self.num @ other.num, self.den * other.den)

    def det(self) -> Fraction:
        return Fraction(self.num.det(), self.den ** self.num.n)

    def inverse(self) -> "RatMatrix":
        d, b = _adjugate(self.num)
        return RatMatrix(self.den * b, d)

    def charpoly_fractions(self) -> tuple[Fraction, ...]:
        """Ascending coefficients of det(xI - M) over Q.

        For M = N/s the coefficient of x^j is c_j(N) / s^(n-j).
        """
        n = self.num.n
        base = self.num.charpoly().coeffs
        return tuple(Fraction(base[j], self.den ** (n - j)) for j in range(n + 1))

    def has_integer_charpoly(self) -> bool:
        return all(c.denominator == 1 for c in self.charpoly_fractions())


def _adjugate(m: IntMatrix) -> tuple[int, IntMatrix]:
    """(d, B) with m @ B == d * I and d = +-det m; ZeroDivisionError when m
    is singular. Fraction-free (Bareiss) Gauss-Jordan on [m | I]: after step
    k every entry is a (k+1)-minor of the row-permuted [m | I] (Sylvester's
    identity), so each division by the previous pivot is exact."""
    n = m.n
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m.rows)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        pk = a[k]
        d = pk[k]
        for i in range(n):
            if i != k:
                c = a[i][k]
                a[i] = [(d * x - c * y) // prev for x, y in zip(a[i], pk)]
        prev = d
    return prev, IntMatrix(tuple(r[n:] for r in a))


def int_inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix; ValueError otherwise."""
    d, b = _adjugate(m)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return d * b


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms


def _axpy(dst: list, src: list, k: int) -> None:
    for i in range(len(dst)):
        dst[i] += k * src[i]


def _hnf_data(rows: tuple, ncols: int) -> tuple[list, list, list]:
    """Column HNF working data: (columns, transform columns, pivot rows)."""
    nrows = len(rows)
    cols = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    u = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    pivots: list[int] = []
    pc = 0
    for row in range(nrows):
        if pc == ncols:
            break
        while True:
            best = -1
            for j in range(pc, ncols):
                v = cols[j][row]
                if v != 0 and (best < 0 or abs(v) < abs(cols[best][row])):
                    best = j
            if best < 0:
                break
            if best != pc:
                cols[pc], cols[best] = cols[best], cols[pc]
                u[pc], u[best] = u[best], u[pc]
            if cols[pc][row] < 0:
                cols[pc] = [-x for x in cols[pc]]
                u[pc] = [-x for x in u[pc]]
            p = cols[pc][row]
            dirty = False
            for j in range(pc + 1, ncols):
                v = cols[j][row]
                if v:
                    q = v // p
                    _axpy(cols[j], cols[pc], -q)
                    _axpy(u[j], u[pc], -q)
                    if cols[j][row]:
                        dirty = True
            if not dirty:
                for k in range(pc):
                    q = cols[k][row] // p
                    if q:
                        _axpy(cols[k], cols[pc], -q)
                        _axpy(u[k], u[pc], -q)
                pivots.append(row)
                pc += 1
                break
    return cols, u, pivots


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form: H = M @ U with U unimodular.

    Pivot columns come first, zero columns last; H is canonical for the
    column lattice of M.
    """
    cols, u, _ = _hnf_data(m.rows, m.ncols)
    h = IntMatrix.from_columns([tuple(c) for c in cols], m.nrows)
    ut = IntMatrix.from_columns([tuple(c) for c in u], m.ncols)
    return h, ut


def kernel(m: IntMatrix) -> "Lattice":
    """Saturated lattice {v in Z^ncols : Mv = 0}."""
    cols, u, pivots = _hnf_data(m.rows, m.ncols)
    basis = [tuple(u[j]) for j in range(len(pivots), m.ncols)]
    return Lattice.from_columns(m.ncols, basis)


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: S = U @ M @ V diagonal with d1 | d2 | ..., di >= 0."""
    nr, nc = m.nrows, m.ncols
    a = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, k, q):  # row_i -= q * row_k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_op(j, k, q):  # col_j -= q * col_k
        for r in a:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    t = 0
    while t < min(nr, nc):
        # locate a minimal nonzero entry in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        clean = True
        for i in range(t + 1, nr):
            if a[i][t]:
                row_op(i, t, a[i][t] // a[t][t])
                if a[i][t]:
                    clean = False
        for j in range(t + 1, nc):
            if a[t][j]:
                col_op(j, t, a[t][j] // a[t][t])
                if a[t][j]:
                    clean = False
        if not clean:
            continue
        # enforce divisibility of the trailing block by the pivot
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to pivot row
            continue
        t += 1
    s = IntMatrix(tuple(tuple(r) for r in a))
    return s, IntMatrix(tuple(tuple(r) for r in u)), IntMatrix(tuple(tuple(r) for r in v))


# ---------------------------------------------------------------------------
# lattices in Z^r


def _solve_echelon(basis: tuple[Vector, ...], pivots: tuple[int, ...], v: Sequence[int]) -> Optional[list[int]]:
    """Solve basis @ x = v over Z for an echelon basis; None if unsolvable."""
    rem = list(v)
    x = [0] * len(basis)
    for j, col in enumerate(basis):
        p = pivots[j]
        q, r = divmod(rem[p], col[p])
        if r:
            return None
        if q:
            x[j] = q
            for i in range(p, len(rem)):
                rem[i] -= q * col[i]
    return x if not any(rem) else None


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^ambient_rank, basis columns in canonical column HNF."""

    ambient_rank: int
    basis: tuple[Vector, ...]

    @classmethod
    def from_columns(cls, ambient_rank: int, cols: Iterable[Sequence[int]]) -> "Lattice":
        cols = [tuple(int(x) for x in c) for c in cols]
        for c in cols:
            if len(c) != ambient_rank:
                raise ValueError("dimension mismatch")
        if not cols:
            return cls(ambient_rank, ())
        m = IntMatrix.from_columns(cols, ambient_rank)
        hcols, _, pivots = _hnf_data(m.rows, m.ncols)
        return cls(ambient_rank, tuple(tuple(c) for c in hcols[: len(pivots)]))

    @classmethod
    def zero(cls, ambient_rank: int) -> "Lattice":
        return cls(ambient_rank, ())

    @classmethod
    def full(cls, ambient_rank: int) -> "Lattice":
        return cls.scaled(ambient_rank, 1)

    @classmethod
    def scaled(cls, ambient_rank: int, m: int) -> "Lattice":
        """m * Z^r."""
        if m <= 0:
            raise ValueError("scale must be positive")
        return cls(ambient_rank, tuple(
            tuple(m if i == j else 0 for i in range(ambient_rank)) for j in range(ambient_rank)
        ))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_full_rank(self) -> bool:
        return self.rank == self.ambient_rank

    def pivot_rows(self) -> tuple[int, ...]:
        return tuple(next(i for i, x in enumerate(col) if x) for col in self.basis)

    def basis_matrix(self) -> IntMatrix:
        return IntMatrix.from_columns(self.basis, self.ambient_rank)

    def coordinates(self, v: Sequence[int]) -> Optional[list[int]]:
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        if not self.basis:
            return [] if not any(v) else None
        return _solve_echelon(self.basis, self.pivot_rows(), v)

    def contains(self, v: Sequence[int]) -> bool:
        return self.coordinates(v) is not None

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(b) for b in other.basis)

    def add(self, other: "Lattice") -> "Lattice":
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("dimension mismatch")
        return Lattice.from_columns(self.ambient_rank, self.basis + other.basis)

    def intersect(self, other: "Lattice") -> "Lattice":
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("dimension mismatch")
        if not self.basis or not other.basis:
            return Lattice.zero(self.ambient_rank)
        rows = tuple(
            tuple(col[i] for col in self.basis) + tuple(-col[i] for col in other.basis)
            for i in range(self.ambient_rank)
        )
        ker = kernel(IntMatrix(rows))
        k1 = len(self.basis)
        bm = self.basis_matrix()
        vecs = [bm.apply(w[:k1]) for w in ker.basis]
        return Lattice.from_columns(self.ambient_rank, vecs)

    def index_in(self, sup: "Lattice") -> Optional[int]:
        """|sup / self| when finite, None when infinite; self must lie in sup."""
        if not sup.contains_lattice(self):
            raise ValueError("index requires nested lattices")
        if self.rank < sup.rank:
            return None
        pivots = sup.pivot_rows()
        coords = [_solve_echelon(sup.basis, pivots, b) for b in self.basis]
        c = IntMatrix.from_columns([tuple(x) for x in coords], sup.rank)
        return abs(c.det())

    def saturate(self) -> "Lattice":
        """(Q-span of self) intersected with Z^r."""
        if not self.basis:
            return self
        bt = IntMatrix(tuple(zip(*self.basis_matrix().rows)))
        ann = kernel(bt)  # integer vectors orthogonal to the span
        if not ann.basis:
            return Lattice.full(self.ambient_rank)
        annt = IntMatrix(tuple(zip(*ann.basis_matrix().rows)))
        return kernel(annt)

    def __repr__(self) -> str:
        return f"Lattice(rank {self.rank} in Z^{self.ambient_rank}, basis={list(self.basis)!r})"


def image(m: IntMatrix, lat: Lattice) -> Lattice:
    """Lattice M(L)."""
    if m.ncols != lat.ambient_rank:
        raise ValueError("dimension mismatch")
    return Lattice.from_columns(m.nrows, [m.apply(b) for b in lat.basis])


def preimage(m: IntMatrix, lat: Lattice) -> Lattice:
    """Lattice {v in Z^ncols : Mv in L}."""
    if m.nrows != lat.ambient_rank:
        raise ValueError("dimension mismatch")
    if not lat.basis:
        return kernel(m)
    rows = tuple(
        m.rows[i] + tuple(-col[i] for col in lat.basis) for i in range(m.nrows)
    )
    ker = kernel(IntMatrix(rows))
    return Lattice.from_columns(m.ncols, [w[: m.ncols] for w in ker.basis])


# ---------------------------------------------------------------------------
# finite quotients Z^n / K


@dataclass(frozen=True)
class QuotientStructure:
    """Z^n / K as a direct sum of Z/d_i with an explicit coordinate map."""

    invariant_factors: tuple[int, ...]
    transform: IntMatrix  # v + K  <->  (transform @ v) mod d, coordinatewise

    @property
    def size(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.invariant_factors) if self.invariant_factors else 1

    def coords(self, v: Sequence[int]) -> Vector:
        w = self.transform.apply(v)
        return tuple(x % d for x, d in zip(w, self.invariant_factors))

    def order(self, v: Sequence[int]) -> int:
        c = self.transform.apply(v)
        return math.lcm(*(d // math.gcd(d, x) for x, d in zip(c, self.invariant_factors))) if c else 1


@lru_cache(maxsize=65536)
def quotient_structure(k: Lattice) -> QuotientStructure:
    """Structure of the finite group Z^n / K for a full-rank sublattice K."""
    if not k.is_full_rank:
        raise ValueError("quotient is infinite: K is not full rank")
    s, u, _ = snf(k.basis_matrix())
    d = tuple(s.rows[i][i] for i in range(k.ambient_rank))
    return QuotientStructure(d, u)


# ---------------------------------------------------------------------------
# multiplicative orders of integer matrices modulo m


def _mat_mod(rows: tuple, m: int) -> tuple:
    return tuple(tuple(x % m for x in r) for r in rows)


def _mat_mul_mod(a: tuple, b: tuple, m: int) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) % m for col in bt) for row in a)


def _mat_pow_mod(a: tuple, e: int, m: int) -> tuple:
    n = len(a)
    one = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return binary_power(a, e, lambda x, y: _mat_mul_mod(x, y, m), one)


def _aut_order_factors(p: int, exps: Sequence[int]) -> dict[int, int]:
    """Prime factorization of |Aut(Z/p^e_1 + ... + Z/p^e_k)|, a multiple of
    the order of every automorphism (Hillar-Rhea, Automorphisms of finite
    abelian groups, Amer. Math. Monthly 2007). With e_1 <= ... <= e_k,
    d_j = max{l : e_l = e_j} and c_j = min{l : e_l = e_j}, it is the product
    over j of (p^d_j - p^(j-1)) p^(e_j (k - d_j)) p^((e_j - 1)(k - c_j + 1))."""
    e = sorted(exps)
    k = len(e)
    fac = {p: 0}
    for j, ej in enumerate(e, 1):
        dj = k - e[::-1].index(ej)
        cj = e.index(ej) + 1
        # p^d_j - p^(j-1) = p^(j-1) (p^(d_j-j+1) - 1)
        fac[p] += (j - 1) + ej * (k - dj) + (ej - 1) * (k - cj + 1)
        for q, a in factorize(p ** (dj - j + 1) - 1).items():
            fac[q] = fac.get(q, 0) + a
    return {q: a for q, a in fac.items() if a}


def _order_from_multiple(rows: tuple, modulus: int, fac: dict[int, int],
                         is_identity: Callable[[tuple], bool]) -> int:
    """Least r >= 1 with is_identity(M^r mod modulus), for an M whose order
    divides the product of q^a over fac: per prime q, raise M to the part of
    that product prime to q, then count the q-th powers to the identity."""
    e = math.prod(q ** a for q, a in fac.items())
    r = 1
    for q, a in fac.items():
        y = _mat_pow_mod(rows, e // q ** a, modulus)
        k = 0
        while not is_identity(y):
            if k == a:
                raise ArithmeticError("element order does not divide the group order")
            y = _mat_pow_mod(y, q, modulus)
            k += 1
        r *= q ** k
    return r


def _induced_order(m: IntMatrix, qs: QuotientStructure) -> int:
    """Least r >= 1 with M^r the identity on Z^n/K, where qs describes Z^n/K
    and M induces an automorphism of it: the lcm, over the primes p of the
    exponent of Z^n/K, of the order on the p-part, found by stripping |Aut|
    of that part. Matrix entries live mod the p-part of the exponent."""
    n = m.n
    r = 1
    for p, top in factorize(qs.exponent).items():
        q = p ** top
        vals = []
        for d in qs.invariant_factors:
            v = 0
            while d % p == 0:
                d //= p
                v += 1
            vals.append(v)
        mods = [p ** v for v in vals]

        def fixes(y: tuple) -> bool:
            for j in range(n):
                w = qs.transform.apply([y[i][j] - (i == j) for i in range(n)])
                if any(x % md for x, md in zip(w, mods)):
                    return False
            return True

        fac = _aut_order_factors(p, [v for v in vals if v])
        r = math.lcm(r, _order_from_multiple(_mat_mod(m.rows, q), q, fac, fixes))
    return r


@lru_cache(maxsize=4096)
def mod_m_order(m: IntMatrix, modulus: int) -> Optional[int]:
    """Least r >= 1 with M^r = I (mod modulus); None when no order exists.

    An order exists iff gcd(det M, modulus) = 1.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if math.gcd(m.det() % modulus, modulus) != 1:
        return None
    return _induced_order(m, QuotientStructure((modulus,) * m.n, IntMatrix.identity(m.n)))
