"""Modular image of a rank-n GBS group and the GL(n,Z)-conjugacy test.

Each non-tree edge contributes one rational holonomy generator; vertex-group
elements act trivially on commensurated subgroups (vertex groups are
abelian), so the cycle holonomies generate the whole modular image.

Deciding conjugacy into GL(n,Z) runs two certificate-producing detectors:
a word search for an element whose determinant or characteristic polynomial
rules conjugacy out, and a lattice saturation whose stabilization exhibits an
invariant lattice. Neither detector ever guesses; exhausted caps yield an
honest "unknown".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import CertificateError, Lattice, RatMatrix
from .gog import LabeledGraphOfGroups, require_valid, spanning_tree


@dataclass(frozen=True)
class Caps:
    word_len: int = 6
    saturation_steps: int = 64
    max_index: int = 10 ** 9


@dataclass(frozen=True)
class ModularImage:
    base_vertex: str
    generators: tuple[RatMatrix, ...]        # one per non-tree edge, id order
    generator_edges: tuple[str, ...]
    tree_transport: tuple[tuple[str, RatMatrix], ...]  # vertex -> coords-at-base map


@dataclass(frozen=True)
class Certificate:
    """A word in the generators whose exact invariants forbid conjugacy."""

    word: tuple[int, ...]     # signed 1-based generator indices
    matrix: RatMatrix
    defect: str               # "determinant" | "charpoly"


@dataclass(frozen=True)
class ConjugacyResult:
    status: str                               # "yes" | "no" | "unknown"
    conjugator: RatMatrix | None = None
    invariant_lattice: Lattice | None = None
    certificate: Certificate | None = None
    diagnostics: dict | None = None


@dataclass(frozen=True)
class Verdict:
    """Tri-state answer with a reason code and a machine-checkable witness."""

    status: str               # "yes" | "no" | "unknown"
    reason: str
    witness: dict | None = None


def modular_generators(g: LabeledGraphOfGroups) -> ModularImage:
    """Holonomy generators of the modular image, one per fundamental cycle.

    Crossing an edge src->dst multiplies coordinates by incl_to @ incl_from^-1;
    the generator for a non-tree edge conjugates its crossing back to the
    base vertex along the spanning tree.
    """
    require_valid(g)
    tree = spanning_tree(g)
    transport: dict[str, RatMatrix] = {tree.base: RatMatrix.identity(g.rank)}

    def to_base(v: str) -> RatMatrix:
        if v in transport:
            return transport[v]
        e, forward = tree.parent[v]
        if forward:  # entered v = dst from src
            up = e.src
            step = (RatMatrix(e.incl_to) @ RatMatrix(e.incl_from).inverse()).inverse()
        else:
            up = e.dst
            step = RatMatrix(e.incl_to) @ RatMatrix(e.incl_from).inverse()
        transport[v] = to_base(up) @ step
        return transport[v]

    gens = []
    for e in tree.nontree_edges:
        crossing = RatMatrix(e.incl_to) @ RatMatrix(e.incl_from).inverse()
        gens.append(to_base(e.dst) @ crossing @ to_base(e.src).inverse())
    for v in g.vertices:
        to_base(v)
    return ModularImage(
        base_vertex=tree.base,
        generators=tuple(gens),
        generator_edges=tuple(e.id for e in tree.nontree_edges),
        tree_transport=tuple(sorted(transport.items())),
    )


# ---------------------------------------------------------------------------
# rational lattices (1/den) * L for the saturation phase


@dataclass(frozen=True)
class _ScaledLattice:
    den: int
    lat: Lattice

    @classmethod
    def standard(cls, n: int) -> "_ScaledLattice":
        return cls(1, Lattice.full(n))

    @classmethod
    def make(cls, den: int, lat: Lattice) -> "_ScaledLattice":
        g = den
        for col in lat.basis:
            for x in col:
                g = math.gcd(g, x)
            if g == 1:
                break
        if g > 1:
            lat = Lattice(lat.ambient_rank, tuple(tuple(x // g for x in col) for col in lat.basis))
            den //= g
        return cls(den, lat)

    def add(self, other: "_ScaledLattice") -> "_ScaledLattice":
        l = math.lcm(self.den, other.den)
        cols = [tuple(x * (l // self.den) for x in c) for c in self.lat.basis]
        cols += [tuple(x * (l // other.den) for x in c) for c in other.lat.basis]
        return _ScaledLattice.make(l, Lattice.from_columns(self.lat.ambient_rank, cols))

    def apply(self, m: RatMatrix) -> "_ScaledLattice":
        cols = [m.num.apply(c) for c in self.lat.basis]
        return _ScaledLattice.make(self.den * m.den, Lattice.from_columns(self.lat.ambient_rank, cols))

    def index_over_standard(self) -> int:
        # valid when Z^n is contained in self (always true along the saturation)
        n = self.lat.ambient_rank
        return self.den ** n // abs(self.lat.basis_matrix().det())

    def basis_rat(self) -> RatMatrix:
        return RatMatrix(self.lat.basis_matrix(), self.den)


def _verify_yes(basis: RatMatrix, gens: tuple[RatMatrix, ...]) -> bool:
    inv = basis.inverse()
    for g in gens:
        conj = inv @ g @ basis
        if not conj.is_integral or abs(conj.det()) != 1:
            return False
    return True


def _verify_certificate(cert: Certificate) -> bool:
    if cert.defect == "determinant":
        return abs(cert.matrix.det()) != 1
    return not cert.matrix.has_integer_charpoly()


def conjugate_into_GLnZ(gens: tuple[RatMatrix, ...], caps: Caps = Caps()) -> ConjugacyResult:
    """Decide whether <gens> < GL(n,Q) is conjugate into GL(n,Z).

    Phase 1 searches words up to caps.word_len for an exact obstruction
    (|det| != 1 or a non-integral characteristic polynomial). Phase 2
    saturates Z^n under the generators and their inverses; stabilization
    yields an invariant lattice and a verified conjugator.
    """
    if not gens:
        n = 1
    else:
        n = gens[0].n
        for g in gens:
            if g.det() == 0:
                raise ValueError("non-invertible generator")

    # phase 1: no-detector
    alphabet: list[tuple[int, RatMatrix]] = []
    for i, g in enumerate(gens):
        alphabet.append((i + 1, g))
        alphabet.append((-(i + 1), g.inverse()))
    frontier: list[tuple[RatMatrix, tuple[int, ...]]] = [(RatMatrix.identity(n), ())]
    seen = {frontier[0][0]}
    for _ in range(caps.word_len):
        nxt = []
        for mat, word in frontier:
            for sym, gmat in alphabet:
                m2 = mat @ gmat
                if m2 in seen:
                    continue
                seen.add(m2)
                w2 = word + (sym,)
                if abs(m2.det()) != 1:
                    cert = Certificate(w2, m2, "determinant")
                elif not m2.has_integer_charpoly():
                    cert = Certificate(w2, m2, "charpoly")
                else:
                    nxt.append((m2, w2))
                    continue
                if not _verify_certificate(cert):
                    raise CertificateError(f"{cert.defect} certificate failed verification")
                return ConjugacyResult("no", certificate=cert)
        frontier = nxt

    # phase 2: yes-detector by lattice saturation
    lat = _ScaledLattice.standard(n)
    trace = [1]
    for step in range(caps.saturation_steps):
        grown = lat
        for i, g in enumerate(gens):
            grown = grown.add(lat.apply(g))
            grown = grown.add(lat.apply(alphabet[2 * i + 1][1]))
        if grown == lat:
            basis = lat.basis_rat()
            if not _verify_yes(basis, gens):
                raise CertificateError("invariant lattice failed verification")
            return ConjugacyResult(
                "yes",
                conjugator=basis,
                invariant_lattice=Lattice.from_columns(n, lat.lat.basis),
            )
        lat = grown
        trace.append(lat.index_over_standard())
        if trace[-1] > caps.max_index:
            return ConjugacyResult(
                "unknown",
                diagnostics={"iterations": step + 1, "index_trace": trace, "stopped": "max_index"},
            )
    return ConjugacyResult(
        "unknown",
        diagnostics={"iterations": caps.saturation_steps, "index_trace": trace, "stopped": "saturation_steps"},
    )


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _rat_matrix_json(m: RatMatrix) -> dict:
    return {"num": [list(r) for r in m.num.rows], "den": m.den}


def virtually_Zn_by_free(g: LabeledGraphOfGroups, caps: Caps = Caps()) -> Verdict:
    """Is the group virtually Z^n-by-free?  Equivalent to the modular image
    being conjugate into GL(n,Z); a yes carries the invariant lattice witness."""
    img = modular_generators(g)
    res = conjugate_into_GLnZ(img.generators, caps)
    if res.status == "yes":
        return Verdict(
            "yes",
            reason="modular-image-conjugate-into-glnz",
            witness={
                "invariant_lattice": [list(c) for c in res.invariant_lattice.basis],
                "conjugator": _rat_matrix_json(res.conjugator),
                "generator_edges": list(img.generator_edges),
            },
        )
    if res.status == "no":
        cert = res.certificate
        return Verdict(
            "no",
            reason="modular-image-obstruction",
            witness={
                "word": list(cert.word),
                "matrix": _rat_matrix_json(cert.matrix),
                "defect": cert.defect,
                "det": _fraction_str(cert.matrix.det()),
                "generator_edges": list(img.generator_edges),
            },
        )
    return Verdict("unknown", reason="saturation-caps-exhausted", witness=res.diagnostics)
