"""Command-line front end.

Subcommands:
  analyze FILE    decide residual finiteness, subgroup separability, and
                  cyclic subgroup separability; JSON or text report
  factor POLY     factor a monic integer polynomial (ascending coefficient
                  list, e.g. "[-5,-5,-1,1]") and report per-factor degeneracy
  separate FILE   search for a finite quotient separating <g1> from g2
                  inside the vertex group of an ascending input

Exit codes: 0 success; 1 unknown verdict under --strict; 2 malformed input;
3 separate called with g2 already in <g1>; 4 internal failure (a check
raised CertificateError or another ArithmeticError). Output is
deterministic (byte-identical across runs for fixed input and flags).
"""

from __future__ import annotations

import argparse
import json
import sys

from .css import AscendingHNN, invariant_chain
from .exact import IntMatrix, IntPolynomial
from .gog import Edge, LabeledGraphOfGroups, classify, reduce, validate
from .modular import Caps
from .pipeline import analyze, report_text
from .poly import degeneracy_test, factor_over_Q
from .quotient import NotASeparationInstance, separate_in_A


class SchemaError(ValueError):
    pass


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _parse_matrix(obj, rank: int, where: str) -> IntMatrix:
    _expect(isinstance(obj, list) and len(obj) == rank, f"{where}: expected {rank} rows")
    for i, row in enumerate(obj):
        _expect(isinstance(row, list) and len(row) == rank, f"{where}, row {i}: expected {rank} integers")
        for x in row:
            _expect(isinstance(x, int) and not isinstance(x, bool), f"{where}, row {i}: non-integer entry")
    return IntMatrix(obj)


def parse_input_document(doc: dict) -> tuple[LabeledGraphOfGroups, dict]:
    """Validate and build a graph from the JSON input document.

    Either {"rank": n, "vertices": [...], "edges": [...]} with per-edge
    row-major integer matrices incl_from/incl_to, or the shorthand
    {"rank": n, "ascending_hnn": matrix} for a one-loop graph.
    """
    _expect(isinstance(doc, dict), "input: expected a JSON object")
    _expect("rank" in doc, "input: missing field 'rank'")
    rank = doc["rank"]
    _expect(isinstance(rank, int) and rank >= 1, "rank: expected a positive integer")
    if "ascending_hnn" in doc:
        phi = _parse_matrix(doc["ascending_hnn"], rank, "ascending_hnn")
        g = LabeledGraphOfGroups(
            rank, ("v",), (Edge("t", "v", "v", IntMatrix.identity(rank), phi),)
        )
        return g, doc
    _expect("vertices" in doc, "input: missing field 'vertices'")
    _expect("edges" in doc, "input: missing field 'edges'")
    verts = doc["vertices"]
    _expect(isinstance(verts, list) and verts and all(isinstance(v, str) for v in verts),
            "vertices: expected a nonempty list of strings")
    edges = []
    _expect(isinstance(doc["edges"], list), "edges: expected a list")
    for idx, e in enumerate(doc["edges"]):
        where = f"edges[{idx}]"
        _expect(isinstance(e, dict), f"{where}: expected an object")
        for fld in ("id", "from", "to", "incl_from", "incl_to"):
            _expect(fld in e, f"{where}: missing field '{fld}'")
        _expect(isinstance(e["id"], str), f"{where}.id: expected a string")
        _expect(isinstance(e["from"], str) and isinstance(e["to"], str),
                f"{where}: endpoints must be vertex names")
        edges.append(Edge(
            e["id"], e["from"], e["to"],
            _parse_matrix(e["incl_from"], rank, f"{where}.incl_from"),
            _parse_matrix(e["incl_to"], rank, f"{where}.incl_to"),
        ))
    g = LabeledGraphOfGroups(rank, tuple(verts), tuple(edges))
    return g, doc


def _load_graph(path: str) -> tuple[LabeledGraphOfGroups, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    g, echo = parse_input_document(doc)
    errors = validate(g)
    if errors:
        raise SchemaError("; ".join(errors))
    return g, echo


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_vector(text: str, rank: int, name: str) -> tuple[int, ...]:
    raw = text.strip()
    try:
        if raw.startswith("["):
            vals = json.loads(raw)
        else:
            vals = [int(x) for x in raw.split(",")]
        vals = [int(x) for x in vals]
    except (ValueError, json.JSONDecodeError):
        raise SchemaError(f"{name}: expected comma-separated integers or a JSON list")
    if len(vals) != rank:
        raise SchemaError(f"{name}: expected {rank} entries")
    return tuple(vals)


def _parse_poly(text: str) -> IntPolynomial:
    try:
        vals = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"polynomial: invalid JSON list: {e.msg}")
    _expect(isinstance(vals, list) and vals, "polynomial: expected a nonempty JSON list")
    for x in vals:
        _expect(isinstance(x, int) and not isinstance(x, bool), "polynomial: non-integer coefficient")
    p = IntPolynomial(vals)
    _expect(not p.is_zero, "polynomial: zero polynomial")
    _expect(p.is_monic, "polynomial: leading coefficient must be 1")
    return p


def cmd_analyze(args) -> int:
    g, echo = _load_graph(args.file)
    caps = Caps(word_len=args.cap_words, saturation_steps=args.cap_saturation)
    report = analyze(g, caps, input_echo=echo)
    if args.json:
        sys.stdout.write(_dump_json(report.to_json_dict()))
    else:
        sys.stdout.write(report_text(report))
    if args.strict and "unknown" in (
        report.residually_finite.status,
        report.subgroup_separable.status,
        report.cyclic_subgroup_separable.status,
    ):
        return 1
    return 0


def cmd_factor(args) -> int:
    p = _parse_poly(args.poly)
    fact = factor_over_Q(p)
    deg = degeneracy_test(fact)
    if args.json:
        rows = []
        for row in deg.per_factor:
            rows.append({
                "coeffs": list(row.factor.coeffs),
                "multiplicity": row.multiplicity,
                "degeneracy_gcd": row.gcd,
                "degenerate_primes": list(row.primes),
                "all_primes_degenerate": row.all_primes,
            })
            if row.unfactored > 1:
                rows[-1]["unfactored_cofactor"] = row.unfactored
        sys.stdout.write(_dump_json({
            "input": list(p.coeffs),
            "factors": rows,
            "separable_criterion": deg.separable,
        }))
    else:
        sys.stdout.write(f"input: {p.to_text()}\n")
        for row in deg.per_factor:
            mult = f" ^{row.multiplicity}" if row.multiplicity > 1 else ""
            if row.all_primes:
                detail = "gcd 0, degenerate at every prime"
            elif row.primes:
                detail = f"gcd {row.gcd}, primes {{{', '.join(map(str, row.primes))}}}"
            elif row.unfactored == 1:
                detail = f"gcd {row.gcd}, non-degenerate"
            else:
                detail = f"gcd {row.gcd}"
            if row.unfactored > 1:
                detail += f", unfactored {row.unfactored}"
            sys.stdout.write(f"factor: {row.factor.to_text()}{mult} ({detail})\n")
        sys.stdout.write(f"criterion: {'pass' if deg.separable else 'fail'}\n")
    return 0


def cmd_separate(args) -> int:
    g, _ = _load_graph(args.file)
    reduced, log = reduce(g)
    cls = classify(reduced, log)
    if cls.kind != "ascending_hnn":
        raise SchemaError("separate requires an ascending HNN input (one loop, a unimodular side)")
    h = AscendingHNN.of(cls.phi)
    g1 = _parse_vector(args.g1, h.n, "--g1")
    g2 = _parse_vector(args.g2, h.n, "--g2")
    chain = invariant_chain(h)
    try:
        spec = separate_in_A(h.phi, chain, g1, g2, args.budget)
    except NotASeparationInstance:
        sys.stderr.write("not a separation instance: g2 lies in <g1>\n")
        return 3
    if spec is None:
        sys.stdout.write(f"none (budget {args.budget})\n")
        return 0
    if args.json:
        sys.stdout.write(_dump_json({
            "k_basis": [list(c) for c in spec.lattice.basis],
            "r": spec.r,
            "quotient_invariants": list(spec.structure.invariant_factors),
            "verified": True,
        }))
    else:
        sys.stdout.write("separating quotient found\n")
        sys.stdout.write(f"K basis columns: {[list(c) for c in spec.lattice.basis]}\n")
        sys.stdout.write(f"r: {spec.r}\n")
        sys.stdout.write("verified: g2 not in <g1> + K\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gbsep",
        description="Separability properties of rank-n generalized Baumslag-Solitar groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="deterministic JSON output")
        fmt.add_argument("--text", action="store_true", help="human-readable output (default)")

    pa = sub.add_parser("analyze", help="decide the three separability properties")
    pa.add_argument("file", help="JSON input document")
    add_output_flags(pa)
    pa.add_argument("--cap-words", type=int, default=6, metavar="N",
                    help="word length cap for the modular no-detector (default 6)")
    pa.add_argument("--cap-saturation", type=int, default=64, metavar="N",
                    help="step cap for the lattice saturation yes-detector (default 64)")
    pa.add_argument("--strict", action="store_true",
                    help="exit 1 when any verdict is unknown")
    pa.set_defaults(func=cmd_analyze)

    pf = sub.add_parser("factor", help="factor a monic integer polynomial")
    pf.add_argument("poly", help='ascending coefficient list, e.g. "[-5,-5,-1,1]"')
    add_output_flags(pf)
    pf.set_defaults(func=cmd_factor)

    ps = sub.add_parser("separate", help="separate <g1> from g2 in the vertex group")
    ps.add_argument("file", help="JSON input document (ascending)")
    ps.add_argument("--g1", required=True, metavar="VEC", help="generator, e.g. 2,0")
    ps.add_argument("--g2", required=True, metavar="VEC", help="element to separate, e.g. 1,0")
    ps.add_argument("--budget", type=int, default=50, metavar="N")
    add_output_flags(ps)
    ps.set_defaults(func=cmd_separate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:  # SchemaError, GraphValidationError and UnsupportedDegreeError too
        sys.stderr.write(f"error: {e}\n")
        return 2
    except ArithmeticError as e:  # CertificateError too: an internal check failed
        sys.stderr.write(f"internal error: {e}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
