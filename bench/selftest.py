"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Checks that the input generators keep the invariants the expected answers
rest on, that the reference checker rejects tampered gbsep outputs, that
every workload runs error-free for a moment, and that tracing accounts for
each traced request. Exits 1 on the first failed check.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def check_ascending_invariants():
    """Eisenstein first blocks are degenerate at their prime; the first
    block's span is phi-invariant and saturated; charpoly(phi) is the
    product of the factor table."""
    for seed in range(30):
        rng = random.Random(seed)
        n = 2 + seed % 5
        case = wl.ascending_case(rng, n, ("degenerate", "nondegenerate", "unimodular")[seed % 3])
        expect(ref.charpoly(ref.frac_matrix(case.phi)) == tuple(map(Fraction, case.poly)),
               "charpoly(phi) differs from the block product")
        product = (1,)
        for f, (mult, _, _) in case.factors.items():
            for _ in range(mult):
                product = ref.poly_mul(product, f)
        expect(product == case.poly, "factor table does not multiply to the char poly")
        expect(abs(ref.det(ref.frac_matrix(case.phi))) == case.d, "d is not |det phi|")
        p_mat = ref.columns_matrix(case.basis)
        expect(abs(ref.det(p_mat)) == 1, "basis is not unimodular, so the first block is not saturated")
        k, p = case.first_block
        induced = ref.matmul(ref.matmul(ref.inverse(p_mat), ref.frac_matrix(case.phi)), p_mat)
        expect(all(induced[i][j] == 0 for i in range(k, n) for j in range(k)),
               "first block span is not phi-invariant")
        block = tuple(tuple(int(x) for x in r[:k]) for r in induced[:k])
        f = tuple(int(c) for c in ref.charpoly(ref.frac_matrix(block)))
        if p:
            expect(all(c % p == 0 for c in f[:-1]) and f[0] % (p * p) != 0,
                   f"first block {f} is not Eisenstein at {p}")
            expect(case.factors[f][1] % p == 0, "Eisenstein block not degenerate at its prime")
        for g, (_, gcd, primes) in case.factors.items():
            expect(gcd == ref.non_leading_gcd(g), "recorded gcd is wrong")
            expect(all(gcd % q == 0 for q in primes) and (gcd == 1) == (not primes),
                   "recorded primes do not match the gcd")


def check_factor_invariants():
    for seed in range(20):
        rng = random.Random(seed)
        bits = 40 if seed % 2 else 0
        case = wl.factor_case(rng, rng.randint(6, 12), bits)
        expect(len(case.poly) - 1 <= 12, "degree above 12")
        if bits:
            expect(0.8 * 2 ** bits <= abs(case.poly[0]) < 2 ** bits,
                   f"constant term {case.poly[0]} is not just below 2^{bits}")


def check_separation_invariants():
    for seed in range(30):
        rng = random.Random(seed)
        case = wl.separation_input(rng, 2 + seed % 2, (2, 3, 5)[seed % 3])
        n = len(case.phi)
        expect(case.d == case.first_block[1] and len(case.factors) == 2, "d is not p or the chain is not 2 long")
        for separable in (True, False):
            pair = wl.separation_case(rng, case, separable, 20)
            if separable:
                x = math.gcd(*pair.g1)
                expect(math.gcd(x, case.d) == 1, "x shares a factor with d")
                scaled_inv = ref.inverse(ref.frac_matrix([[x * (i == j) for j in range(n)] for i in range(n)]))
                expect(not ref.in_cyclic_plus_lattice(scaled_inv, x ** n, pair.g1, pair.g2),
                       "xA does not separate the pair")
            else:
                k, p = case.first_block
                expect(pair.g1 == tuple(p * v for v in pair.g2), "g1 is not p * g2")
                coords = ref.matvec(ref.inverse(ref.columns_matrix(case.basis)), pair.g2)
                expect(all(c == 0 for c in coords[k:]), "a is outside the first block")


def check_general_invariants():
    """Deep no-cases: every generator alone passes, a short word fails."""
    for seed in range(6):
        rng = random.Random(seed)
        case = wl.general_case(rng, 2 + seed % 2, 2, "no-deep")
        gens = {i + 1: h for i, h in enumerate(case.holonomy.values())}
        for g in gens.values():
            expect(not ref.obstructs(g), "a single generator already obstructs")
        expect(wl._first_obstruction(gens, 3) is not None, "no short obstruction word")


def _answers(stream, count):
    """(request, exit code, answer) for the first `count` requests."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        harness = run.Harness(Path(tmp))
        out = []
        for req in itertools.islice(stream, count):
            harness.prepare(req)
            code, answer, exc = harness.send(req)
            expect(exc is None and code == 0, f"{req.stratum} failed: {exc!r} exit {code}")
            expect(run.check(req, code, answer, exc).status == "ok", f"{req.stratum} not ok")
            out.append((req, code, answer))
        return out


def _tampered_is_error(req, answer, edit, what):
    doc = json.loads(answer)
    edit(doc)
    outcome = run.check(req, 0, json.dumps(doc), None)
    expect(outcome.status == "error", f"tampered {what} passed the checker")


def check_tampered_outputs():
    for req, _, answer in _answers(wl.ascending(5), 28):
        if req.kind == "factor":
            _tampered_is_error(req, answer, lambda d: d.update(separable_criterion=not d["separable_criterion"]),
                               "factor criterion")
            _tampered_is_error(req, answer, lambda d: d["factors"].pop(), "factor list")
            _tampered_is_error(req, answer, lambda d: d["factors"][0].update(
                degeneracy_gcd=d["factors"][0]["degeneracy_gcd"] + 1), "factor gcd")
            continue
        _tampered_is_error(req, answer, lambda d: d["verdicts"].update(css="maybe"), "css verdict")
        _tampered_is_error(req, answer, lambda d: d["char_poly"].__setitem__(0, d["char_poly"][0] + 1), "char poly")
        if not req.case.css:
            def zero(d):
                w = d["details"]["cyclic_subgroup_separable"]["witness"]["nonseparable"][0]
                w["vector"] = [0] * len(w["vector"])
                w["subgroup_generator"] = w["vector"]
            _tampered_is_error(req, answer, zero, "nonseparable witness (zero)")
            doc = json.loads(answer)
            f = doc["details"]["cyclic_subgroup_separable"]["witness"]["failing"][0]["factor"]
            f_phi = ref.poly_at_matrix(f, req.case.phi)
            n = len(req.case.phi)
            outside = [j for j in range(n) if any(row[j] for row in f_phi)]
            if outside:  # when f(phi) = 0 every nonzero vector is a valid witness
                def move(d, j=outside[0]):
                    w = d["details"]["cyclic_subgroup_separable"]["witness"]["nonseparable"][0]
                    w["vector"] = [int(i == j) for i in range(n)]
                    w["subgroup_generator"] = [w["p"] * x for x in w["vector"]]
                _tampered_is_error(req, answer, move, "nonseparable witness (outside the block)")
    kinds = set()
    for req, _, answer in _answers(wl.general(5), 15):
        kinds.add(req.case.expect)
        witness_path = ("details", "residually_finite", "witness")

        def witness(d):
            return d[witness_path[0]][witness_path[1]][witness_path[2]]

        _tampered_is_error(req, answer, lambda d: d["verdicts"].update(
            residually_finite="no" if req.case.expect == "yes" else "yes"), "general verdict")
        if req.case.expect == "yes":
            def skew(d):
                witness(d)["conjugator"]["num"][0][0] += witness(d)["conjugator"]["den"] * 7 + 1
            _tampered_is_error(req, answer, skew, "conjugator")
        else:
            def lengthen(d):
                word = witness(d)["word"]
                word.append(-word[-1] if len(word) == 1 else word[0])
            _tampered_is_error(req, answer, lengthen, "obstruction word")
    expect(kinds == {"yes", "no"}, "general stream lacks a yes or a no case")
    for req, _, answer in _answers(wl.separate_cold(5), 12):
        if answer.startswith("none"):
            expect(not req.case.separable, "separable pair answered none")
            n = len(req.case.phi)
            fake = {"k_basis": [[2 * (i == j) for i in range(n)] for j in range(n)], "r": 1,
                    "quotient_invariants": [2] * n}
            expect(run.check(req, 0, json.dumps(fake), None).status == "error",
                   "certificate for a non-separable pair passed")
            continue
        _tampered_is_error(req, answer, lambda d: d.update(
            k_basis=[[int(i == j) for i in range(len(d["k_basis"]))] for j in range(len(d["k_basis"]))],
            quotient_invariants=[1] * len(d["k_basis"])), "K basis")
    sep = next(r for r, _, a in _answers(wl.separate_cold(5), 3) if r.case.separable)
    expect(run.check(sep, 0, "none (budget 20)\n", None).status == "unknown",
           "none on a separable pair is not counted as undecided")
    expect(run.check(sep, 2, "", None).status == "error", "exit code 2 is not an error")
    expect(run.check(sep, None, "", RuntimeError("boom")).status == "error", "exception is not an error")


def check_workloads_and_tracing():
    """Each workload runs error-free briefly, traced; per request the self
    times add up to the root span; uninstall restores gbsep."""
    import gbsep.exact
    import gbsep.quotient

    before = (gbsep.exact.Lattice.__dict__["scaled"], gbsep.quotient.quotient_structure)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        harness = run.Harness(Path(tmp))
        for name, make in wl.WORKLOADS.items():
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run.run_pass(harness, make(1), 0.5, math.inf, tracer)
            finally:
                tracer.uninstall()
            expect(traced.count > 0 and not traced.errors and not traced.unknown,
                   f"{name}: {[o.problems for _, o in traced.errors]}")
            parent = tracer.parent.tolist()
            dur = [e - s for s, e in zip(tracer.start.tolist(), tracer.end.tolist())]
            child = [0.0] * len(dur)
            for i, p in enumerate(parent):
                if p >= 0:
                    child[p] += dur[i]
            self_by_req, root_by_req = {}, {}
            for i, r in enumerate(tracer.request.tolist()):
                self_by_req[r] = self_by_req.get(r, 0.0) + dur[i] - child[i]
                if parent[i] < 0:
                    root_by_req[r] = root_by_req.get(r, 0.0) + dur[i]
            expect(set(root_by_req) == set(range(traced.count)), f"{name}: a request has no root span")
            for r, total in self_by_req.items():
                expect(abs(total - root_by_req[r]) < 1e-9, f"{name}: self times miss part of request {r}")
            expect(all(lat >= root_by_req[r] for r, lat in enumerate(traced.wall)),
                   f"{name}: a root span outlasts its request")
            metrics = tracing.layer_metrics(tracer, traced, traced)
            expect(abs(metrics["trace.accounted_ratio"][0] - 1) < 0.2, f"{name}: root spans miss request time")
            expect(metrics["trace.spans"][0] > 0, f"{name}: no spans")
    after = (gbsep.exact.Lattice.__dict__["scaled"], gbsep.quotient.quotient_structure)
    expect(before == after, "uninstall did not restore the traced attributes")


def main() -> int:
    checks = [check_ascending_invariants, check_factor_invariants, check_separation_invariants,
              check_general_invariants, check_tampered_outputs, check_workloads_and_tracing]
    for fn in checks:
        try:
            fn()
        except AssertionError as err:
            print(f"FAIL {fn.__name__}: {err}")
            return 1
        print(f"PASS {fn.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
