"""Golden CLI snapshots: the stdout of `analyze`, `factor` and `separate`
(`--json` and `--text`) on the corpus of conftest.py, compared byte for byte
with the files under tests/golden/.

The cases are the 16 corpus graphs (`analyze`), the characteristic
polynomials of their edge matrices and of their ascending phi (`factor`),
and every ascending corpus graph x 3 pairs x budgets 20/50 (`separate`);
one pair per graph is its css-no witness when it has one, which is a full
non-separable scan. The input documents are committed under
tests/golden/inputs/, and a test checks them against the corpus.

A second case list, EXTRA_CASES, runs only `analyze` and `factor` (the
characteristic polynomial of the reduced phi) on committed inputs outside the
corpus: high-rank ascending inputs with several failing factors, a repeated
charpoly factor, (x - 1)(x - 2^31), which is squarefree over Q but not
modulo 2^31 - 1, and a loop whose incl_from is a non-identity unimodular
matrix. Their input documents are written once and never regenerated.

The test never writes files. Regenerate every snapshot with

    PYTHONPATH=src python tests/test_golden.py

Regenerating is allowed only for a deliberate output change, recorded in
CHANGES.md; a refactor must leave every snapshot unchanged.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gbsep.cli import main, parse_input_document
from gbsep.css import AscendingHNN, css_decide
from gbsep.gog import classify, reduce

from conftest import corpus_graphs

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = {"json": "json", "text": "txt"}


def graph_doc(g) -> dict:
    return {
        "rank": g.rank,
        "vertices": list(g.vertices),
        "edges": [{
            "id": e.id, "from": e.src, "to": e.dst,
            "incl_from": [list(r) for r in e.incl_from.rows],
            "incl_to": [list(r) for r in e.incl_to.rows],
        } for e in g.edges],
    }


def _vec(v) -> str:
    return ",".join(map(str, v))


def _separation_pairs(h: AscendingHNN) -> list:
    n = h.n
    e1 = (1,) + (0,) * (n - 1)
    pairs = [((2,) + (0,) * (n - 1), e1), ((3,) + (0,) * (n - 1), (2,) + (1,) * (n - 1))]
    witnesses = css_decide(h).nonseparable_witnesses
    if witnesses:
        pairs.append((witnesses[0].subgroup_generator, witnesses[0].vector))
    else:
        pairs.append(((1,) * n, e1))
    return pairs


def cases() -> dict[str, list[str]]:
    """Snapshot path (relative to tests/golden) -> CLI argv."""
    out = {}
    polys = []
    for name, g in corpus_graphs().items():
        inp = str(GOLDEN / "inputs" / f"{name}.json")
        for fmt, ext in FORMATS.items():
            out[f"analyze/{name}.{ext}"] = ["analyze", inp, f"--{fmt}"]
        mats = [m for e in g.edges for m in (e.incl_from, e.incl_to)]
        cls = classify(*reduce(g))
        if cls.kind == "ascending_hnn":
            mats.append(cls.phi)
            for k, (g1, g2) in enumerate(_separation_pairs(AscendingHNN.of(cls.phi))):
                for budget in (20, 50):
                    for fmt, ext in FORMATS.items():
                        out[f"separate/{name}_pair{k}_b{budget}.{ext}"] = [
                            "separate", inp, f"--g1={_vec(g1)}", f"--g2={_vec(g2)}",
                            "--budget", str(budget), f"--{fmt}"]
        for m in mats:
            polys.append(m.charpoly().coeffs)
    out.update(_factor_cases(polys))
    return out


def _factor_cases(polys) -> dict[str, list[str]]:
    out = {}
    for coeffs in polys:
        tag = "poly_" + "_".join(map(str, coeffs))
        for fmt, ext in FORMATS.items():
            out[f"factor/{tag}.{ext}"] = ["factor", json.dumps(list(coeffs)), f"--{fmt}"]
    return out


EXTRA_INPUTS = (
    "high_rank_6_degenerate",
    "high_rank_8_two_failing",
    "high_rank_10_nondegenerate",
    "high_rank_12_three_failing",
    "high_rank_12_two_failing",
    "repeated_factor",
    "squarefree_not_mod_p",
    "unimodular_incl_from",
)


def extra_cases() -> dict[str, list[str]]:
    out = {}
    polys = []
    for name in EXTRA_INPUTS:
        inp = GOLDEN / "inputs" / f"{name}.json"
        for fmt, ext in FORMATS.items():
            out[f"analyze/{name}.{ext}"] = ["analyze", str(inp), f"--{fmt}"]
        g, _ = parse_input_document(json.loads(inp.read_text(encoding="utf-8")))
        polys.append(classify(*reduce(g)).phi.charpoly().coeffs)
    out.update(_factor_cases(polys))
    return out


CASES = cases()
EXTRA_CASES = extra_cases()


def run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv, err.getvalue())
    return out.getvalue()


def test_inputs_match_corpus():
    for name, g in corpus_graphs().items():
        committed = json.loads((GOLDEN / "inputs" / f"{name}.json").read_text(encoding="utf-8"))
        assert committed == graph_doc(g), name


def test_no_stale_snapshots():
    on_disk = {p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file()}
    inputs = {f"inputs/{name}.json" for name in (*corpus_graphs(), *EXTRA_INPUTS)}
    assert on_disk == set(CASES) | set(EXTRA_CASES) | inputs


@pytest.mark.parametrize("path", sorted(CASES))
def test_cli_output_matches_snapshot(path):
    expected = (GOLDEN / path).read_text(encoding="utf-8")
    assert run(CASES[path]) == expected


@pytest.mark.parametrize("path", sorted(EXTRA_CASES))
def test_extra_cli_output_matches_snapshot(path):
    expected = (GOLDEN / path).read_text(encoding="utf-8")
    assert run(EXTRA_CASES[path]) == expected


def regenerate() -> None:
    for name, g in corpus_graphs().items():
        target = GOLDEN / "inputs" / f"{name}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(graph_doc(g), indent=2) + "\n", encoding="utf-8")
    for path, argv in {**CASES, **EXTRA_CASES}.items():
        target = GOLDEN / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(run(argv), encoding="utf-8")
    print(f"wrote {len(CASES) + len(EXTRA_CASES)} snapshots under {GOLDEN}")


if __name__ == "__main__":
    regenerate()
