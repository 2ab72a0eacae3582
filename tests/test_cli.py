import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gbsep.cli import main
from gbsep.pipeline import Report


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def inputs(tmp_path):
    docs = {
        "g1": {"rank": 2, "ascending_hnn": [[0, 1], [-2, -3]]},
        "g2": {"rank": 2, "ascending_hnn": [[1, 1], [-1, 1]]},
        "g3": {"rank": 2, "ascending_hnn": [[1, 2], [2, 2]]},
        "g3_full": {
            "rank": 2,
            "vertices": ["v"],
            "edges": [{
                "id": "e", "from": "v", "to": "v",
                "incl_from": [[1, 0], [0, 1]], "incl_to": [[1, 2], [2, 2]],
            }],
        },
        "bs23": {
            "rank": 1,
            "vertices": ["v"],
            "edges": [{"id": "e", "from": "v", "to": "v", "incl_from": [[2]], "incl_to": [[3]]}],
        },
    }
    paths = {}
    for name, doc in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


# ---------------------------------------------------------------------------
# analyze


def test_analyze_text_g3(inputs):
    code, out, _ = run(["analyze", inputs["g3"]])
    assert code == 0
    assert "cyclic_subgroup_separable: yes" in out
    assert "subgroup_separable: no" in out


def test_analyze_shorthand_equals_full_graph(inputs):
    _, out1, _ = run(["analyze", inputs["g3"]])
    _, out2, _ = run(["analyze", inputs["g3_full"]])
    # same verdicts either way (the echo differs)
    assert out1 == out2


def test_analyze_json_g1(inputs):
    code, out, _ = run(["analyze", inputs["g1"], "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["css"] == "no"
    assert doc["verdicts"]["residually_finite"] == "yes"
    eigen = doc["details"]["cyclic_subgroup_separable"]["witness"]["eigen"]
    assert eigen == {"lambda": -2, "vector": [1, -2]}
    assert doc["char_poly"] == [2, 3, 1]
    assert doc["caps"] == {"max_index": 10 ** 9, "saturation_steps": 64, "word_len": 6}


def test_analyze_non_residually_finite(inputs):
    code, out, _ = run(["analyze", inputs["bs23"], "--json"])
    doc = json.loads(out)
    assert doc["verdicts"] == {"css": "no", "residually_finite": "no", "subgroup_separable": "no"}


def test_analyze_deterministic_and_roundtrip(inputs):
    c1, out1, _ = run(["analyze", inputs["g1"], "--json"])
    c2, out2, _ = run(["analyze", inputs["g1"], "--json"])
    assert c1 == c2 == 0 and out1 == out2
    assert json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n" == out1


def test_analyze_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 2, "ascending_hnn": [[1, 2], [2]]}')
    code, _, err = run(["analyze", str(bad)])
    assert code == 2 and "row 1" in err

    bad2 = tmp_path / "bad2.json"
    bad2.write_text("{nope")
    code2, _, err2 = run(["analyze", str(bad2)])
    assert code2 == 2 and "line" in err2

    code3, _, err3 = run(["analyze", str(tmp_path / "missing.json")])
    assert code3 == 2


def test_analyze_singular_matrix_rejected(tmp_path):
    doc = {"rank": 2, "ascending_hnn": [[1, 1], [1, 1]]}
    p = tmp_path / "sing.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(["analyze", str(p)])
    assert code == 2 and "singular" in err


def test_analyze_strict_flag(inputs):
    code, _, _ = run(["analyze", inputs["g3"], "--strict"])
    assert code == 0  # no unknown here


def test_analyze_strict_exits_1_on_unknown(tmp_path):
    # a balanced two-edge graph that the saturation detector resolves, made
    # undecidable by zeroing both caps
    doc = {
        "rank": 2,
        "vertices": ["p", "q"],
        "edges": [
            {"id": "a", "from": "p", "to": "q", "incl_from": [[2, 0], [0, 2]], "incl_to": [[2, 0], [0, 2]]},
            {"id": "b", "from": "p", "to": "q", "incl_from": [[2, 0], [0, 2]], "incl_to": [[2, 2], [0, 2]]},
        ],
    }
    p = tmp_path / "balanced.json"
    p.write_text(json.dumps(doc))
    caps = ["--cap-words", "0", "--cap-saturation", "0"]
    code, out, _ = run(["analyze", str(p), *caps])
    assert code == 0 and "unknown" in out
    code2, _, _ = run(["analyze", str(p), *caps, "--strict"])
    assert code2 == 1


# ---------------------------------------------------------------------------
# factor


def test_internal_failure_exits_4(monkeypatch):
    monkeypatch.setattr(Report, "consistent", lambda self: False)
    g1 = str(Path(__file__).resolve().parent / "golden" / "inputs" / "g1.json")
    code, out, err = run(["analyze", g1])
    assert (code, out) == (4, "")
    assert err == "internal error: verdict implication chain violated\n"


def test_factor_examples():
    code, out, _ = run(["factor", "[-5,-5,-1,1]"])
    assert code == 0
    assert "x^3 - x^2 - 5*x - 5" in out and "gcd 1" in out

    code2, out2, _ = run(["factor", "[2,-2,1]"])
    assert "primes {2}" in out2

    code3, out3, _ = run(["factor", "[0,1]"])
    assert "every prime" in out3


def test_factor_json_ordering():
    code, out, _ = run(["factor", "[2,3,1]", "--json"])
    doc = json.loads(out)
    assert [f["coeffs"] for f in doc["factors"]] == [[1, 1], [2, 1]]
    assert doc["separable_criterion"] is False  # the x+2 factor degenerates at 2

    code2, out2, _ = run(["factor", "[-2,-3,1]", "--json"])
    assert json.loads(out2)["separable_criterion"] is True


def test_factor_parse_errors():
    assert run(["factor", "[1,2"])[0] == 2
    assert run(["factor", "[2,4]"])[0] == 2  # not monic
    assert run(["factor", "[]"])[0] == 2


# ---------------------------------------------------------------------------
# separate


def test_separate_success(inputs):
    code, out, _ = run(["separate", inputs["g3"], "--g1", "2,0", "--g2", "1,0"])
    assert code == 0
    assert "K basis columns: [[2, 0], [0, 1]]" in out
    assert "r: 1" in out


def test_separate_none(inputs):
    code, out, _ = run(["separate", inputs["g2"], "--g1", "2,0", "--g2", "1,0", "--budget", "30"])
    assert code == 0
    assert out.strip() == "none (budget 30)"


def test_separate_not_an_instance(inputs):
    # --g2=-4,0: the leading dash needs the = form under argparse
    code, _, err = run(["separate", inputs["g3"], "--g1", "2,0", "--g2=-4,0"])
    assert code == 3 and "not a separation instance" in err


def test_separate_requires_ascending(inputs):
    code, _, err = run(["separate", inputs["bs23"], "--g1", "2", "--g2", "1"])
    assert code == 2 and "ascending" in err


def test_separate_vector_validation(inputs):
    assert run(["separate", inputs["g3"], "--g1", "2,0,0", "--g2", "1,0"])[0] == 2
    assert run(["separate", inputs["g3"], "--g1", "a,b", "--g2", "1,0"])[0] == 2
    code, out, _ = run(["separate", inputs["g3"], "--g1", "[2,0]", "--g2", "[1,0]"])
    assert code == 0  # JSON-style vectors accepted


# ---------------------------------------------------------------------------
# module execution


def test_module_entry_point(inputs):
    proc = subprocess.run(
        [sys.executable, "-m", "gbsep.cli", "analyze", inputs["g3"]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cyclic_subgroup_separable: yes" in proc.stdout
