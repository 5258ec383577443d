"""The command driver on documents with several blocks of one kind.

The golden files pin every fixture, and every fixture command there runs
on one block.  These pins cover what a single block cannot show: the
lines and JSON entries of several blocks in file order, the exit code
merged over blocks (verified < undetermined < refuted), and the two
selection errors of every command, and a block stopped by the budget
next to one that finishes.
"""

import json
import re

import pytest

from dfields.cli import main, parse, run
from dfields.poly import GroebnerBudget
from dfields.ucd import UcdError

ALGEBRAS = """
algebra dual = Q[e]/(e^2);
algebra skew {
  basis = [u, v];
  mul u*u = u;
  mul u*v = v;
  mul v*v = u;
  unit = v;
}
"""

UCDS = """
algebra dual = Q[e]/(e^2);
variety line { vars = [x]; }
ucd open {
  algebra = dual;
  X = line;
  Y = (x_1 - x_0^2 - 1);
}
ucd broken {
  algebra = dual;
  X = line;
  Y = (x_0);
  witness = (0, 0);
}
"""

COMMANDS = {
    "algebra check": "algebra",
    "algebra decompose": "algebra",
    "dring verify": "dring",
    "prolong": "dring",
    "dvariety check": "dvariety",
    "dvariety sharp": "dvariety",
    "dvariety descend": "descend",
    "ucd check": "ucd",
    "ucd search": "ucd",
}


def _hypotheses(*rows):
    return [{"name": n, "status": s, "detail": d} for n, s, d in rows]


OPEN_HYPOTHESES = _hypotheses(
    ("Y_subset_of_tauX", "verified", ""),
    ("dominance_pi_0", "verified", ""),
    ("smooth_witness", "undetermined", "no witness supplied"),
    ("X_irreducible", "verified", "zero-ideal"),
    ("Y_irreducible", "verified", "principal-factorisation"),
    ("U_nonempty", "verified", "U = Y"),
)
BROKEN_ENTRY = {
    "name": "broken",
    "verdict": "refuted",
    "hypotheses": _hypotheses(
        ("Y_subset_of_tauX", "verified", ""),
        ("dominance_pi_0", "refuted",
         "projection 0 is not dominant: elimination ideal contains x_0"),
        ("smooth_witness", "verified", "Jacobian rank 1 = codimension"),
        ("X_irreducible", "verified", "zero-ideal"),
        ("Y_irreducible", "verified", "linear"),
        ("U_nonempty", "verified", "U = Y"),
    ),
}


def _cli(tmp_path, capsys, text, argv, name=()):
    path = tmp_path / "doc.dr"
    path.write_text(text)
    code = main([*argv, str(path), *name])
    return code, capsys.readouterr().out


def test_algebra_check_on_a_valid_and_an_invalid_algebra(tmp_path, capsys):
    code, out = _cli(tmp_path, capsys, ALGEBRAS, ["algebra", "check"])
    assert code == 2
    assert out == (
        "algebra dual: valid commutative unital algebra\n"
        "algebra skew: INVALID (unit fails at indices (0, 0); unit fails at "
        "indices (0, 1); unit fails at indices (1, 0); unit fails at indices (1, 1))\n"
    )
    code, out = _cli(tmp_path, capsys, ALGEBRAS, ["--json", "algebra", "check"])
    assert code == 2
    assert json.loads(out) == {
        "command": "algebra check",
        "results": [
            {"name": "dual", "dim": 2, "valid": True, "violations": []},
            {
                "name": "skew",
                "dim": 2,
                "valid": False,
                "violations": [
                    f"unit fails at indices ({i}, {j})" for i in (0, 1) for j in (0, 1)
                ],
            },
        ],
    }


def test_ucd_check_on_an_undetermined_and_a_refuted_block(tmp_path, capsys):
    code, out = _cli(tmp_path, capsys, UCDS, ["ucd", "check"])
    assert code == 2
    assert out == (
        "ucd open: undetermined\n"
        "  Y_subset_of_tauX: verified\n"
        "  dominance_pi_0: verified\n"
        "  smooth_witness: undetermined (no witness supplied)\n"
        "  X_irreducible: verified (zero-ideal)\n"
        "  Y_irreducible: verified (principal-factorisation)\n"
        "  U_nonempty: verified (U = Y)\n"
        "ucd broken: refuted\n"
        "  Y_subset_of_tauX: verified\n"
        "  dominance_pi_0: refuted (projection 0 is not dominant: elimination "
        "ideal contains x_0)\n"
        "  smooth_witness: verified (Jacobian rank 1 = codimension)\n"
        "  X_irreducible: verified (zero-ideal)\n"
        "  Y_irreducible: verified (linear)\n"
        "  U_nonempty: verified (U = Y)\n"
    )
    code, out = _cli(tmp_path, capsys, UCDS, ["--json", "ucd", "check"])
    assert code == 2
    assert json.loads(out) == {
        "command": "ucd check",
        "results": [
            {"name": "open", "verdict": "undetermined", "hypotheses": OPEN_HYPOTHESES},
            BROKEN_ENTRY,
        ],
    }
    assert _cli(tmp_path, capsys, UCDS, ["ucd", "check"], ["open"])[0] == 3


def test_ucd_search_on_an_undetermined_and_a_refuted_block(tmp_path, capsys):
    note = "no rational point in U found; non-rational locus points exist"
    code, out = _cli(tmp_path, capsys, UCDS, ["ucd", "search"])
    assert code == 2
    assert out == f"ucd open: {note}\nucd broken: hypotheses refuted; not searching\n"
    code, out = _cli(tmp_path, capsys, UCDS, ["--json", "ucd", "search"])
    assert code == 2
    assert json.loads(out) == {
        "command": "ucd search",
        "results": [
            {
                "name": "open",
                "dimension": 0,
                "found": False,
                "locus": ["-x^2 - 1"],
                "note": note,
                "points": [],
                "samples": [],
            },
            BROKEN_ENTRY,
        ],
    }
    assert _cli(tmp_path, capsys, UCDS, ["ucd", "search"], ["open"])[0] == 3


def test_ucd_search_rejects_an_invalid_candidate_image(tmp_path, capsys):
    # the search never reads the d images, but a wrong one is an input error
    text = UCDS.replace("Y = (x_1 - x_0^2 - 1);", "Y = (x_1 - x_0^2 - 1);\n  d x = (2*x, x^2);")
    path = tmp_path / "doc.dr"
    path.write_text(text)
    assert main(["ucd", "search", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "component 0 of the image of 'x' is not 'x' modulo the ideal" in captured.err



def test_dvariety_sharp_on_an_empty_sharp_locus(tmp_path, capsys):
    # the section x -> (x, 1) never meets the zero section x -> (x, 0)
    text = """
algebra dual = Q[e]/(e^2);
variety line { vars = [x]; }
dvariety dv { algebra = dual; variety = line; s x = (x, 1); }
"""
    code, out = _cli(tmp_path, capsys, text, ["dvariety", "sharp"])
    assert (code, out) == (0, "dvariety dv: sharp locus is empty\n")
    code, out = _cli(tmp_path, capsys, text, ["--json", "dvariety", "sharp"])
    assert code == 0
    assert json.loads(out) == {
        "command": "dvariety sharp",
        "results": [
            {
                "name": "dv",
                "locus": ["1"],
                "dimension": None,
                "points": [],
                "samples": [],
                "nonrational": False,
            }
        ],
    }

# the first block needs a Groebner basis of degree 10 (it has no witness,
# so only the certificate from Y's leading monomials applies); the second
# is answered at its witness
BUDGETED = """
algebra dual = Q[e]/(e^2);
algebra e3 = Q[e]/(e^3);
variety line { vars = [x]; }
variety curve { vars = [x, y]; ideal = (y^2 - x^3 - x); }
ucd hard {
  algebra = e3;
  X = curve;
  Y = (y_0^2 - x_0^3 - x_0,
       2*y_0*y_1 - 3*x_0^2*x_1 - x_1,
       2*y_0*y_2 + y_1^2 - 3*x_0^2*x_2 - 3*x_0*x_1^2 - x_2);
}
ucd easy {
  algebra = dual;
  X = line;
  Y = (x_1 - x_0^2);
  witness = (0, 0);
}
"""
EASY_LINES = (
    "ucd easy: verified\n"
    "  Y_subset_of_tauX: verified\n"
    "  dominance_pi_0: verified\n"
    "  smooth_witness: verified (Jacobian rank 1 = codimension)\n"
    "  X_irreducible: verified (zero-ideal)\n"
    "  Y_irreducible: verified (principal-factorisation)\n"
    "  U_nonempty: verified (U = Y)\n"
)


def test_a_block_over_budget_does_not_hide_the_next(tmp_path, capsys):
    error = "budget exhausted: degree 10 exceeds cap 9"
    code, out = _cli(tmp_path, capsys, BUDGETED, ["--budget", "9", "ucd", "check"])
    assert code == 1
    assert out == EASY_LINES
    code = main(["--budget", "9", "--json", "ucd", "check", str(tmp_path / "doc.dr")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: ucd hard: {error}\n"
    payload = json.loads(captured.out)
    assert payload["results"][0] == {"name": "hard", "error": error}
    assert [r["name"] for r in payload["results"]] == ["hard", "easy"]
    assert payload["results"][1]["verdict"] == "verified"
    result = run("ucd check", parse(BUDGETED), budget=GroebnerBudget(max_degree=9))
    assert (result.exit_code, result.errors) == (1, [f"ucd hard: {error}"])
    # without the cap the first block finishes too
    code, out = _cli(tmp_path, capsys, BUDGETED, ["ucd", "check"])
    assert code == 3
    assert out.startswith("ucd hard: undetermined\n") and out.endswith(EASY_LINES)


def test_dominance_without_a_witness_finishes_at_cap_10(tmp_path, capsys):
    # pi_0 is dense by Y's grevlex leading monomials: no block-order
    # elimination, whose basis reaches degree 11
    path = tmp_path / "doc.dr"
    path.write_text(BUDGETED)
    code = main(["--budget", "10", "ucd", "check", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (3, "")
    assert captured.out.startswith(
        "ucd hard: undetermined\n  Y_subset_of_tauX: verified\n  dominance_pi_0: verified\n"
    ) and captured.out.endswith(EASY_LINES)
    result = run("ucd check", parse(BUDGETED), budget=GroebnerBudget(max_degree=10))
    assert (result.exit_code, result.errors) == (3, [])


@pytest.mark.parametrize("command, keyword", COMMANDS.items())
def test_block_selection_errors(command, keyword, tmp_path, capsys):
    doc = parse("")
    with pytest.raises(UcdError) as err:
        run(command, doc)
    assert str(err.value) == f"document has no {keyword} blocks"
    with pytest.raises(UcdError) as err:
        run(command, doc, name="nope")
    assert str(err.value) == f"no {keyword} block named 'nope'"
    path = tmp_path / "empty.dr"
    path.write_text("")
    assert main([*command.split(), str(path), "nope"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: no {keyword} block named 'nope'\n")


# a plane curve on the coordinates x and {b}, and its prolongation Y over
# Q[e]/(e^2 - {c}*e), written in the prolonged names {b}_0, {b}_1 of {b}
RENAMED = """
algebra A = Q[e]/(e^2 - {c}*e);
dring curve {{ algebra = A; ring = Q[x, {b}]/({b} - x^2); d x = (x, 0); d {b} = ({b}, 0); }}
variety X {{ vars = [x, {b}]; ideal = ({b} - x^2); }}
ucd plain {{ algebra = A; X = X; Y = ({b}_0 - x_0^2, {b}_1 - 2*x_0*x_1 - {c}*x_1^2); }}
ucd seen {{
  algebra = A; X = X; Y = ({b}_0 - x_0^2, {b}_1 - 2*x_0*x_1 - {c}*x_1^2);
  witness = (1, 1, 0, 0); h = x_0;
}}
"""


@pytest.mark.parametrize("c", [0, 1])
def test_coordinate_named_like_a_prolonged_name(c):
    # the coordinate x_0 next to x gives the prolonged names x_0, x_0_0,
    # x_1, x_0_1; every command answers as on the coordinate w, renamed
    def answers(b):
        doc = parse(RENAMED.format(c=c, b=b))
        results = [run(command, doc) for command in ("prolong", "ucd check", "ucd search")]
        return [(r.exit_code, r.text(), json.dumps(r.payload)) for r in results]

    def rename(text):  # the name w, alone or before a level, becomes x_0
        return re.sub(r"(?<!\w)w(?=_\d|(?!\w))", "x_0", text)

    renamed = [(code, rename(text), rename(payload)) for code, text, payload in answers("w")]
    assert answers("x_0") == renamed
    assert renamed[0][1].startswith("prolongation of curve in Q[x_0, x_0_0, x_1, x_0_1]:")
