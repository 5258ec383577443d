"""The CLI output on the shipped fixtures, pinned byte for byte.

The files under ``tests/golden/`` hold what ``dfields --fixtures`` prints,
what ``dfields --json <command> <fixture>`` prints for every fixture and
every command the fixture corpus runs on it, and (``printed.txt``) the
canonical text of every fixture in both monomial orders.  ``dfields
--fixtures --json`` prints the same payloads as one object, read back
against the per-command files.  Regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` only for an intended change
of output.
"""

import contextlib
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from dfields.cli import (
    _FIXTURE_COMMANDS,
    fixture_names,
    fixture_text,
    main,
    parse,
    print_document,
)
from dfields.poly import GREVLEX, LEX

GOLDEN = Path(__file__).parent / "golden"


def golden_cases():
    """Pairs (golden file name, CLI arguments) for every pinned output."""
    cases = [("corpus.txt", ["--fixtures"])]
    for fname in fixture_names():
        doc = parse(fixture_text(fname))
        path = str(resources.files("dfields") / "fixtures" / fname)
        for cls, commands in _FIXTURE_COMMANDS.items():
            if doc.of_type(cls):
                for command in commands:
                    name = f"{fname.removesuffix('.dr')}.{command.replace(' ', '_')}.json"
                    cases.append((name, ["--json", *command.split(), path]))
    return cases


def cli_stdout(argv):
    return cli_run(argv)[1]


def cli_run(argv):
    """The exit code and standard output of ``main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def printed_fixtures():
    """``print_document`` of every fixture in grevlex and in lex, each under
    a comment line naming the fixture and the order."""
    return "\n".join(
        f"# {fname} ({label})\n" + print_document(parse(fixture_text(fname)), order)
        for fname in fixture_names()
        for label, order in (("grevlex", GREVLEX), ("lex", LEX))
    )


@pytest.mark.parametrize(
    "name, argv", [pytest.param(name, argv, id=name) for name, argv in golden_cases()]
)
def test_cli_output_matches_golden(name, argv):
    assert cli_stdout(argv) == (GOLDEN / name).read_text(encoding="utf-8")


def test_fixture_corpus_json_matches_golden():
    code, text = cli_run(["--fixtures", "--json"])
    payloads = json.loads(text)
    assert code == cli_run(["--fixtures"])[0] == 0
    seen = set()
    for fixture, commands in payloads.items():
        for command, payload in commands.items():
            name = f"{fixture.removesuffix('.dr')}.{command.replace(' ', '_')}.json"
            assert payload == json.loads((GOLDEN / name).read_text(encoding="utf-8")), name
            seen.add(name)
    assert seen == {name for name, _ in golden_cases() if name.endswith(".json")}


def test_printed_fixtures_match_golden():
    assert printed_fixtures() == (GOLDEN / "printed.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in golden_cases():
        (GOLDEN / name).write_text(cli_stdout(argv), encoding="utf-8")
    (GOLDEN / "printed.txt").write_text(printed_fixtures(), encoding="utf-8")
