"""The CLI output on the shipped fixtures, pinned byte for byte.

The files under ``tests/golden/`` hold what ``dfields --fixtures`` prints
and what ``dfields --json <command> <fixture>`` prints for every fixture
and every command the fixture corpus runs on it.  Regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` only for an intended change
of output.
"""

import contextlib
import io
from importlib import resources
from pathlib import Path

import pytest

from dfields.cli import _FIXTURE_COMMANDS, fixture_names, fixture_text, main, parse

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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


@pytest.mark.parametrize(
    "name, argv", [pytest.param(name, argv, id=name) for name, argv in golden_cases()]
)
def test_cli_output_matches_golden(name, argv):
    assert cli_stdout(argv) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in golden_cases():
        (GOLDEN / name).write_text(cli_stdout(argv), encoding="utf-8")
