"""The public names of the package."""

import dataclasses
import os
import subprocess
import sys
import typing

import dfields


def test_type_hints_of_exported_dataclasses_resolve():
    exported = [getattr(dfields, name) for name in dir(dfields)]
    classes = [c for c in exported if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert dfields.UcdInstance in classes
    for cls in classes:
        typing.get_type_hints(cls)


def _run_fresh(code):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_importing_the_package_does_not_load_sympy():
    # sympy is imported on first use by the factorisation routines
    _run_fresh("import sys, dfields; assert 'sympy' not in sys.modules, sorted(sys.modules)")


def test_importing_the_package_does_not_load_zfactor():
    # the Zassenhaus factoriser is imported on first use, to keep start-up short
    _run_fresh(
        "import sys, dfields; assert 'dfields.zfactor' not in sys.modules, sorted(sys.modules)"
    )


_LOW_DEGREE_DOCUMENT = """
algebra D = Q[e]/(e^3);
variety X { vars = [x, y]; ideal = (y^2 - x^3 - x); }
ucd inst {
  algebra = D;
  X = X;
  Y = (y_0^2 - x_0^3 - x_0,
       2*y_0*y_1 - 3*x_0^2*x_1 - x_1,
       2*y_0*y_2 + y_1^2 - 3*x_0^2*x_2 - 3*x_0*x_1^2 - x_2);
  witness = (0, 0, 0, 0, 0, 0);
  assert_irreducible = [X, Y];
}
algebra A = Q[x]/((x - 1)*(x - 2)*(x - 3));
algebra B = Q[y]/((y^2 - 2)*(y^3 - 3));
algebra C = Q[y]/(y^4 - 9);
"""


def test_low_degree_factorisation_does_not_load_sympy():
    # the elliptic curve is irreducible by its discriminant, and the
    # decompositions factor a cubic with three rational roots and, by
    # Zassenhaus, minimal polynomials of degree 5 and 4 without one: all
    # are answered without sympy
    _run_fresh(
        "import sys\n"
        "from dfields import cli\n"
        f"doc = cli.parse({_LOW_DEGREE_DOCUMENT!r})\n"
        "assert cli.run('ucd check', doc).payload['results'][0]['verdict'] == 'verified'\n"
        "for name, count in (('A', 3), ('B', 2), ('C', 2)):\n"
        "    result = cli.run('algebra decompose', doc, name).payload['results'][0]\n"
        "    assert len(result['components']) == count, (name, result)\n"
        "assert 'sympy' not in sys.modules, sorted(sys.modules)\n"
    )


def test_fixture_corpus_runs_without_sympy():
    # with sympy unimportable, every fixture command still answers, and none
    # of them needs the factoriser
    _run_fresh(
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from dfields import cli\n"
        "ok, lines = cli.run_fixture_corpus()\n"
        "assert ok, lines\n"
        "assert 'dfields.zfactor' not in sys.modules, sorted(sys.modules)\n"
    )
