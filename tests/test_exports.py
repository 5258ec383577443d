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


def test_importing_the_package_does_not_load_sympy():
    # sympy is imported on first use by the factorisation routines
    code = "import sys, dfields; assert 'sympy' not in sys.modules, sorted(sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
