"""The public names of the package."""

import dataclasses
import typing

import dfields


def test_type_hints_of_exported_dataclasses_resolve():
    exported = [getattr(dfields, name) for name in dir(dfields)]
    classes = [c for c in exported if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert dfields.UcdInstance in classes
    for cls in classes:
        typing.get_type_hints(cls)
