"""README's numeric constants against the package's module-level constants.

Every public int or float constant of an ``opertuple`` module is documented in
README as `module.NAME = value` (or `NAME = value` where the name is unique), and
every such entry names a constant that exists, with its value. README is read
with its whitespace collapsed, so an entry may wrap across lines.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opertuple"
README = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
ENTRY = re.compile(r"`(?:opertuple\.)?(?:(\w+)\.)?([A-Z][A-Z0-9_]*) = ([^`]+)`")


def _constants():
    """{(module, NAME): value} for the int and float constants each module assigns."""
    found = {}
    for path in sorted(PACKAGE.glob("[!_]*.py")):  # the public modules
        module = importlib.import_module(f"opertuple.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for name in (t.id for t in targets if isinstance(t, ast.Name)):
                value = getattr(module, name)
                if name.isupper() and not name.startswith("_") and type(value) in (int, float):
                    found[(path.stem, name)] = value
    return found


CONSTANTS = _constants()


def _documented():
    return [(m.group(1), m.group(2), m.group(3).strip()) for m in ENTRY.finditer(README)]


def test_the_package_has_constants_to_check():
    assert ("tuplefile", "MAX_ORDER") in CONSTANTS
    assert ("spectra", "CLUSTER_TOL") in CONSTANTS


@pytest.mark.parametrize("key", sorted(CONSTANTS), ids=".".join)
def test_every_constant_is_documented_with_its_value(key):
    module, name = key
    unique = sum(n == name for _, n in CONSTANTS) == 1
    values = [
        float(text)
        for mod, n, text in _documented()
        if n == name and (mod == module or (mod is None and unique))
    ]
    assert values, f"README does not document `{module}.{name} = {CONSTANTS[key]!r}`"
    assert all(v == CONSTANTS[key] for v in values), (key, values)


def test_every_documented_constant_exists():
    for module, name, text in _documented():
        matches = [key for key in CONSTANTS if key[1] == name and module in (None, key[0])]
        assert len(matches) == 1, f"README documents `{module}.{name}`, which is not one constant"
        assert float(text) == CONSTANTS[matches[0]], (module, name, text)
