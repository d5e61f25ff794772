"""Source-layout rules checked by parsing the package, not by importing it."""

import ast
from pathlib import Path

import rotlab

PACKAGE = Path(rotlab.__file__).parent


def _private_uses(tree: ast.Module) -> list[str]:
    # Underscore names taken from another rotlab module, by ``from`` import
    # or as an attribute of a sibling module bound by ``from . import x``.
    found = []
    siblings = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("rotlab"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
            elif node.module is None:
                siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_modules_use_no_private_names_of_other_modules():
    offences = {}
    for path in sorted(PACKAGE.glob("*.py")):
        uses = _private_uses(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            offences[path.name] = uses
    assert not offences, offences


def test_private_use_finder_sees_imports_and_attributes():
    source = (
        "from __future__ import annotations\n"
        "from .protocols import _QUBIT1, SEQUENCE_STATES\n"
        "from rotlab.rng import _PhiloxKey\n"
        "from . import adversary\n"
        "adversary._compiled\n"
        "adversary.execute_cheat\n"
    )
    assert _private_uses(ast.parse(source)) == [
        "from .protocols import _QUBIT1",
        "from rotlab.rng import _PhiloxKey",
        "adversary._compiled",
    ]
