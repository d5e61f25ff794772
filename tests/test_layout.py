"""Source-layout rules, checked by parsing the package or by importing it in a
fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rotlab

PACKAGE = Path(rotlab.__file__).parent


def _offences(finder) -> dict[str, list[str]]:
    # What ``finder`` reports for each module of the package, by file name.
    offences = {}
    for path in sorted(PACKAGE.glob("*.py")):
        uses = finder(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            offences[path.name] = uses
    return offences


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
    offences = _offences(_private_uses)
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


FORBIDDEN_NAMES = {"Generator", "party_stream"}


def _generator_uses(tree: ast.Module) -> list[str]:
    # Imports of numpy.random, numpy's ``random`` attribute, and any name,
    # attribute or imported name called Generator or party_stream.
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {a.name for a in node.names}
            if module.startswith("numpy.random") or (module == "numpy" and "random" in names):
                found.append(f"from {module} import ...")
            found += [f"import {name}" for name in sorted(names & FORBIDDEN_NAMES)]
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and (
            node.attr in FORBIDDEN_NAMES
            or (node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        ):
            found.append(ast.unparse(node))
    return found


def test_library_draws_only_from_its_own_philox_kernel():
    offences = _offences(_generator_uses)
    assert not offences, offences


def test_generator_use_finder_sees_imports_names_and_attributes():
    source = (
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random\n"
        "from numpy.random.bit_generator import ISeedSequence\n"
        "from .rng import party_stream\n"
        "np.random.Philox\n"
        "rng.Generator\n"
        "Generator\n"
        "alice.random()\n"
    )
    assert sorted(_generator_uses(ast.parse(source))) == sorted([
        "import numpy.random",
        "from numpy import ...",
        "from numpy.random.bit_generator import ...",
        "import party_stream",
        "np.random",
        "rng.Generator",
        "Generator",
    ])


def test_importing_rotlab_leaves_numpy_random_unloaded():
    code = "import sys, rotlab; print('numpy.random' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"


ALLOWED_PACKAGES = sys.stdlib_module_names | {"numpy", "rotlab"}


def _foreign_imports(tree: ast.Module) -> list[str]:
    # Top-level packages of absolute imports outside the standard library,
    # numpy and rotlab itself; relative imports stay inside rotlab.
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in ALLOWED_PACKAGES]
    return found


def test_modules_import_only_numpy_and_the_standard_library():
    offences = _offences(_foreign_imports)
    assert not offences, offences


def test_foreign_import_finder_sees_packages_and_submodules():
    source = (
        "from __future__ import annotations\n"
        "import math, scipy.linalg\n"
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "from sympy import Matrix\n"
        "from . import linalg\n"
        "from .rng import seed_array\n"
        "from rotlab.protocols import OtPair\n"
        "def f():\n"
        "    import numba\n"
    )
    assert _foreign_imports(ast.parse(source)) == ["scipy.linalg", "sympy", "numba"]


EIGENSOLVERS = {"eigvalsh", "eigh"}


def _eigensolver_uses(tree: ast.Module) -> list[str]:
    # Each use of numpy's Hermitian eigensolvers, as an attribute or an
    # imported name, labelled with the top-level definition that holds it.
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS:
                found.append(f"{owner}: {node.attr}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{owner}: {alias.name}" for alias in node.names if alias.name in EIGENSOLVERS]
    return found


def test_only_linalg_calls_the_eigensolvers():
    # Every eigensolve goes through linalg, and there through one function
    # per solver, so one name counts them all.
    offences = _offences(_eigensolver_uses)
    in_linalg = offences.pop("linalg.py", [])
    assert not offences, offences
    assert sorted(in_linalg) == ["_eigenvalues: eigvalsh", "_hermitian_eigh: eigh"]


def test_eigensolver_finder_sees_attributes_and_imports():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigh, norm\n"
        "def f(a):\n"
        "    '''Calls eigvalsh.'''\n"
        "    return np.linalg.eigvalsh(a)\n"
        "class C:\n"
        "    solve = np.linalg.eigh\n"
    )
    assert _eigensolver_uses(ast.parse(source)) == ["<module>: eigh", "f: eigvalsh", "C: eigh"]


ROUND_NAMES = {"_MULTIPLIERS", "_PHILOX_MUL", "_STACKED_MUL", "_mulhilo"}
ROUND_NAMES |= {"_single_rounds", "_layout", "_seeded_rounds", "_stacked_rounds"}
ROUND_MULTIPLIERS = {0xD2E7470EE14C6C93, 0xCA5A826395121157}


def _round_uses(tree: ast.Module) -> list[str]:
    # Each read of the Philox round multipliers, the 64-bit product and the
    # round functions, as a name, attribute, import or literal, labelled
    # with the top-level definition that holds it.
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in ROUND_NAMES:
                found.append(f"{owner}: {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in ROUND_NAMES:
                found.append(f"{owner}: {node.attr}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{owner}: {alias.name}" for alias in node.names if alias.name in ROUND_NAMES]
            elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in ROUND_MULTIPLIERS:
                found.append(f"{owner}: {node.value:#x}")
    return found


def test_philox_rounds_live_only_in_the_kernel():
    # The rounds run in philox_block: on Python ints in _single_rounds, or
    # as the prologue _layout caches plus the stacked rounds, and nowhere
    # else, so a second kernel cannot appear beside them.
    offences = _offences(_round_uses)
    in_rng = offences.pop("rng.py", [])
    assert not offences, offences
    assert sorted(in_rng) == sorted([
        "<module>: 0xd2e7470ee14c6c93",
        "<module>: 0xca5a826395121157",
        "<module>: _MULTIPLIERS",
        "<module>: _PHILOX_MUL",
        "philox_block: _single_rounds",
        "philox_block: _seeded_rounds",
        "philox_block: _layout",
        "_single_rounds: _MULTIPLIERS",
        "_layout: _mulhilo",
        "_layout: _PHILOX_MUL",
        "_layout: _mulhilo",
        "_layout: _PHILOX_MUL",
        "_seeded_rounds: _mulhilo",
        "_seeded_rounds: _PHILOX_MUL",
        "_seeded_rounds: _stacked_rounds",
        "_stacked_rounds: _STACKED_MUL",
        "_stacked_rounds: _mulhilo",
    ])


def test_round_finder_sees_names_attributes_imports_and_literals():
    source = (
        "from .rng import _mulhilo, philox_block\n"
        "M = 0xCA5A826395121157\n"
        "def f(x):\n"
        "    _stacked_rounds = None\n"
        "    return rng._single_rounds(x, 0xD2E7470EE14C6C93, 1.0)\n"
    )
    assert _round_uses(ast.parse(source)) == [
        "<module>: _mulhilo",
        "<module>: 0xca5a826395121157",
        "f: _single_rounds",
        "f: 0xd2e7470ee14c6c93",
    ]


def _names_read(nodes) -> set[str]:
    # Every name the nodes read, import or take as an attribute.
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
    return found


def _unused_definitions(trees: dict[str, ast.Module]) -> list[str]:
    # Public top-level functions and classes that no code of the package
    # uses outside their own bodies; rotlab/__init__.py's imports count as
    # uses, so an export is one.
    unused = []
    for name, tree in trees.items():
        elsewhere = _names_read(other for key, other in trees.items() if key != name)
        by_top = [(top, _names_read([top])) for top in tree.body]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere and not any(node.name in names for top, names in by_top if top is not node):
                unused.append(f"{name}: {node.name}")
    return unused


def test_every_public_definition_is_used_or_exported():
    # A function only the tests call belongs with the tests (tests/oracle.py).
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert _unused_definitions(trees) == []


def test_unused_definition_finder_sees_modules_exports_and_self_use():
    trees = {
        "__init__.py": ast.parse("from .a import exported\n"),
        "a.py": ast.parse(
            "def exported(): pass\n"
            "def helper(): pass\n"
            "def caller(): return helper()\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Unused: pass\n"
            "def _private(): pass\n"
        ),
        "b.py": ast.parse("from . import a\na.caller()\n"),
    }
    assert _unused_definitions(trees) == ["a.py: recursive", "a.py: Unused"]


def test_states_and_mixtures_are_plain_arrays():
    # States and mixtures are plain arrays; the validated operator and the
    # measurement are the only classes besides the error types.
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"ComplexMatrix", "ProjectiveMeasurement", "ValidationError", "DimensionError", "NumericError"}
    retired = {"PureState", "DensityMatrix", "kron", "partial_trace"}
    assert not retired & set(vars(rotlab)), retired & set(vars(rotlab))
    assert not retired & set(vars(rotlab.linalg)), retired & set(vars(rotlab.linalg))
