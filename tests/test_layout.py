"""Source-layout rules, checked by parsing the package or by importing it in a
fresh interpreter."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

import rotlab
from rotlab import adversary, protocols, rng

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
        "from .protocols import _QUBIT_LIFTS, SEQUENCE_STATES\n"
        "from rotlab.rng import _PhiloxKey\n"
        "from . import adversary\n"
        "adversary._compiled\n"
        "adversary.execute_cheat\n"
    )
    assert _private_uses(ast.parse(source)) == [
        "from .protocols import _QUBIT_LIFTS",
        "from rotlab.rng import _PhiloxKey",
        "adversary._compiled",
    ]


def _taken_from(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    # Each name taken from rotlab.<module>, as written and bare: imported by
    # name, or read as an attribute of the module bound by an import.
    found = []
    bound = set()
    full = f"rotlab.{module}"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == full:
            found += [(f"from {full} import {a.name}", a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "rotlab":
            bound |= {a.asname or a.name for a in node.names if a.name == module}
        elif isinstance(node, ast.Import):
            bound |= {a.asname or a.name for a in node.names if a.name == full}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in bound:
            found.append((ast.unparse(node), node.attr))
    return found


def _adversary_private_uses(tree: ast.Module) -> list[str]:
    # Underscore names taken from rotlab.adversary.
    return [use for use, name in _taken_from(tree, "adversary") if name.startswith("_")]


# What the reference flows may take from rotlab.protocols: the protocol's
# definitions and the types its results come in.
ORACLE_PROTOCOL_NAMES = {
    "QUTRIT_PROBES",
    "SEQUENCE_STATES",
    "CoinOutcome",
    "CoinResult",
    "RotOutcome",
    "SequenceConfig",
    "Transcript",
}


def _derived_uses(tree: ast.Module) -> list[str]:
    # Names taken from rotlab.protocols outside ORACLE_PROTOCOL_NAMES, the
    # library's splitmix64, and the balanced triple read off AmplitudeTriple
    # by name or through its module.
    found = [use for use, name in _taken_from(tree, "protocols") if name not in ORACLE_PROTOCOL_NAMES]
    found += [use for use, name in _taken_from(tree, "rng") if name == "splitmix64"]
    found += [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "balanced"
        and ast.unparse(node.value).endswith("AmplitudeTriple")
    ]
    return found


def _oracle_tree() -> ast.Module:
    return ast.parse((Path(__file__).parent / "oracle.py").read_text())


def test_oracle_reads_no_private_name_of_the_adversary():
    # The reference flows build their cheating measurements from their own
    # mixtures, so none of the library's tables can agree with itself.
    assert _adversary_private_uses(_oracle_tree()) == []


def test_oracle_derives_every_protocol_fact_itself():
    # Bob's permutation, Alice's measurements and decode, the transcript
    # payloads, the trial-seed mixer and the default cheating triple are
    # written again in the oracle, so a fault in the library's form of one
    # cannot hide in a trial-by-trial comparison.
    assert _derived_uses(_oracle_tree()) == []


def test_derived_protocol_use_finder_sees_tables_helpers_and_attributes():
    source = (
        "from rotlab.protocols import QUTRIT_PROBES, QUTRIT_CHECKS, RotOutcome, _state_payload\n"
        "from rotlab import protocols, linalg\n"
        "import rotlab.protocols as proto\n"
        "from rotlab.adversary import _bit_operator, AmplitudeTriple\n"
        "from rotlab.rng import ALICE, splitmix64\n"
        "protocols._QUBIT_LIFTS\n"
        "protocols.SEQUENCE_STATES\n"
        "proto.run_qutrit\n"
        "linalg.projections\n"
        "AmplitudeTriple.balanced()\n"
        "AmplitudeTriple.coerce((1.0, 0.0, 0.0))\n"
    )
    assert _derived_uses(ast.parse(source)) == [
        "from rotlab.protocols import QUTRIT_CHECKS",
        "from rotlab.protocols import _state_payload",
        "protocols._QUBIT_LIFTS",
        "proto.run_qutrit",
        "from rotlab.rng import splitmix64",
        "AmplitudeTriple.balanced",
    ]


def test_adversary_private_use_finder_sees_imports_and_attributes():
    source = (
        "from rotlab.adversary import _alice_qutrit_tables, AmplitudeTriple\n"
        "from rotlab import adversary, linalg\n"
        "import rotlab.adversary\n"
        "import rotlab.adversary as adv\n"
        "from rotlab.protocols import _QUBIT_LIFTS\n"
        "adversary._STRATEGIES\n"
        "rotlab.adversary._bit_operator\n"
        "adv._compiled\n"
        "adversary.execute_cheat\n"
        "linalg._eigenvalues\n"
    )
    assert _adversary_private_uses(ast.parse(source)) == [
        "from rotlab.adversary import _alice_qutrit_tables",
        "adversary._STRATEGIES",
        "rotlab.adversary._bit_operator",
        "adv._compiled",
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
        "from rotlab.protocols import OT_PAIR_INDEX\n"
        "def f():\n"
        "    import numba\n"
    )
    assert _foreign_imports(ast.parse(source)) == ["scipy.linalg", "sympy", "numba"]


def test_the_optimizer_keeps_the_cache_handles_the_benchmark_uses():
    # The benchmark clears the optimizer's cache before every timed
    # headline, so each one runs the full search; tests reach the search
    # past the cache through __wrapped__.
    optimizer = adversary.optimize_alice_qutrit
    optimizer(adversary.OPTIMIZER_TOLERANCE)
    optimizer.cache_clear()
    assert optimizer.cache_info().currsize == 0
    assert optimizer.__wrapped__(adversary.OPTIMIZER_TOLERANCE) == optimizer(adversary.OPTIMIZER_TOLERANCE)
    assert optimizer.cache_info().currsize == 1


def _attribute_finder(names: set[str]):
    # A finder of each use of ``names``, as an attribute or an imported
    # name, labelled with the top-level definition that holds it.
    def find(tree: ast.Module) -> list[str]:
        found = []
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in names:
                    found.append(f"{owner}: {node.attr}")
                elif isinstance(node, ast.ImportFrom):
                    found += [f"{owner}: {alias.name}" for alias in node.names if alias.name in names]
        return found

    return find


# numpy's Hermitian eigensolvers.
_eigensolver_uses = _attribute_finder({"eigvalsh", "eigh"})


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


# math.hypot, the root of the closed-form 2 x 2 trace norm.
_hypot_uses = _attribute_finder({"hypot"})


def test_only_linalg_calls_hypot():
    # The closed-form 2 x 2 trace norm lives once, in linalg.trace_norm_2x2.
    offences = _offences(_hypot_uses)
    in_linalg = offences.pop("linalg.py", [])
    assert not offences, offences
    assert in_linalg == ["trace_norm_2x2: hypot"]


def test_hypot_finder_sees_attributes_and_imports():
    source = (
        "import math\n"
        "from math import hypot, sqrt\n"
        "def f(a, b):\n"
        "    '''Calls hypot.'''\n"
        "    return math.hypot(a, b)\n"
        "class C:\n"
        "    norm = np.hypot\n"
    )
    assert _hypot_uses(ast.parse(source)) == ["<module>: hypot", "f: hypot", "C: hypot"]


def _is_ravel_call(node: ast.AST) -> bool:
    # Whether node calls ravel, as a method or a function.
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "ravel") or (
        isinstance(func, ast.Name) and func.id == "ravel"
    )


def _flat_table_uses(tree: ast.Module) -> list[str]:
    # Each use of ``take``, as an attribute or an imported name, and each
    # assignment that writes through a ravel() call, labelled with the
    # top-level definition that holds it.
    found = _attribute_finder({"take"})(tree)
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            found += [
                f"{owner}: {ast.unparse(target)}"
                for target in targets
                if any(isinstance(sub, ast.Subscript) and _is_ravel_call(sub.value) for sub in ast.walk(target))
            ]
    return found


def test_only_protocols_indexes_a_slot():
    # Slot s of seed i is entry s * seeds + i of a flattened (n_states,
    # seeds) table, and protocols.slot_pairs alone reads it: the flows
    # outside protocols gather no entry with take and scatter none through
    # ravel(), so a lie of Bob's is an edit of the tested slots' rows.
    offences = _offences(_flat_table_uses)
    offences = {name: offences.get(name) for name in ("adversary.py", "montecarlo.py") if name in offences}
    assert not offences, offences


def test_flat_table_finder_sees_takes_and_writes_through_ravel():
    source = (
        "import numpy as np\n"
        "from numpy import take, ravel\n"
        "def f(pairs, at, lanes):\n"
        "    '''Calls take.'''\n"
        "    got = pairs.take(at) + np.take(pairs, at)\n"
        "    flat = pairs.ravel()\n"
        "    read = pairs.ravel()[at]\n"
        "    pairs.ravel()[at] ^= 3\n"
        "    pairs[at, lanes] = 1\n"
        "    head, np.ravel(pairs)[at] = 0, 1\n"
        "class C:\n"
        "    def g(self, pairs, at):\n"
        "        ravel(pairs)[at][0]: int = 2\n"
    )
    assert _flat_table_uses(ast.parse(source)) == [
        "<module>: take",
        "f: take",
        "f: take",
        "f: pairs.ravel()[at]",
        "f: (head, np.ravel(pairs)[at])",
        "C: ravel(pairs)[at][0]",
    ]


def _top_level_name(top: ast.stmt) -> str:
    # The name a top-level statement defines: a function's or class's, an
    # assignment's one target, or X for X.setflags(...), which freezes what
    # X's assignment built; "<module>" for any other statement.
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return top.name
    targets = top.targets if isinstance(top, ast.Assign) else [top.target] if isinstance(top, ast.AnnAssign) else []
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    call = top.value if isinstance(top, ast.Expr) else None
    if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "setflags":
        return ast.unparse(call.func.value)
    return "<module>"


def _sign_pattern_reads(tree: ast.Module) -> list[str]:
    # Each read of _SIGN_PATTERNS, as a name, attribute or import, labelled
    # with the name its top-level statement defines.
    found = []
    for top in tree.body:
        owner = _top_level_name(top)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == "_SIGN_PATTERNS":
                found.append(f"{owner}: _SIGN_PATTERNS")
            elif isinstance(node, ast.Attribute) and node.attr == "_SIGN_PATTERNS":
                found.append(f"{owner}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{owner}: import _SIGN_PATTERNS" for a in node.names if a.name == "_SIGN_PATTERNS"]
    return found


def test_one_builder_reads_the_qutrit_sign_patterns():
    # Cheating Alice's qutrit operators are built once, by
    # _qutrit_cheat_operators, which her strategy and the ascent call; the
    # value reads the patterns' entries off _BLOCK_TERMS, and the
    # certificate subtracts the patterns from its upper part.  No other
    # code reads the patterns, so no second builder can grow back.
    offences = _offences(_sign_pattern_reads)
    in_adversary = offences.pop("adversary.py", [])
    assert not offences, offences
    assert {use.split(":")[0] for use in in_adversary} == {
        "_SIGN_PATTERNS",
        "_BLOCK_TERMS",
        "_qutrit_cheat_operators",
        "_qutrit_certificate",
    }


def test_sign_pattern_finder_sees_names_attributes_and_imports():
    source = (
        "from .adversary import _SIGN_PATTERNS, _BLOCK_TERMS\n"
        "_SIGN_PATTERNS = build()\n"
        "_SIGN_PATTERNS.setflags(write=False)\n"
        "TERMS = [p.tolist() for p in _SIGN_PATTERNS]\n"
        "print(_SIGN_PATTERNS)\n"
        "def f(v):\n"
        "    '''Reads _SIGN_PATTERNS.'''\n"
        "    _SIGN_PATTERNS = None\n"
        "    return adversary._SIGN_PATTERNS * v\n"
        "class C:\n"
        "    patterns = _SIGN_PATTERNS\n"
    )
    assert _sign_pattern_reads(ast.parse(source)) == [
        "<module>: import _SIGN_PATTERNS",
        "_SIGN_PATTERNS: _SIGN_PATTERNS",
        "TERMS: _SIGN_PATTERNS",
        "<module>: _SIGN_PATTERNS",
        "f: adversary._SIGN_PATTERNS",
        "C: _SIGN_PATTERNS",
    ]


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
    # States, mixtures and measurements are plain arrays; the validated
    # operator is the only class besides the error types, and only linalg
    # names it: it survives as the operand of the benchmark's eigensolve rows.
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"ComplexMatrix", "ValidationError", "DimensionError", "NumericError"}
    retired = {"PureState", "DensityMatrix", "kron", "partial_trace", "ProjectiveMeasurement"}
    retired |= {"helstrom_prob", "helstrom_projectors", "trace_norm"}
    assert not retired & set(vars(rotlab)), retired & set(vars(rotlab))
    assert not retired & set(vars(rotlab.linalg)), retired & set(vars(rotlab.linalg))
    naming = {
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "linalg.py" and "ComplexMatrix" in _names_read([ast.parse(path.read_text())])
    }
    assert not naming, naming


# The sequence block flows, by module: each runs over all seeds and slots at
# once, so none of them steps through slots or draws in a Python loop.
VECTORISED = {
    "protocols.py": {"sequence_setup_block", "sequence_spot_check_block", "play_sequence_block"},
    "montecarlo.py": {"_detection_block"},
}


def _range_loops(tree: ast.Module, names: set[str]) -> list[str]:
    # Each ``for`` loop or comprehension over an iterable that calls
    # ``range``, in the top-level functions called ``names``.
    found = []
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef) or top.name not in names:
            continue
        for node in ast.walk(top):
            if isinstance(node, (ast.For, ast.comprehension)) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "range"
                for call in ast.walk(node.iter)
            ):
                found.append(f"{top.name}: for ... in {ast.unparse(node.iter)}")
    return found


def test_sequence_block_flows_loop_over_no_range():
    # A Lemire redraw stays inside the stream that drew it, so no flow
    # loops over lanes either; loops over anything but range stay allowed.
    for module, names in VECTORISED.items():
        tree = ast.parse((PACKAGE / module).read_text())
        assert names <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, module
        assert _range_loops(tree, names) == [], module


def test_range_loop_finder_sees_loops_comprehensions_and_wrapped_ranges():
    source = (
        "def flow(seeds, k):\n"
        "    for t, j in enumerate(range(k)):\n"
        "        pass\n"
        "    rows = [t for t in range(k)]\n"
        "    for lane in np.flatnonzero(seeds):\n"
        "        pass\n"
        "    while k:\n"
        "        k -= 1\n"
        "def other(k):\n"
        "    for t in range(k):\n"
        "        pass\n"
    )
    assert _range_loops(ast.parse(source), {"flow"}) == [
        "flow: for ... in enumerate(range(k))",
        "flow: for ... in range(k)",
    ]


def _one_element_slice(node: ast.AST) -> bool:
    # Whether node is a slice x[i : i + 1] of one element.
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)):
        return False
    lower, upper = node.slice.lower, node.slice.upper
    return (
        lower is not None
        and isinstance(upper, ast.BinOp)
        and isinstance(upper.op, ast.Add)
        and ast.dump(upper.left) == ast.dump(lower)
        and isinstance(upper.right, ast.Constant)
        and upper.right.value == 1
    )


def _lane_replays(tree: ast.Module) -> list[str]:
    # Each call given a one-element slice as an argument, and each use of
    # an attribute called ``_alone``, the lanes' own streams, labelled with
    # the top-level definition that holds it.
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                args = [*node.args, *(keyword.value for keyword in node.keywords)]
                found += [f"{owner}: {ast.unparse(node)}" for arg in args if _one_element_slice(arg)]
            elif isinstance(node, ast.Attribute) and node.attr == "_alone":
                found.append(f"{owner}: {ast.unparse(node)}")
    return found


def test_no_flow_runs_a_lane_again():
    # A Lemire redraw stays inside the stream that drew it: rng hands the
    # lane to a stream of its own, which no other module reaches, and no
    # module calls a flow on one seed of a block to run that lane again.
    offences = _offences(_lane_replays)
    in_rng = offences.pop("rng.py", [])
    assert not offences, offences
    assert any("self._alone" in use for use in in_rng), "rng keeps the lanes' streams"


def test_lane_replay_finder_sees_slices_keywords_and_lane_streams():
    source = (
        "def flow(cfg, seeds, setup):\n"
        "    for lane in np.flatnonzero(setup.alice._alone):\n"
        "        out[lane] = flow(cfg, seeds[lane : lane + 1])[0]\n"
        "        run(seeds=seeds[lane:lane + 1])\n"
        "def other(seeds, lane):\n"
        "    head = seeds[lane : lane + 1]\n"
        "    return f(seeds[lane : lane + 2]), g(seeds[: lane + 1]), h(seeds[lane + 1 : lane + 1])\n"
    )
    assert _lane_replays(ast.parse(source)) == [
        "flow: setup.alice._alone",
        "flow: run(seeds=seeds[lane:lane + 1])",
        "flow: flow(cfg, seeds[lane:lane + 1])",
    ]


CACHE_DECORATORS = {"lru_cache", "cache"}


def _argumentless_caches(tree: ast.Module) -> list[str]:
    # Each function or method that takes no argument and carries lru_cache
    # or cache, bare, called, or as an attribute of functools.
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        if args.posonlyargs or args.args or args.vararg or args.kwonlyargs or args.kwarg:
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in CACHE_DECORATORS:
                found.append(node.name)
    return found


def test_no_function_of_no_argument_is_cached():
    # A table that depends on nothing is a module constant, built at
    # import, not a cached function of no argument.
    offences = _offences(_argumentless_caches)
    assert not offences, offences


def test_argumentless_cache_finder_sees_bare_called_and_attribute_decorators():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def table():\n"
        "    return 1\n"
        "@functools.cache\n"
        "def other():\n"
        "    return 2\n"
        "@lru_cache\n"
        "def keyed(n):\n"
        "    return n\n"
        "class Holder:\n"
        "    @staticmethod\n"
        "    @functools.lru_cache()\n"
        "    def built():\n"
        "        return 3\n"
        "    @cache\n"
        "    def method(self):\n"
        "        return 4\n"
        "def outer():\n"
        "    @cache\n"
        "    def inner(*args):\n"
        "        return args\n"
        "    @property\n"
        "    def plain():\n"
        "        return 5\n"
        "    return inner, plain\n"
    )
    assert sorted(_argumentless_caches(ast.parse(source))) == ["built", "other", "table"]


def _writable_arrays(namespace: dict) -> list[str]:
    # The path of each writable numpy array reachable from a name of
    # ``namespace``, through tuples (NamedTuples among them), lists and
    # dicts; dunder names are skipped.
    found = []

    def visit(path, value):
        if isinstance(value, np.ndarray):
            if value.flags.writeable:
                found.append(path)
        elif isinstance(value, (tuple, list)):
            for index, item in enumerate(value):
                visit(f"{path}[{index}]", item)
        elif isinstance(value, dict):
            for key, item in value.items():
                visit(f"{path}[{key!r}]", item)

    for name, value in namespace.items():
        if not name.startswith("__"):
            visit(name, value)
    return found


def test_every_module_level_array_is_read_only():
    # Tables are built once and shared by every run, so a caller writing
    # into one would silently change every later value read from it.
    offences = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "rotlab" if path.stem == "__init__" else f"rotlab.{path.stem}"
        writable = _writable_arrays(vars(importlib.import_module(name)))
        if writable:
            offences[path.name] = writable
    assert not offences, offences
    # Tables cached per argument reach no module name: one of each cache.
    cached = (protocols._earlier(4), *rng._layout(((0, 0, 1),)), *rng._lemire_bounds((5,)))
    assert not any(table.flags.writeable for table in cached)


def test_writable_array_finder_sees_nested_tables():
    class Pair(NamedTuple):
        first: np.ndarray
        second: np.ndarray

    frozen = np.zeros(2)
    frozen.setflags(write=False)
    namespace = {
        "__builtins__": {"table": np.zeros(1)},
        "TABLE": np.zeros(3),
        "FROZEN": frozen,
        "_PAIR": Pair(frozen, np.ones(2)),
        "_BY_KEY": {"Z": (frozen, [np.eye(2)]), "X": frozen},
        "SCALAR": np.uint64(1),
        "ROWS": [frozen, np.arange(2)],
    }
    assert _writable_arrays(namespace) == ["TABLE", "_PAIR[1]", "_BY_KEY['Z'][1][0]", "ROWS[1]"]
