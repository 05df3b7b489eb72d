"""Every top-level function, constant and error class in the package is used somewhere.

Helpers that lose their last caller, the knobs they read, and the
exceptions only they raised tend to linger; this keeps them from piling
up again.  A public function counts as used when the package calls it
or exports it.  The public surface is guarded too: each exported name is
documented in README, each name the benchmark harness looks up on the
package is exported, and the CLI reads every option it accepts.
"""

import argparse
import ast
import re
from pathlib import Path

import tridiag4
from tridiag4 import cli, errors

SRC = Path(tridiag4.__file__).resolve().parent
ROOT = SRC.parents[1]


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unreferenced_private_functions():
    modules = _modules()
    referenced = set().union(*(_referenced_names(tree) for tree in modules.values()))
    unused = [
        f"{name}:{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert unused == []


def test_only_pencil_centres():
    # the centring rule lives in one module: every other reads Pencil.centred
    referring = [name for name, tree in _modules().items() if "_centred" in _referenced_names(tree)]
    assert referring == ["pencil.py"]


def _callers(name):
    """``module:owner`` for each call of ``name`` in the package, ``owner`` the top-level function or class it sits in (``None`` at module level)."""
    return [
        f"{module}:{getattr(stmt, 'name', None)}"
        for module, tree in _modules().items()
        for stmt in tree.body
        for call in ast.walk(stmt)
        if isinstance(call, ast.Call) and _name(call.func) == name
    ]


def test_one_measurement_one_result():
    # a candidate unitary is measured in one function and made a result in one place, the solver's gate
    assert _callers("TridiagResult") == ["tridiagonalize.py:_solve"]
    assert _callers("_unitarity") == ["pencil.py:_measure"]


def test_only_the_flag_point_stream_builds_sheets():
    # the best sheets and their flags are built in pencil.py alone: the solver
    # reads its Gauss-Newton starts off the rows of pencil._flag_points
    callers = _callers("_best_sheets")
    assert callers and all(caller.startswith("pencil.py:") for caller in callers), callers


def test_only_pencil_roots_circle_samples():
    # np.fft and np.roots turn circle samples into roots in one place, pencil._circle_roots
    def numpy_roots(tree):
        return any(
            isinstance(node, ast.Attribute) and node.attr in ("fft", "roots") and _name(node.value) == "np"
            for node in ast.walk(tree)
        )

    assert [name for name, tree in _modules().items() if numpy_roots(tree)] == ["pencil.py"]


def test_only_pencil_builds_the_circle_grid():
    # the roots of unity are built once, in pencil._CIRCLE: no other module refers to np.pi
    def refers_to_pi(tree):
        return any(
            isinstance(node, ast.Attribute) and node.attr == "pi" and _name(node.value) == "np"
            for node in ast.walk(tree)
        )

    assert [name for name, tree in _modules().items() if refers_to_pi(tree)] == ["pencil.py"]


def test_only_pencil_takes_eig():
    # the general eig of a stack of pencil matrices lives in pencil.py; the
    # solver refines from the flags it carries, not from a Schur basis
    def calls_eig(tree):
        return any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "eig"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "linalg"
            and _name(node.func.value.value) == "np"
            for node in ast.walk(tree)
        )

    assert [name for name, tree in _modules().items() if calls_eig(tree)] == ["pencil.py"]


def test_counts_take_only_the_screen_from_genericity():
    # the Krylov sextic and the curve points live in pencil.py; degrees.py asks genericity.py for the screen alone
    imported = [
        alias.name
        for node in ast.walk(_modules()["degrees.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "genericity"
        for alias in node.names
    ]
    assert imported == ["_classify"]


#: Public functions that nothing in the package calls and ``__all__`` leaves out, with the reason each stays.
UNCALLED_PUBLIC = {
    "generate.random_unitary": "Haar unitaries, the structured inputs of the tests and the demos",
}


def test_no_unreferenced_public_functions():
    modules = _modules()
    referenced = set().union(*(_referenced_names(tree) for tree in modules.values()))
    unused = [
        f"{name.removesuffix('.py')}.{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in referenced
        and node.name not in tridiag4.__all__
    ]
    assert sorted(unused) == sorted(UNCALLED_PUBLIC)


def _constants(tree):
    """Names bound at module level by ``NAME = ...`` with ``NAME`` upper-case."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names.extend(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
    return names


def test_no_unreferenced_constants():
    # a reference is a load of the name (or an attribute or import of it);
    # the constant's own assignment does not count
    modules = _modules()
    referenced = set().union(*(_referenced_names(tree) for tree in modules.values()))
    unused = [
        f"{name}:{const}" for name, tree in modules.items() for const in _constants(tree) if const not in referenced
    ]
    assert unused == []


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _raised_names(tree):
    """Names of the classes a module raises, or passes to ``warnings.warn``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names.add(_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
        elif isinstance(node, ast.Call) and _name(node.func) == "warn" and len(node.args) >= 2:
            names.add(_name(node.args[1]))
    return names - {None}


def test_every_error_class_is_raised():
    # a class in errors.py is live when src/ raises or warns it or a subclass
    raised = set().union(*(_raised_names(tree) for tree in _modules().values()))
    raised = [getattr(errors, name) for name in raised if isinstance(getattr(errors, name, None), type)]
    classes = [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__]
    dead = [c.__name__ for c in classes if not any(issubclass(r, c) for r in raised)]
    assert dead == []


def test_exports_are_documented():
    # a name counts as documented when README writes it as code: `name...
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    undocumented = [name for name in tridiag4.__all__ if not re.search(rf"`{re.escape(name)}\b", readme)]
    assert undocumented == []
    # and README states the number of exported names as it is
    assert re.findall(r"exports these (\d+) names", readme) == [str(len(tridiag4.__all__))]


def test_benchmark_lookups_are_exported():
    # perfbench reaches the program as ``api.<name>`` on the package
    used = set(re.findall(r"\bapi\.(\w+)", (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")))
    assert used >= {"Pencil", "degree_of_det_curve", "make_matrix", "run_experiments", "tridiagonalize", "verify"}
    assert sorted(used - set(tridiag4.__all__)) == []


def test_every_cli_option_is_read():
    # an option whose value the commands never read changes nothing
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    read = set(re.findall(r"\bargs\.(\w+)", source))
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = [
        f"{name}:{action.dest}"
        for name, sub in commands.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction) and action.dest not in read
    ]
    assert unread == []
