"""Every name a module exports through __all__ exists, and the program uses it."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from todalab.asymptotics import ExpansionCheck, TIntegralResult

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["todalab"] + [
    f"todalab.{name}"
    for name in ("cartan", "cpoly", "solution", "residual", "asymptotics", "mass",
                 "identities", "suites", "cli")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_exist(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def _used_names(tree: ast.AST) -> set:
    """Names, attributes and exact string constants a module's code refers to.

    Import statements, __all__ assignments and docstrings do not count, nor
    does a name inside the body of its own top-level definition.
    """
    used = set()

    def visit(node, defining=None):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining or node.name
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name != defining:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree)
    return used


def test_every_exported_name_is_used_by_the_program():
    # No public API that only its own unit tests call: each exported name is
    # read somewhere in src/ or perfbench/ besides where it is defined.
    used = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        used |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    exported = {name for module in MODULES for name in importlib.import_module(module).__all__}
    unused = sorted(exported - used)
    assert not unused


def test_every_result_field_is_read_by_the_suites():
    # No result field that only tests read: every field of a far-field check
    # and of a T-integral result goes into a report through todalab.suites.
    tree = ast.parse((ROOT / "src" / "todalab" / "suites.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    fields = {f.name for cls in (ExpansionCheck, TIntegralResult) for f in dataclasses.fields(cls)}
    assert sorted(fields - read) == []


def _callers(tree: ast.AST, scope: str, callee: str) -> set:
    """Qualified names of the functions (or the module) whose code calls `callee`."""
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == callee:
                callers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, scope)
    return callers


def test_only_the_det_k_kernel_evaluates_polynomials():
    # One evaluation kernel: every Horner pass over the minors, for det_k and
    # for each parameter tangent, runs in solution._log_dets.
    callers = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        callers |= _callers(ast.parse(path.read_text(), filename=str(path)), path.stem, "eval_poly")
    assert callers == {"solution._log_dets"}


def test_one_cauchy_binet_builder_makes_every_minor():
    # Every W_S and every dW_S is the Cauchy-Binet sum over one table of
    # coefficient minors: only the assembly reads that table (whose entries
    # recurse on themselves), and only the two minor builders assemble.
    tree = ast.parse((ROOT / "src" / "todalab" / "solution.py").read_text())
    assert _callers(tree, "solution", "_coefficient_minors") == {
        "solution._cauchy_binet", "solution._coefficient_minors"}
    assert _callers(tree, "solution", "_cauchy_binet") == {
        "solution._wronskian_minors", "solution._tangent_minors"}
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name != "solution.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            assert not _callers(tree, path.stem, "_coefficient_minors") | _callers(
                tree, path.stem, "_cauchy_binet"), path.name


def test_only_the_per_parameter_set_tables_are_memoized():
    # No memo keyed on a call's points: in solution.py lru_cache wraps only
    # the tables built once per parameter set, each as a decorator.
    tree = ast.parse((ROOT / "src" / "todalab" / "solution.py").read_text())

    def is_lru_cache(node):
        return "lru_cache" in (getattr(node, "id", None), getattr(node, "attr", None))

    wrapped = [node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and any(is_lru_cache(n) for d in node.decorator_list for n in ast.walk(d))]
    uses = [node for node in ast.walk(tree) if is_lru_cache(node)]
    assert sorted(wrapped) == ["_monomial_wronskian", "_tangent_minors", "_wronskian_minors"]
    assert len(uses) == len(wrapped)


def test_only_solution_spells_a_direction_name():
    # One rule names the directions: every other module takes the names
    # from todalab.solution, so no string in its code (docstrings aside)
    # spells alpha{f}_, beta{f}_ or loglambda_.
    spelled = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "solution.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and re.search(r"(alpha|beta)\d*_|loglambda_", node.value)):
                spelled.append((path.name, node.lineno, node.value))
    assert not spelled


def test_residual_reaches_the_kernel_through_log_det_k_tangent_alone():
    # One walk per grid: the residuals take U and every tangent from one
    # log_det_k_tangent call per window and build U_i = A U themselves, so
    # todalab.residual calls no other evaluator of todalab.solution.
    tree = ast.parse((ROOT / "src" / "todalab" / "residual.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    from_solution = {alias.name for node in imports
                     if isinstance(node, ast.ImportFrom) and node.module == "solution"
                     for alias in node.names}
    # No route through the module itself (import todalab.solution, from . import solution).
    assert not [alias.name for node in imports for alias in node.names if "solution" in alias.name]
    assert "lower_components" not in from_solution
    called = {name for name in from_solution if _callers(tree, "residual", name)}
    assert called == {"log_det_k_tangent"}


def _spelled_modules(tree: ast.AST):
    """Dotted module paths a module's code imports or reads an attribute of (np read as numpy)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield f"{'numpy' if node.value.id == 'np' else node.value.id}.{node.attr}"


def test_no_module_reaches_numpy_random_polynomial_or_hashlib():
    # A run imports only the numpy it computes with: numpy.random (which
    # loads secrets, hashlib and OpenSSL) and numpy.polynomial are replaced by
    # solution._pcg64 and asymptotics.gauss_legendre.
    banned = ("numpy.random", "numpy.polynomial", "hashlib", "secrets")
    spelled = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for module in _spelled_modules(ast.parse(path.read_text(), filename=str(path))):
            if any(module == b or module.startswith(b + ".") for b in banned):
                spelled.append((path.name, module))
    assert not spelled
