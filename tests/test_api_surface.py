"""Every public name of the engine has a caller, and the step functions share one order.

Each module of ``paleomag`` lists its public names in ``__all__``.  A name
counts as used when it is read somewhere in the package or the tests: as a
plain name, as an attribute, or in a from-import.  The package's
``__init__.py`` only re-exports, so its imports do not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paleomag"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _used_names() -> set:
    used = set()
    for path in MODULES + sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def _public_names(path: Path) -> list:
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_caller(path):
    used = _used_names()
    unused = [name for name in _public_names(path) if name not in used]
    assert not unused, f"{path.stem}: public names without a caller: {unused}"


def _unread_parameters(path: Path) -> list:
    """Parameters of every def in path that its body never reads."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{node.name}.{p.arg}" for p in params
            if p.arg != "self" and not p.arg.startswith("_") and p.arg not in read
        ]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    unread = _unread_parameters(path)
    assert not unread, f"{path.stem}: parameters never read: {unread}"


@pytest.mark.parametrize("module, name", [
    ("stepper", "step"), ("stepper", "step_terms"), ("stepper", "residuals"),
    ("energetics", "audit_step"),
])
def test_step_functions_share_one_argument_order(module, name):
    # a step maps state_prev and its loads over dt, on grid with params, to state_new
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    params = [a.arg for a in fn.args.args]
    lead = ["state_prev", "loads_k", "dt", "grid", "params"]
    if name != "step":
        lead.insert(1, "state_new")
    assert params[:len(lead)] == lead
