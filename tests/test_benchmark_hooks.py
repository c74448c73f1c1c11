"""Every name the benchmark hooks into paleomag still exists.

``perfbench/tracer.py`` wraps functions by name (``wrap(module, "name", ...)``)
and ``perfbench/worker.py`` makes them pause points (``hook(module, "name")``).
Both replace a module attribute, so a refactor that renames or removes one
breaks ``--trace 1`` or the pacer.  This test reads both files with ``ast``
and checks each such name on the paleomag module it names.

``perfbench/workloads.py`` builds its configs with ``ScenarioConfig(...)``
and from ``overrides`` lists of ``(key, value)`` pairs; every keyword and
every key must still be a ``ScenarioConfig`` field.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HOOK_FILES = ("tracer.py", "worker.py")


def _hooked_names(path: Path) -> list:
    """(module, attribute) of every wrap/hook call on a module imported from paleomag."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "paleomag"
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and len(node.args) >= 2):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner, attr = node.args[:2]
        if (
            name in ("wrap", "hook")
            and isinstance(owner, ast.Name) and owner.id in modules
            and isinstance(attr, ast.Constant) and isinstance(attr.value, str)
        ):
            found.append((owner.id, attr.value))
    return found


@pytest.mark.parametrize("filename", HOOK_FILES)
def test_every_hooked_name_exists(filename):
    hooked = _hooked_names(PERFBENCH / filename)
    assert hooked, f"no wrap/hook calls found in perfbench/{filename}"
    missing = [
        f"{mod}.{attr}" for mod, attr in hooked
        if not callable(getattr(importlib.import_module(f"paleomag.{mod}"), attr, None))
    ]
    assert not missing, f"perfbench/{filename} hooks names paleomag lacks: {missing}"


def _config_keys(path: Path) -> list:
    """Keywords of every ScenarioConfig(...) call and keys of every overrides list."""
    keys = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "ScenarioConfig":
                keys += [kw.arg for kw in node.keywords]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            target = node.targets[0]
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name == "overrides":
                keys += [
                    pair.elts[0].value for pair in node.value.elts
                    if isinstance(pair, ast.Tuple) and isinstance(pair.elts[0], ast.Constant)
                ]
    return keys


def test_every_config_key_is_a_field():
    from paleomag.scenarios import ScenarioConfig

    keys = _config_keys(PERFBENCH / "workloads.py")
    assert keys, "no ScenarioConfig keywords or overrides found in perfbench/workloads.py"
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    missing = sorted(set(keys) - fields)
    assert not missing, f"perfbench/workloads.py sets config keys ScenarioConfig lacks: {missing}"
