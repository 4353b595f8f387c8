"""The public API is exactly the README's Library import block."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import drivetriad

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(drivetriad.__file__).resolve().parent


def readme_import_names() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\nfrom drivetriad import \((.*?)\)\n```", readme, re.S)
    assert block is not None, "README has no `from drivetriad import (...)` block"
    code = re.sub(r"#[^\n]*", "", block.group(1))
    return {name.strip() for name in code.split(",") if name.strip()}


def test_readme_block_is_the_package_api():
    assert readme_import_names() == set(drivetriad.__all__) - {"__version__"}
    assert len(drivetriad.__all__) == len(set(drivetriad.__all__))


def test_every_exported_name_is_importable():
    namespace: dict = {}
    exec("from drivetriad import *", namespace)
    for name in drivetriad.__all__:
        assert namespace[name] is getattr(drivetriad, name)


def test_only_the_package_init_states_an_api():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assigned = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        assert "__all__" not in assigned, f"{path.name} assigns __all__"


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_module_imports_a_name_it_never_uses():
    # A leftover import outlives the code that needed it; the package
    # __init__ uses its imports by naming them in __all__.
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(drivetriad.__all__)
        names = sorted(set(_imported_names(tree)) - used)
        if names:
            unused[path.name] = names
    assert unused == {}


def traced_targets() -> list[tuple[str, str, str]]:
    """The perfbench tracer's (module, attribute, span name) triples."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    return targets


def test_every_traced_attribute_resolves():
    # The perfbench tracer wraps these module attributes by name, and only on
    # a traced run, so a rename under src/ would break tracing unnoticed.
    for module, attribute, _ in traced_targets():
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            f"{module}.{attribute}"
        )


def _calls_in(paths) -> list[ast.Call]:
    return [
        node
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]


def test_every_traced_attribute_is_called_by_name():
    # A wrapper sees only the calls that look the attribute up in the
    # module at call time: a direct call, or the function handed on as an
    # argument (parse_input(path, parse_gpx, data)). Code that routes around
    # it, say through a fused helper, would read 0 s for that span. The
    # benchmark calls synth's two functions through the module instead
    # (synth.write_corpus(...)).
    benchmark_calls = _calls_in(sorted((ROOT / "perfbench").glob("*.py")))
    for module, attribute, _ in traced_targets():
        path = Path(importlib.import_module(module).__file__)
        by_name = any(
            isinstance(name, ast.Name) and name.id == attribute
            for call in _calls_in([path])
            for name in (call.func, *call.args)
        )
        through_module = any(
            isinstance(call.func, ast.Attribute)
            and call.func.attr == attribute
            and getattr(call.func.value, "id", None) == module.rpartition(".")[2]
            for call in benchmark_calls
        )
        assert by_name or through_module, f"{module} never calls {attribute} by name"


def _writes_a_file(call: ast.Call) -> bool:
    """Whether a call is ``open()`` in a write mode, ``Path.write_text`` or
    ``Path.write_bytes``; a mode that is not a literal counts as writing."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    is_method = isinstance(func, ast.Attribute)
    if (func.attr if is_method else getattr(func, "id", None)) != "open":
        return False
    # open(path, mode) and Path.open(mode)
    position = 0 if is_method else 1
    mode = call.args[position] if len(call.args) > position else next(
        (k.value for k in call.keywords if k.arg == "mode"), None
    )
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def _callers(is_call) -> set[str]:
    """Every ``module.function`` under src/ that makes a call for which
    ``is_call`` holds; a call outside any function is ``module.<module>``."""
    callers = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner.partition('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Call) and is_call(child):
                callers.add(owner)
            visit(child, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.<module>")
    return callers


def _calls(name: str):
    """Whether a call is to a function or method named ``name``."""
    return lambda call: name in (
        getattr(call.func, "attr", None), getattr(call.func, "id", None)
    )


def test_only_write_text_writes_files():
    # Encoding, newlines, the IoError naming the file and the removal of a
    # partly written file live in emitter.write_text.
    assert _callers(_writes_a_file) == {"emitter.write_text"}


def test_only_the_output_rule_makes_directories_or_removes_files():
    # emitter.output_dir makes the output directory and removes what a
    # failed run wrote; write_text removes the file it failed to finish.
    assert _callers(_calls("mkdir")) == {"emitter.output_dir"}
    assert _callers(_calls("unlink")) == {"emitter.output_dir", "emitter.write_text"}


def test_only_the_input_readers_decode_bytes_or_json():
    # core.read_text is the one decoder of input bytes. core.read_object
    # reads a whole JSON document and emitter._triad_from_json one triads
    # line; every other reader of JSON goes through one of them.
    assert _callers(_calls("decode")) == {"core.read_text"}
    assert _callers(_calls("loads")) == {"core.read_object", "emitter._triad_from_json"}
