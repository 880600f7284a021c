"""Package hygiene checked with the standard library's ``ast``.

Each module of ``venndec`` must use every name it imports and define every
name in its ``__all__``.  ``__init__.py`` is skipped: its imports are the
package's re-exports.  Every name the benchmark's tracer wraps (``LAYERS`` in
``perfbench/spans.py``, read here without importing it) must resolve on its
``venndec`` module, so a rename shows up here and not only in a traced run.
No module may use a NumPy name that the declared floor, NumPy 1.24, lacks.
Every name in an ``__all__`` must have a user: the benchmark, the acceptance
tests, or code in ``venndec`` that is itself in use.  Every flag of every CLI
subcommand must be read by that subcommand's handler.
"""

import argparse
import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import pytest

import venndec

_MODULES = sorted(p for p in Path(venndec.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with the line that binds each."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _assigned_value(tree: ast.Module, name: str) -> ast.expr | None:
    """The value of the module-level assignment to ``name``, if there is one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    return None


def _exported_names(tree: ast.Module) -> list[str]:
    value = _assigned_value(tree, "__all__")
    return [ast.literal_eval(elt) for elt in value.elts] if value else []


def _defined_names(tree: ast.Module) -> set[str]:
    """Names bound at module level: definitions, assignments and imports."""
    out = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported_names(tree))
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = set(_exported_names(tree)) - _defined_names(tree)
    assert not missing, f"{path.name} lists undefined names in __all__: {sorted(missing)}"


def test_every_benchmark_span_name_resolves():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    value = _assigned_value(ast.parse(path.read_text(), filename=str(path)), "LAYERS")
    assert value is not None, f"{path} assigns no LAYERS"
    layers = ast.literal_eval(value)
    missing = []
    for layer, names in layers.items():
        module = importlib.import_module(f"venndec.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{layer}.{name}")
    assert layers and not missing, f"benchmark spans name nothing in venndec: {missing}"


def _referenced_names(node: ast.AST) -> set[str]:
    """Identifiers, attribute names and from-imported names under ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _unused_exports(root: Path) -> list[str]:
    """``module.name`` for each ``__all__`` entry of ``root/src/venndec`` with
    no user.  Users are the references in ``perfbench/*.py`` and
    ``tests/test_acceptance.py``, the benchmark's ``LAYERS`` entries, and the
    references in ``venndec`` outside the definitions of exported names (and
    outside ``__init__.py``, whose imports are re-exports).  An exported
    name's definition adds its own references once that name has a user, so
    a name that only an unused one refers to has none."""
    exports, refs_of, used = {}, {}, set()
    for path in sorted((root / "src" / "venndec").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = set(_exported_names(tree))
        exports.update((name, f"{path.stem}.{name}") for name in names)
        for node in tree.body:
            bound = _defined_names(ast.Module([node], []))
            if "__all__" in bound:
                continue
            refs = _referenced_names(node)
            for name in bound & names:
                refs_of[name] = refs - {name}
            if not bound & names:
                used |= refs
    for path in [*(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]:
        used |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    layers = _assigned_value(ast.parse((root / "perfbench" / "spans.py").read_text()), "LAYERS")
    used |= {name.split(".")[0] for names in ast.literal_eval(layers).values() for name in names}
    new = used & refs_of.keys()
    while new:
        grown = set().union(*(refs_of[name] for name in new)) - used
        used |= grown
        new = grown & refs_of.keys()
    return sorted(qual for name, qual in exports.items() if name not in used)


def test_every_export_has_a_user():
    unused = _unused_exports(Path(__file__).resolve().parents[1])
    assert not unused, f"exported names that no command, experiment or benchmark uses: {unused}"


def test_unused_export_check_follows_users(tmp_path):
    # run is a benchmark span and Report is what it returns; check and the
    # report only it builds have no user
    pkg = tmp_path / "src" / "venndec"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(
        '__all__ = ["run", "Report", "check", "CheckReport"]\n'
        "class Report: pass\n"
        "def run(): return Report()\n"
        "class CheckReport: pass\n"
        "def check(): return CheckReport()\n"
    )
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "spans.py").write_text('LAYERS = {"m": ("run",)}\n')
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("")
    assert _unused_exports(tmp_path) == ["m.CheckReport", "m.check"]


_NUMPY_FLOOR = "numpy>=1.24"
# NumPy names added after 1.24, as dotted paths below the numpy namespace
_NUMPY_AFTER_FLOOR = {
    "vecdot", "matrix_transpose", "linalg.vecdot", "linalg.matrix_transpose", "linalg.vector_norm",
    "linalg.matrix_norm", "linalg.svdvals", "linalg.cross", "linalg.outer", "linalg.diagonal",
    "linalg.trace", "linalg.matmul", "linalg.tensordot", "unique_values", "unique_counts",
    "unique_inverse", "unique_all", "astype", "concat", "permute_dims", "pow", "acos", "acosh",
    "asin", "asinh", "atan", "atan2", "atanh", "bitwise_left_shift", "bitwise_right_shift",
    "bitwise_invert", "isdtype", "trapezoid", "cumulative_sum", "cumulative_prod", "unstack",
    "matvec", "vecmat", "bool", "long", "ulong", "exceptions", "dtypes",
}


def _numpy_names_after_floor(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, dotted name) of each use of a name in ``_NUMPY_AFTER_FLOOR``,
    through ``import numpy``, ``import numpy.x as y`` or ``from numpy... import``."""
    aliases = {}  # local name -> its dotted path below numpy ("" for numpy itself)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "numpy":
                    if alias.asname:
                        aliases[alias.asname] = ".".join(parts[1:])
                    else:
                        aliases["numpy"] = ""
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "numpy":
            base = node.module.split(".")[1:]
            for alias in node.names:
                path = ".".join([*base, alias.name])
                aliases[alias.asname or alias.name] = path
                found.append((node.lineno, path))
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if id(node) in inner:
            continue  # part of a longer attribute chain, which is read whole
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            found.append((node.lineno, ".".join(filter(None, [aliases[node.id], *reversed(chain)]))))
    return sorted(
        (line, path)
        for line, path in set(found)
        if any(".".join(path.split(".")[:k]) in _NUMPY_AFTER_FLOOR for k in range(1, path.count(".") + 2))
    )


def test_numpy_floor_is_declared():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert f'"{_NUMPY_FLOOR}"' in pyproject.read_text(), f"pyproject no longer declares {_NUMPY_FLOOR}"


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_numpy_name_after_the_floor(path):
    found = _numpy_names_after_floor(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} uses NumPy names missing from {_NUMPY_FLOOR}: {found}"


@pytest.mark.parametrize(
    "source, want",
    [
        ("import numpy as np\nnp.vecdot(a, b)", [(2, "vecdot")]),
        ("import numpy\nnumpy.linalg.vector_norm(a)", [(2, "linalg.vector_norm")]),
        ("import numpy.linalg as la\nla.matrix_norm(a)", [(2, "linalg.matrix_norm")]),
        ("from numpy.linalg import svdvals", [(1, "linalg.svdvals")]),
        ("import numpy as np\nnp.exceptions.AxisError", [(2, "exceptions.AxisError")]),
        ("import numpy as np\nnp.linalg.norm(a.astype(float))\nnp.unique(a)", []),
        ("from scipy.linalg import svdvals\nsvdvals(a)", []),
    ],
)
def test_numpy_floor_check_finds_names(source, want):
    assert _numpy_names_after_floor(ast.parse(source)) == want


def _unread_flags(parser: argparse.ArgumentParser) -> list[str]:
    """``"<prog>: <dest>"`` for each option of each leaf subcommand (nested
    ones included) that the leaf's ``func`` handler never reads as
    ``args.<dest>``; ``help`` is left out."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subs:
        return [flag for a in subs for sub in a.choices.values() for flag in _unread_flags(sub)]
    tree = ast.parse(textwrap.dedent(inspect.getsource(parser.get_default("func"))))
    arg = tree.body[0].args.args[0].arg
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == arg}
    return [f"{parser.prog}: {a.dest}" for a in parser._actions if a.dest != "help" and a.dest not in read]


def test_every_cli_flag_is_read_by_its_handler():
    from venndec.cli import build_parser

    unread = _unread_flags(build_parser())
    assert not unread, f"subcommand flags that their handlers never read: {unread}"


def _handler_reading_a(args):
    return args.a


def test_unread_flag_check_finds_a_skipped_flag():
    parser = argparse.ArgumentParser(prog="tool")
    commands = parser.add_subparsers(dest="command")
    leaf = commands.add_parser("run").add_subparsers(dest="action").add_parser("leaf")
    leaf.add_argument("--a")
    leaf.add_argument("--skipped")
    leaf.set_defaults(func=_handler_reading_a)
    flat = commands.add_parser("flat")
    flat.add_argument("b")
    flat.set_defaults(func=_handler_reading_a)
    assert _unread_flags(parser) == ["tool run leaf: skipped", "tool flat: b"]
