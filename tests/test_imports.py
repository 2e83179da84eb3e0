import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "worstvote"


def test_package_imports_only_the_standard_library():
    # Function-level imports count too: `ast.walk` visits every node.
    roots = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                roots.setdefault(name.split(".")[0], path.name)
    assert {"fractions", "itertools"} <= roots.keys()
    outside = {root: where for root, where in roots.items() if root not in sys.stdlib_module_names}
    assert not outside, outside


def test_modules_use_every_name_they_import():
    # `protocols` imports `rank_rearrange` without calling it: the benchmark's
    # tracer counts scenarios by wrapping `protocols.rank_rearrange`.
    allowed = {("protocols.py", "rank_rearrange")}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.name, name) not in allowed:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused


def test_the_evaluator_and_its_oracle_import_only_lottery_and_profiles():
    # The evaluation is the one description of what a protocol stage
    # guarantees, so neither it nor the brute force that checks it reads
    # the composition formulas that the tests compare both with.
    for path in (PACKAGE / "protocols.py", Path(__file__).with_name("protocol_oracle.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {
            node.module.removeprefix("worstvote.")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("worstvote"))
        }
        assert modules == {"lottery", "profiles"}, path.name


def test_every_definition_is_read_or_imported():
    # A top-level function, class or assignment of a module must be read in
    # that module or imported by another module of the package (the exports
    # of `__init__` count as imports).  Dunder names such as `__version__`
    # are exempt.
    defined, read, imported = {}, {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        read[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read[module].add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((node.module, alias.name) for alias in node.names)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    defined[(module, name)] = node.lineno
    unread = [
        f"{module}.py:{line} {name}"
        for (module, name), line in defined.items()
        if name not in read[module] and (module, name) not in imported
    ]
    assert not unread, unread


def test_every_method_is_read_as_an_attribute():
    # A non-dunder method or property of a package class must be read as an
    # attribute somewhere in the package or in `perfbench/`: one that only
    # the tests read has no caller.  Overrides of a method of a base from
    # outside the package, such as `cli._Parser.error`, are called by that
    # base.
    read = set()
    for path in sorted([*PACKAGE.glob("*.py"), *(PACKAGE.parent.parent / "perfbench").rglob("*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"worstvote.{path.stem}")
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [base for base in getattr(module, node.name).__mro__[1:] if not base.__module__.startswith("worstvote")]
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name.startswith("__") or item.name in read:
                    continue
                if not any(hasattr(base, item.name) for base in bases):
                    unread.append(f"{path.name}:{item.lineno} {node.name}.{item.name}")
    assert not unread, unread


def test_importing_the_package_leaves_the_process_pool_unimported():
    # Only a scan that starts a pool imports `concurrent.futures.process`
    # (`feasibility.ProcessPoolExecutor`), and with it `multiprocessing`.
    code = "import sys, worstvote; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
