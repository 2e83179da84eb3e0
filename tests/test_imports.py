import ast
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
