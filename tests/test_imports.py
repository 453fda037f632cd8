"""The package's import graph: every CLI command runs on numpy and
``scipy.sparse`` alone, and ``scipy.stats`` loads only when ``welch_test``
is first called; no module imports a name it never uses; and every name
the package exports is read outside its tests.

A heavy module pulled in at import time is paid by every command, in
start-up time and in the memory of the one process that runs the command
and its scenario threads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.special", "scipy.linalg", "scipy.spatial")

SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    import netstress
    from netstress.cli import main

    heavy, toy, tmp = sys.argv[1].split(","), sys.argv[2], Path(sys.argv[3])
    eco = ["--economy-dir", toy]
    runs = [
        ["validate", *eco],
        ["generate", "--n", "40", "--m", "3", "--out", str(tmp / "gen")],
        ["stress", *eco, "--count", "4", "--workers", "1", "--out", str(tmp / "s1")],
        ["stress", *eco, "--count", "4", "--workers", "2", "--out", str(tmp / "s2")],
        ["fsri", *eco, "--out", str(tmp / "fsri")],
        ["debtrank", *eco, "--out", str(tmp / "dr")],
        ["report", "--ledgers", str(tmp / "s1" / "ledgers.csv"), "--out", str(tmp / "rep")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    loaded = [name for name in heavy if name in sys.modules]
    assert not loaded, f"loaded by the commands: {loaded}"

    netstress.welch_test([1.0, 2.0, 4.0], [2.0, 3.0, 7.0])
    assert "scipy.stats" in sys.modules
    print("ok")
""")


def test_commands_leave_heavy_scipy_modules_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, ",".join(HEAVY), str(ROOT / "data" / "toy"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


def _unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each imported name the module never reads.

    A name listed in ``__all__`` counts as read, and so does one whose own
    line carries ``# noqa: F401``.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {name}")
    return unused


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "netstress").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert files
    assert [entry for path in files for entry in _unused_imports(path)] == []


# kept for a run that writes the batch it drew (ROADMAP item 12(b)); until then only tests read it
UNREAD_EXPORTS = {"write_batch"}


def _names_read(node: ast.AST, defining: frozenset[str] = frozenset()) -> set[str]:
    """The names and attribute names read in ``node``, except those read inside their own definition."""
    read = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            read |= _names_read(child, defining | {child.name})
            continue
        if isinstance(child, ast.Name):
            read.add(child.id)
        elif isinstance(child, ast.Attribute):
            read.add(child.attr)
        read |= _names_read(child, defining)
    return read - defining


def test_every_export_is_read_outside_the_tests():
    """Each name in ``netstress.__all__`` is read by the package itself, a script, the
    benchmark or the acceptance gate: the package ships no API only its own tests use."""
    package = ROOT / "src" / "netstress"
    readers = ([path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
               + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    read = set().union(*(_names_read(ast.parse(path.read_text(encoding="utf-8"))) for path in readers))
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    (exported,) = [ast.literal_eval(node.value) for node in init.body
                   if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"]
    assert sorted(set(exported) - read - UNREAD_EXPORTS) == []
