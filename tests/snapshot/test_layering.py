"""``repro.snapshot`` sits below the benchmark harnesses: no module in
it may import ``repro.perf``, at module level or inside a function."""

import ast

from tests.conftest import REPO

SNAPSHOT_DIR = REPO / "src" / "repro" / "snapshot"


def perf_imports(path) -> list[str]:
    """``repro.perf`` imports in one module, absolute or relative."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from ..perf import x`` inside repro.snapshot resolves to
            # repro.perf; ``from .. import perf`` likewise.
            base = node.module or ""
            if node.level == 2:
                base = f"repro.{base}" if base else "repro"
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "repro.perf" or name.startswith("repro.perf.")
               for name in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_snapshot_never_imports_perf():
    modules = sorted(SNAPSHOT_DIR.glob("*.py"))
    assert modules
    offending = [hit for path in modules for hit in perf_imports(path)]
    assert offending == []


def test_detector_sees_both_import_forms(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text("def f():\n    from ..perf.fleet import x\n"
                      "import repro.perf\nfrom .. import perf\n")
    assert len(perf_imports(module)) == 3
