"""Layering of ``repro.snapshot``.

It sits below the benchmark harnesses: no module in it may import
``repro.perf``, at module level or inside a function.  And it has one
way in: outside ``open_document`` (the schema dispatch every read
passes, used by ``open_chain``), nothing in ``src/`` validates a
snapshot document or decodes its blobs, so no second read path can
grow back.  And every restore stages before it commits: a commit
closure only assigns, so it neither raises nor decodes."""

import ast

from tests.conftest import REPO

SNAPSHOT_DIR = REPO / "src" / "repro" / "snapshot"
SRC_DIR = REPO / "src"

#: Calls only the one open helper may make.
OPEN_CALLS = {"validate_snapshot", "validate_snapshot_delta",
              "BlobStore.decode"}
OPEN_HELPER = "open_document"


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


def _call_name(node) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id == "BlobStore":
            return f"BlobStore.{func.attr}"
        return func.attr
    return None


def open_calls(path) -> list[str]:
    """Calls of :data:`OPEN_CALLS` in one module outside a function
    named :data:`OPEN_HELPER`."""
    found = []

    def visit(node, inside_helper):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_helper = inside_helper or node.name == OPEN_HELPER
        if (isinstance(node, ast.Call) and not inside_helper
                and _call_name(node) in OPEN_CALLS):
            found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside_helper)

    visit(ast.parse(path.read_text()), False)
    return found


def test_documents_are_opened_in_one_place():
    modules = sorted(SRC_DIR.rglob("*.py"))
    assert modules
    offending = [hit for path in modules for hit in open_calls(path)]
    assert offending == []


#: Calls a commit closure may not make, by final name (so ``blobs.get``
#: counts as ``BlobStore.get``): decoding belongs to its stage.
STAGE_CALLS = {"unb64", "fromhex", "decode_message", "get", "from_dump"}


def commit_closures(path) -> list[ast.FunctionDef]:
    """The commit closures (functions named ``commit``) of one module."""
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "commit"]


def commit_faults(path) -> list[str]:
    """``raise`` statements and :data:`STAGE_CALLS` calls inside the
    commit closures of one module, in line order."""
    found = []
    for closure in commit_closures(path):
        for node in ast.walk(closure):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name not in STAGE_CALLS:
                    continue
            elif not isinstance(node, ast.Raise):
                continue
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_commits_only_assign():
    modules = sorted(SNAPSHOT_DIR.glob("*.py"))
    with_commits = {path.name for path in modules if commit_closures(path)}
    assert with_commits >= {"codec.py", "device.py"}
    offending = [hit for path in modules for hit in commit_faults(path)]
    assert offending == []


def test_commit_detector_sees_every_form(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text(
        "def stage(x, blobs):\n"
        "    data = unb64(x.data)\n"
        "    def commit():\n"
        "        x.a = bytes.fromhex(x.b)\n"
        "        x.c = blobs.get(x.d)\n"
        "        x.e = MetricsRegistry.from_dump(x.f)\n"
        "        x.g = decode_message(x.h)\n"
        "        x.i = codec.unb64(x.j)\n"
        "        if x.k:\n"
        "            raise ValueError(x.k)\n"
        "        x.data = data\n"
        "    return commit\n")
    assert commit_faults(module) == ["bad.py:4", "bad.py:5", "bad.py:6",
                                     "bad.py:7", "bad.py:8", "bad.py:10"]


def test_open_detector_sees_every_form(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text(
        "def open_document(document):\n"
        "    validate_snapshot(document)\n"
        "    return BlobStore.decode(document['blobs'])\n"
        "def sneaky(document):\n"
        "    schema.validate_snapshot_delta(document)\n"
        "    store = BlobStore.decode(document['blobs'])\n"
        "    return validate_snapshot(document), store\n"
        "text = b'x'.decode()\n")
    assert open_calls(module) == ["bad.py:5", "bad.py:6", "bad.py:7"]
