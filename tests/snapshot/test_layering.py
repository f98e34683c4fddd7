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


# ---------------------------------------------------------------------------
# Host memos never cross a checkpoint; one document kind per fleet
# ---------------------------------------------------------------------------

#: Names of the state-digest cache and its internals.  ``repro.snapshot``
#: may use none of them: a checkpoint holds simulated state only.
CACHE_NAMES = {"state_cache", "_state_cache", "StateDigestCache",
               "statecache", "hits", "misses", "evictions", "max_entries",
               "epoch", "reset_stats"}


def _parents(tree) -> dict:
    return {child: node for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)}


def _is_commit_clear(node, parents) -> bool:
    """``<device>._state_cache`` read by the one permitted use: inside
    the commit closure of ``_stage_regions`` (the device's region hook),
    as the receiver of a ``.clear()`` call or tested against ``None``."""
    up = parents.get(node)
    used = ((isinstance(up, ast.Attribute) and up.attr == "clear"
             and isinstance(parents.get(up), ast.Call))
            or (isinstance(up, ast.Compare)
                and isinstance(up.comparators[0], ast.Constant)
                and up.comparators[0].value is None))
    functions = []
    while up is not None:
        if isinstance(up, ast.FunctionDef):
            functions.append(up.name)
        up = parents.get(up)
    return used and functions[:2] == ["commit", "_stage_regions"]


def cache_touches(path) -> list[str]:
    """Every use of :data:`CACHE_NAMES` in one module -- attribute,
    name, import or string key -- except the commit's ``clear()``."""
    tree = ast.parse(path.read_text())
    parents = _parents(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.ImportFrom):
            name = (node.module or "").rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.split(".", 1)[0]
        else:
            continue
        if name in CACHE_NAMES and not _is_commit_clear(node, parents):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_snapshot_never_carries_a_host_cache():
    modules = sorted(SNAPSHOT_DIR.glob("*.py"))
    assert [hit for path in modules for hit in cache_touches(path)] == []
    clears = (SNAPSHOT_DIR / "device.py").read_text().count(
        "._state_cache.clear()")
    assert clears == 1


def test_cache_detector_sees_every_form(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text(
        "from ..mcu.statecache import StateDigestCache\n"
        "def snapshot_swarm(swarm):\n"
        "    return {'state_cache': swarm.state_cache.hits}\n"
        "def _stage_regions(device, commits):\n"
        "    device._state_cache.lookup(key)\n"
        "    def commit():\n"
        "        if device._state_cache is not None:\n"
        "            device._state_cache.clear()\n"
        "    commits.append(commit)\n"
        "LOG = {'state_cache.entries': ('swarm', 'evictions')}\n"
        "def stage_swarm(swarm):\n"
        "    swarm.members[0].session.device._state_cache.clear()\n")
    assert cache_touches(module) == [
        "bad.py:1", "bad.py:1", "bad.py:3", "bad.py:3", "bad.py:3",
        "bad.py:5", "bad.py:10", "bad.py:10", "bad.py:12"]


def fleet_literals(path) -> list[str]:
    """``"fleet"`` string literals in one module, other than a module
    name in ``__all__`` or the label of a report validator
    (``_check(report, schema, "fleet")``): the per-shard document kind
    is gone, and a literal is how it would come back."""
    tree = ast.parse(path.read_text())
    parents = _parents(tree)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and node.value == "fleet"):
            continue
        up = parents[node]
        if isinstance(up, (ast.List, ast.Tuple)):
            owner = parents[up]
            if (isinstance(owner, ast.Assign)
                    and [getattr(t, "id", None) for t in owner.targets]
                    == ["__all__"]):
                continue
        if (isinstance(up, ast.Call) and getattr(up.func, "id", None)
                == "_check" and up.args[-1] is node):
            continue
        found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_no_fleet_document_kind():
    modules = sorted(SRC_DIR.rglob("*.py"))
    assert [hit for path in modules for hit in fleet_literals(path)] == []


def test_fleet_detector_sees_every_form(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text(
        "__all__ = ['fleet', 'swarm']\n"
        "def f(state, kind):\n"
        "    make_document('fleet', state, blobs)\n"
        "    if kind == 'fleet':\n"
        "        return {'fleet': ('workers', 'shards')}\n"
        "    return _check(report, SCHEMA, 'fleet')\n"
        "ENUM = {'enum': ['session', 'swarm', 'fleet']}\n")
    assert fleet_literals(module) == ["bad.py:3", "bad.py:4", "bad.py:5",
                                      "bad.py:7"]


# ---------------------------------------------------------------------------
# One field table per class: the mirror capture/stage pairs stay gone
# ---------------------------------------------------------------------------

#: Prefixes of the hand-written per-class capture/stage functions the
#: field tables replace.
MIRROR_PREFIXES = ("_snapshot_", "_stage_")


def table_hooks() -> set[str]:
    """Names of the functions the field tables call as hooks."""
    import importlib

    from repro.snapshot.codec import Table
    names = set()
    for path in SNAPSHOT_DIR.glob("*.py"):
        module = importlib.import_module(f"repro.snapshot.{path.stem}")
        for table in vars(module).values():
            if not isinstance(table, Table):
                continue
            for row in table.rows:
                for hook in (row.codec.capture, row.codec.stage):
                    if getattr(hook, "__self__", None) is None:
                        names.add(getattr(hook, "__name__", ""))
    return names


def mirror_functions(path, hooks) -> list[str]:
    """Functions of one module named like a per-class capture or stage
    function, other than a hook a table names."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith(MIRROR_PREFIXES)
            and node.name not in hooks]


def test_no_mirror_capture_stage_pairs():
    hooks = table_hooks()
    assert {"_stage_regions", "_stage_mpu", "_stage_contexts",
            "_stage_adversary"} <= hooks
    modules = sorted(SNAPSHOT_DIR.glob("*.py"))
    assert [hit for path in modules
            for hit in mirror_functions(path, hooks)] == []


def test_mirror_detector_sees_every_form(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text(
        "def _snapshot_channel(channel, parent=None):\n"
        "    return {'delivered': channel.delivered}\n"
        "def _stage_channel(channel, state, commits):\n"
        "    pass\n"
        "def _stage_regions(device, records, blobs, commits):\n"
        "    async def _stage_clock(clock):\n"
        "        pass\n"
        "def snapshot_session(session, blobs):\n"
        "    pass\n")
    assert mirror_functions(module, {"_stage_regions"}) == [
        "bad.py:1", "bad.py:3", "bad.py:6"]
