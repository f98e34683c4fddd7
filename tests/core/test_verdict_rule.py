"""One verdict rule: silence is decided in ``Session.attest_once``.

A round that gets no answer must report ``no-response``, never the
verifier node's previous verdict.  The rule holds because it lives in
one place: outside ``repro.core.protocol``, nothing in ``src/`` reads
``VerifierNode.results`` (the only attribute of that name in the
package; the snapshot's verifier-node table names it as a row path, a
log it captures and restores whole), and the only
``no-response`` :class:`VerificationResult` is built by
``Session.attest_once`` -- so no caller can grow a second,
drifting copy of the check."""

import ast

from tests.conftest import REPO

SRC_DIR = REPO / "src"
PACKAGE_DIR = SRC_DIR / "repro"

#: ``(module, function)`` scopes that may read ``.results``; a ``None``
#: function allows the whole module.
RESULTS_READERS = {("core/protocol.py", None)}
#: The one ``(module, class, function)`` that builds ``no-response``.
SILENCE_BUILDER = ("core/protocol.py", "Session", "attest_once")


def _scoped_nodes(tree):
    """Yield ``(node, class_name, function_name)`` for every node, with
    the innermost enclosing class and outermost enclosing function."""
    def visit(node, cls, func):
        yield node, cls, func
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = func or node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls, func)
    yield from visit(tree, None, None)


def results_reads(path, module: str) -> list[str]:
    """Reads of an attribute named ``results`` outside
    :data:`RESULTS_READERS`."""
    found = []
    for node, _, func in _scoped_nodes(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr == "results"
                and isinstance(node.ctx, ast.Load)
                and (module, None) not in RESULTS_READERS
                and (module, func) not in RESULTS_READERS):
            found.append(f"{module}:{node.lineno}")
    return found


def _is_silence_verdict(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = getattr(func, "attr", getattr(func, "id", None))
    values = list(node.args) + [keyword.value for keyword in node.keywords]
    return name == "VerificationResult" and any(
        isinstance(value, ast.Constant) and value.value == "no-response"
        for value in values)


def silence_builders(path, module: str) -> list[str]:
    """``VerificationResult(..., "no-response")`` calls outside
    :data:`SILENCE_BUILDER`."""
    return [f"{module}:{node.lineno}"
            for node, cls, func in _scoped_nodes(ast.parse(path.read_text()))
            if _is_silence_verdict(node)
            and (module, cls, func) != SILENCE_BUILDER]


def _modules():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    return [(path, path.relative_to(PACKAGE_DIR).as_posix())
            for path in modules]


def test_only_protocol_and_capture_read_verifier_results():
    offending = [hit for path, module in _modules()
                 for hit in results_reads(path, module)]
    assert offending == []


def test_silence_is_built_only_in_attest_once():
    modules = _modules()
    builders = [f"{module}:{node.lineno}" for path, module in modules
                for node in ast.walk(ast.parse(path.read_text()))
                if _is_silence_verdict(node)]
    assert len(builders) == 1 and builders[0].startswith("core/protocol.py")
    offending = [hit for path, module in modules
                 for hit in silence_builders(path, module)]
    assert offending == []


def test_results_detector_fires(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text(
        "def sweep(session):\n"
        "    node = session.verifier_node\n"
        "    last = node.results[-1]\n"
        "    return session.verifier_node.results, last\n"
        "def _snapshot_verifier_node(node):\n"
        "    return node.results\n"
        "def restore(node, state):\n"
        "    node.results = list(state)\n")
    assert results_reads(module, "services/bad.py") == [
        "services/bad.py:3", "services/bad.py:4", "services/bad.py:6"]
    assert results_reads(module, "snapshot/session.py") == [
        "snapshot/session.py:3", "snapshot/session.py:4",
        "snapshot/session.py:6"]


def test_silence_detector_fires(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text(
        "class Session:\n"
        "    def attest_once(self):\n"
        "        return VerificationResult(False, None, 'no-response')\n"
        "    def attest_resilient(self):\n"
        "        return VerificationResult(False, None, 'no-response')\n"
        "def patch():\n"
        "    return verifier.VerificationResult(\n"
        "        authentic=False, state_known_good=None,\n"
        "        detail='no-response')\n"
        "other = VerificationResult(False, None, 'bad-response-tag')\n")
    assert silence_builders(module, "core/protocol.py") == [
        "core/protocol.py:5", "core/protocol.py:7"]
    assert silence_builders(module, "services/bad.py") == [
        "services/bad.py:3", "services/bad.py:5", "services/bad.py:7"]
