"""AST-based determinism and consistency linter for the repro tree.

The simulator's claims are only reproducible if simulated time stays
simulated: cycle accounting must be exact integer arithmetic, simulated
code paths must never consult the host clock or host RNG, and telemetry
names must match the exported schema or dashboards silently read zeros.
These are invariants of the *codebase*, so they are enforced the same
way the EA-MPU configuration is -- statically.

Rules
-----

``DET001``
    No host-clock calls (``time.time``/``time.monotonic``/
    ``datetime.now``/... and their async twins ``asyncio.sleep``/
    ``loop.time()``) inside simulated-path modules.  The host-clock
    boundary is not a directory: each module allowed to touch host time
    or host process pools carries its own justified entry in
    :data:`HOST_BOUNDARY_MODULES`; a new ``repro.perf`` module is
    flagged until it is added there.  The service tier's injected
    ``clock`` callable is the one sanctioned async boundary.
``DET002``
    No stdlib ``random`` in the same scope: simulated randomness must
    come from a seeded generator passed in explicitly.
``FLT001``
    No float arithmetic inside cycle- or tick-accounting functions
    (name ends in ``_cycles`` or ``_ticks``, or is ``consume_cycles``):
    float literals, true division, and ``float()`` all risk drift;
    ``//`` and integer ceil division are exact.  Functions converting
    to/from wall units (``ms``/``seconds`` in the name) are the
    sanctioned boundary.
``TEL001``
    Literal metric names passed to ``.count``/``.set_gauge``/
    ``.observe`` on a telemetry-ish receiver must exist in
    :data:`repro.obs.schema.METRIC_NAMES`; literal kinds passed to
    ``.event`` must exist in :data:`repro.obs.trace.EVENT_KINDS`.

Violations can be waived by a checked-in JSON waiver list (one entry =
one rule+path pair with a justification) rather than special-cased in
rule logic.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path

from ..obs.schema import LINT_RULE_IDS, METRIC_NAMES
from ..obs.trace import EVENT_KINDS

__all__ = ["LintViolation", "Waiver", "LintReport", "load_waivers",
           "lint_source", "lint_file", "lint_tree", "iter_python_files",
           "DEFAULT_LINT_DIRS", "HOST_BOUNDARY_MODULES"]

#: Directories scanned by default, relative to the repo root.
DEFAULT_LINT_DIRS = ("src", "benchmarks", "examples", "tests")

_HOST_CLOCK_CALLS = {
    ("time", "time"), ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "time_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
    # Async host time: the service tier runs on asyncio, where
    # ``asyncio.sleep`` and ``loop.time()`` smuggle the host clock in
    # just as surely as ``time.monotonic`` -- attestd's injected
    # ``clock`` callable is the only sanctioned async time boundary.
    ("asyncio", "sleep"), ("loop", "time"),
}

_TELEMETRY_METRIC_METHODS = {"count", "set_gauge", "observe"}

@dataclass(frozen=True)
class LintViolation:
    rule: str
    path: str            # repo-relative, POSIX separators
    line: int
    col: int
    message: str
    waiver_reason: str | None = None

    def as_dict(self) -> dict:
        entry = {"rule": self.rule, "path": self.path, "line": self.line,
                 "col": self.col, "message": self.message}
        if self.waiver_reason is not None:
            entry["waiver_reason"] = self.waiver_reason
        return entry

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Waiver:
    rule: str
    path: str
    reason: str

    def matches(self, violation: LintViolation) -> bool:
        return (violation.rule == self.rule
                and violation.path == self.path)


@dataclass(frozen=True)
class LintReport:
    files_scanned: int
    violations: tuple[LintViolation, ...]   # unwaived, sorted
    waived: tuple[LintViolation, ...]       # waived, sorted
    #: Waivers that matched no violation at all: the code they excused
    #: is gone, so the entry is rot and fails the run (see
    #: ``repro lint --allow-stale``).
    stale_waivers: tuple[Waiver, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {"files_scanned": self.files_scanned, "clean": self.clean,
                "violations": [v.as_dict() for v in self.violations],
                "waived": [v.as_dict() for v in self.waived],
                "stale_waivers": [{"rule": w.rule, "path": w.path,
                                   "reason": w.reason}
                                  for w in self.stale_waivers]}


def load_waivers(path: Path) -> list[Waiver]:
    """Load the checked-in waiver list (missing file = no waivers)."""
    if not path.exists():
        return []
    entries = json.loads(path.read_text())
    waivers = []
    for entry in entries:
        rule = entry["rule"]
        if rule not in LINT_RULE_IDS:
            raise ValueError(f"waiver references unknown rule {rule!r}")
        if not entry.get("reason"):
            raise ValueError(f"waiver for {rule} on {entry['path']} "
                             f"has no justification")
        waivers.append(Waiver(rule=rule, path=entry["path"],
                              reason=entry["reason"]))
    return waivers


# ---------------------------------------------------------------------------
# Rule implementations (each yields (rule, line, col, message) tuples)
# ---------------------------------------------------------------------------

def _dotted(node: ast.AST) -> tuple[str, ...] | None:
    """Flatten ``a.b.c`` into ("a", "b", "c"); None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


#: Modules that own a host-time / host-parallelism boundary, each with
#: the justification for its exemption from DET001/DET002.  This is an
#: explicit allowlist, not a directory waiver: adding a module under
#: ``src/repro/perf/`` does NOT exempt it -- it must be listed here with
#: a reason, so every host-clock site in the simulator tree is accounted
#: for.  ``repro.perf.__init__`` and ``repro.perf.harness`` (the shared
#: bench plumbing) read no host clock and are deliberately not listed.
HOST_BOUNDARY_MODULES = {
    "src/repro/perf/wallclock.py":
        "measures host wall-clock of the measurement engines; simulated "
        "time never flows out of it (equivalence_check proves digests "
        "and cycle counts are unchanged)",
    "src/repro/perf/fleet.py":
        "host-parallel fleet layer: times spin-up/sweeps with "
        "time.perf_counter and dispatches every shard operation to "
        "ProcessPoolExecutor workers through FleetEngine.each; all "
        "simulated state lives in the sharded Swarms, and "
        "equivalence_check proves shard merges are byte-identical to "
        "the sequential seed path",
    "src/repro/perf/service.py":
        "service-tier load benchmark: times request serving with "
        "time.perf_counter and stamps per-request host latency via a "
        "clock injected into AttestationService.serve; admission "
        "decisions and session outcomes stay schedule-deterministic "
        "(equivalence_check proves the serviced run is byte-identical "
        "to the sequential library path)",
    "src/repro/perf/incremental.py":
        "incremental-attestation benchmark harness: times full-walk vs "
        "dirty-region sweeps with time.perf_counter; simulated "
        "accounting is compared byte-for-byte between the two paths "
        "(equivalence_check), never derived from host time",
    "src/repro/perf/snapshot.py":
        "delta-checkpoint benchmark harness: times full vs delta "
        "snapshot capture with time.perf_counter; the captured "
        "documents themselves are host-time-free, and measure_point "
        "refuses to report unless the delta chain materializes "
        "byte-identical to the full snapshot (equivalence_check "
        "additionally proves restore-and-continue matches the live "
        "run)",
}


def _is_simulated_path(path: str) -> bool:
    """Modules where host time/randomness is forbidden outright."""
    return (path.startswith("src/repro/")
            and path not in HOST_BOUNDARY_MODULES)


def _check_host_clock(tree: ast.AST, path: str):
    if not _is_simulated_path(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None or len(dotted) < 2:
            continue
        if (dotted[-2], dotted[-1]) in _HOST_CLOCK_CALLS:
            yield ("DET001", node.lineno, node.col_offset,
                   f"host clock call {'.'.join(dotted)}() in simulated "
                   f"path (host time belongs in repro.perf)")


def _check_host_random(tree: ast.AST, path: str):
    if not _is_simulated_path(path):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    yield ("DET002", node.lineno, node.col_offset,
                           "stdlib random imported in simulated path "
                           "(pass a seeded Random in explicitly)")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield ("DET002", node.lineno, node.col_offset,
                       "stdlib random imported in simulated path "
                       "(pass a seeded Random in explicitly)")


def _is_cycle_function(name: str) -> bool:
    if "ms" in name or "seconds" in name:
        return False   # sanctioned wall-unit conversion boundary
    # ``*_leaves`` covers the digest-tree accounting functions
    # (``covering_leaves`` and friends): leaf index arithmetic must be
    # exact for the incremental/full equivalence to hold, so it gets the
    # same no-float discipline as cycle accounting.
    return (name.endswith("_cycles") or name.endswith("_ticks")
            or name.endswith("_leaves") or name == "consume_cycles")


def _check_float_cycles(tree: ast.AST, path: str):
    if not path.startswith("src/repro/"):
        return
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_cycle_function(func.name):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, float)):
                yield ("FLT001", node.lineno, node.col_offset,
                       f"float literal {node.value!r} in cycle-accounting "
                       f"function {func.name}()")
            elif (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Div)):
                yield ("FLT001", node.lineno, node.col_offset,
                       f"true division in cycle-accounting function "
                       f"{func.name}() (use // or ceil-div)")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                yield ("FLT001", node.lineno, node.col_offset,
                       f"float() conversion in cycle-accounting "
                       f"function {func.name}()")


def _telemetry_receiver(node: ast.AST) -> bool:
    """Heuristic: the receiver looks like a Telemetry object."""
    dotted = _dotted(node)
    if dotted is None:
        return False
    return any("telemetry" in part.lower() for part in dotted)


def _check_telemetry_names(tree: ast.AST, path: str):
    if not path.startswith("src/repro/"):
        return
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        method = node.func.attr
        if method not in _TELEMETRY_METRIC_METHODS and method != "event":
            continue
        if not _telemetry_receiver(node.func.value):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            continue   # dynamic names are out of static reach
        name = first.value
        if method == "event":
            if name not in EVENT_KINDS:
                yield ("TEL001", first.lineno, first.col_offset,
                       f"event kind {name!r} not in "
                       f"repro.obs.trace.EVENT_KINDS")
        elif name not in METRIC_NAMES:
            yield ("TEL001", first.lineno, first.col_offset,
                   f"metric name {name!r} not in "
                   f"repro.obs.schema.METRIC_NAMES")


_ALL_CHECKS = (_check_host_clock, _check_host_random, _check_float_cycles,
               _check_telemetry_names)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def lint_source(source: str, path: str) -> list[LintViolation]:
    """Lint one module's source text.  ``path`` is repo-relative."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintViolation(rule="DET001", path=path,
                              line=exc.lineno or 0, col=exc.offset or 0,
                              message=f"unparseable module: {exc.msg}")]
    found = []
    for check in _ALL_CHECKS:
        for rule, line, col, message in check(tree, path):
            found.append(LintViolation(rule=rule, path=path, line=line,
                                       col=col, message=message))
    return found


def lint_file(file_path: Path, repo_root: Path) -> list[LintViolation]:
    rel = file_path.relative_to(repo_root).as_posix()
    return lint_source(file_path.read_text(), rel)


def iter_python_files(repo_root: Path,
                      dirs: tuple[str, ...] = DEFAULT_LINT_DIRS
                      ) -> list[Path]:
    """Deterministically ordered ``.py`` files under the given dirs."""
    files: list[Path] = []
    for name in dirs:
        base = repo_root / name
        if not base.exists():
            continue
        files.extend(p for p in base.rglob("*.py")
                     if "__pycache__" not in p.parts
                     and not any(part.endswith(".egg-info")
                                 for part in p.parts))
    return sorted(set(files))


def lint_tree(repo_root: Path, *,
              dirs: tuple[str, ...] = DEFAULT_LINT_DIRS,
              waivers: list[Waiver] | None = None) -> LintReport:
    """Lint every Python file under ``dirs`` and apply waivers."""
    waivers = waivers or []
    files = iter_python_files(repo_root, dirs)
    kept: list[LintViolation] = []
    waived: list[LintViolation] = []
    used: set[Waiver] = set()
    for file_path in files:
        for violation in lint_file(file_path, repo_root):
            matched = next((w for w in waivers if w.matches(violation)),
                           None)
            if matched is not None:
                used.add(matched)
                waived.append(LintViolation(
                    rule=violation.rule, path=violation.path,
                    line=violation.line, col=violation.col,
                    message=violation.message,
                    waiver_reason=matched.reason))
            else:
                kept.append(violation)
    kept.sort(key=LintViolation.sort_key)
    waived.sort(key=LintViolation.sort_key)
    stale = tuple(sorted((w for w in waivers if w not in used),
                         key=lambda w: (w.path, w.rule)))
    return LintReport(files_scanned=len(files),
                      violations=tuple(kept), waived=tuple(waived),
                      stale_waivers=stale)
