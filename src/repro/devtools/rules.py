"""The repro-lint rule catalog.

Each rule mechanically enforces one invariant a previous PR established by
hand; ``docs/invariants.md`` maps every rule to the guarantee it protects.
Rules are syntactic (pure AST, no type inference): they are written to be
exhaustive over the idioms this codebase actually uses, and anything
intentionally exempt carries a justified per-line suppression instead of
weakening the rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.engine import (
    META_RULE_IDS,
    Finding,
    LintContext,
    SourceFile,
    _string_collection,
)

#: np.random attributes that construct independent, seedable generators —
#: everything else on the module shares hidden global state.
_GENERATOR_FACTORIES = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: Wall-clock call sites (dotted form).  ``time.perf_counter`` /
#: ``monotonic`` are allowed: durations do not leak into stored rows.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_BENCH_JSON_RE = re.compile(r"^BENCH_\w+\.json$")

#: The one module in ``src/repro/`` allowed to touch the wall clock
#: directly: everything else reads time through its Clock indirection so
#: tests can freeze it (see docs/observability.md).
_CLOCK_MODULE = "src/repro/obs/clock.py"


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_with_scope(tree: ast.AST) -> Iterator[tuple[ast.AST, tuple[str, ...]]]:
    """Yield every node with the names of its enclosing functions."""
    stack: list[tuple[ast.AST, tuple[str, ...]]] = [(tree, ())]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        child_scope = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_scope))


def _mentions_json(node: ast.AST) -> bool:
    """Whether any string constant in the subtree names a ``.json`` path."""
    return any(
        isinstance(sub, ast.Constant)
        and isinstance(sub.value, str)
        and ".json" in sub.value
        for sub in ast.walk(node)
    )


def _in_src(file: SourceFile) -> bool:
    return file.relpath.startswith("src/repro/")


def _in_core(file: SourceFile) -> bool:
    return file.relpath.startswith("src/repro/core/")


#: The simulation substrate: packages whose iteration order reaches the
#: synthetic Web, the client population or the censors' verdicts, and
#: through them stored rows.
_SUBSTRATE_PREFIXES = tuple(
    f"src/repro/{package}/"
    for package in ("web", "population", "censor", "datasets", "netsim", "browser")
)


def _in_substrate(file: SourceFile) -> bool:
    return file.relpath.startswith(_SUBSTRATE_PREFIXES)


def _in_benchmarks(file: SourceFile) -> bool:
    return file.relpath.startswith("benchmarks/")


def _in_examples(file: SourceFile) -> bool:
    """Examples print committed stdout goldens, so they must be deterministic too."""
    return file.relpath.startswith("examples/")


class Rule:
    """Base class: subclasses set ``id``/``summary`` and override hooks."""

    id: str = ""
    summary: str = ""

    def applies(self, file: SourceFile) -> bool:
        return True

    def check(self, file: SourceFile, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, file: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(self.id, file.relpath, getattr(node, "lineno", 1), message)


# ----------------------------------------------------------------------
class RngDisciplineRule(Rule):
    """All randomness must derive from configured seeds (PR 1/3 contract)."""

    id = "rng-discipline"
    summary = (
        "no unseeded/global RNG or wall-clock reads inside src/repro/ or "
        "examples/; block-planning modules must derive seeds as "
        "[seed, tag, epoch, block]"
    )

    #: Modules whose every ``default_rng`` call must take the derived-seed
    #: list: their randomness must be a pure function of the campaign key,
    #: or sharded campaigns stop being row-identical to batch ones.
    BLOCK_KEYED = ("src/repro/core/runner.py", "src/repro/core/shard.py")

    def applies(self, file: SourceFile) -> bool:
        return _in_src(file) or _in_examples(file)

    def check(self, file: SourceFile, ctx: LintContext) -> Iterator[Finding]:
        block_keyed = file.relpath in self.BLOCK_KEYED
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            file,
                            node,
                            "stdlib `random` shares unseedable global state; "
                            "use np.random.default_rng with a derived seed",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        file,
                        node,
                        "stdlib `random` shares unseedable global state; "
                        "use np.random.default_rng with a derived seed",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(file, node, block_keyed)

    def _check_call(
        self, file: SourceFile, node: ast.Call, block_keyed: bool
    ) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted in ("np.random.default_rng", "numpy.random.default_rng"):
            if not node.args and not node.keywords:
                yield self.finding(
                    file,
                    node,
                    "unseeded default_rng() draws from OS entropy; results "
                    "become unreproducible — pass a seed derived from the "
                    "campaign configuration",
                )
            elif block_keyed and not isinstance(node.args[0], ast.List):
                yield self.finding(
                    file,
                    node,
                    "default_rng in block-planning modules must take the "
                    "derived-seed list idiom [seed, tag, epoch, block_index] "
                    "so any process can regenerate any block independently",
                )
        elif dotted.startswith(("np.random.", "numpy.random.")):
            attribute = dotted.rsplit(".", 1)[1]
            if attribute not in _GENERATOR_FACTORIES:
                yield self.finding(
                    file,
                    node,
                    f"module-level np.random.{attribute} mutates the shared "
                    "global generator; draw from an explicitly seeded "
                    "np.random.default_rng instead",
                )
        elif dotted in _WALL_CLOCK:
            if file.relpath == _CLOCK_MODULE:
                return  # the sanctioned Clock implementation itself
            yield self.finding(
                file,
                node,
                f"wall-clock call {dotted}() makes results depend on when "
                "they ran; simulated time must come from campaign "
                "configuration (time.perf_counter is fine for durations)",
            )


# ----------------------------------------------------------------------
class TelemetryHygieneRule(Rule):
    """Telemetry must stay strictly write-only (PR 8 contract).

    Two halves.  First, ``src/repro/`` may reach the stdlib ``time``
    module only through ``repro.obs.clock`` — a direct import reopens the
    wall-clock back door the Clock indirection exists to close (and makes
    the module untestable under ``FrozenClock``).  Second, no value may
    flow *out* of a tracer or metrics registry into non-obs code: the
    moment simulation logic reads telemetry back, traces-on and
    traces-off runs can diverge.  Syntactically, that means method calls
    on telemetry-named receivers must come from the write-only surface.
    """

    id = "telemetry-hygiene"
    summary = (
        "src/repro/ imports time only via repro.obs.clock, and never reads "
        "values back out of tracers or metric registries"
    )

    #: The telemetry write surface: emitting, wiring, and lifecycle.
    #: Anything else on a telemetry object is a read-back.
    WRITE_OK = {
        "span",
        "event",
        "add",
        "inc",
        "set_max",
        "record_metrics",
        "counter",
        "gauge",
        "close",
        "flush",
        "absorb_file",
        "absorb",
        "add_listener",
        "remove_listener",
        "record",
        "emit",
    }

    #: A receiver whose name mentions one of these is treated as a
    #: telemetry object.  Matched against the final identifier segment so
    #: ``self.tracer``, ``metrics_registry``, and ``get_registry()`` all
    #: qualify.
    _TELEMETRY_NAME = re.compile(r"tracer|metric|registry|telemetry", re.IGNORECASE)

    def applies(self, file: SourceFile) -> bool:
        return _in_src(file)

    def check(self, file: SourceFile, ctx: LintContext) -> Iterator[Finding]:
        # obs/ is the telemetry implementation and devtools/ is tooling
        # that inspects it — neither can leak state into simulation rows.
        exempt_readback = file.relpath.startswith(
            ("src/repro/obs/", "src/repro/devtools/")
        )
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                if file.relpath == _CLOCK_MODULE:
                    continue
                for alias in node.names:
                    if alias.name == "time" or alias.name.startswith("time."):
                        yield self.finding(
                            file,
                            node,
                            "importing `time` outside repro.obs.clock bypasses "
                            "the Clock indirection, so FrozenClock tests can "
                            "no longer pin this module's timestamps; use "
                            "repro.obs.clock.monotonic / .wall",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and file.relpath != _CLOCK_MODULE:
                    yield self.finding(
                        file,
                        node,
                        "importing from `time` outside repro.obs.clock "
                        "bypasses the Clock indirection; use "
                        "repro.obs.clock.monotonic / .wall",
                    )
            elif isinstance(node, ast.Call) and not exempt_readback:
                finding = self._check_readback(file, node)
                if finding is not None:
                    yield finding

    def _check_readback(self, file: SourceFile, node: ast.Call) -> Finding | None:
        if not isinstance(node.func, ast.Attribute):
            return None
        method = node.func.attr
        if method in self.WRITE_OK:
            return None
        receiver = self._receiver_name(node.func.value)
        if receiver is None or not self._TELEMETRY_NAME.search(receiver):
            return None
        return self.finding(
            file,
            node,
            f"{receiver}.{method}() reads telemetry state back into "
            "simulation code — the observer-effect ban (telemetry is "
            "write-only outside repro.obs) keeps traced and untraced runs "
            "bit-identical",
        )

    @staticmethod
    def _receiver_name(node: ast.AST) -> str | None:
        """Final identifier segment of the receiver expression."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                return dotted.rsplit(".", 1)[-1]
        return None


# ----------------------------------------------------------------------
class AtomicJsonWriteRule(Rule):
    """Every ``.json`` write must go through ``shard.write_json_atomic``."""

    id = "atomic-json-write"
    summary = (
        "no direct json.dump / open(.., 'w') / write_text of .json paths in "
        "src/repro/ outside shard.write_json_atomic"
    )

    #: The one function allowed to touch JSON files directly.
    WRITER = "write_json_atomic"

    def applies(self, file: SourceFile) -> bool:
        return _in_src(file)

    def check(self, file: SourceFile, ctx: LintContext) -> Iterator[Finding]:
        for node, scope in _walk_with_scope(file.tree):
            if self.WRITER in scope or not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted == "json.dump":
                yield self.finding(
                    file,
                    node,
                    "json.dump writes in place — a crash mid-write leaves a "
                    "truncated checkpoint that readers will trust; route the "
                    "payload through shard.write_json_atomic",
                )
            elif dotted in ("open", "io.open", "os.fdopen") and self._write_mode(node):
                if any(_mentions_json(arg) for arg in node.args + node.keywords):
                    yield self.finding(
                        file,
                        node,
                        "opening a .json path for writing bypasses the "
                        "scratch-file + rename protocol; use "
                        "shard.write_json_atomic",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("write_text", "write_bytes")
                and _mentions_json(node.func.value)
            ):
                yield self.finding(
                    file,
                    node,
                    f"{node.func.attr} onto a .json path is not atomic; use "
                    "shard.write_json_atomic so the file's presence stays a "
                    "trustworthy commit marker",
                )

    @staticmethod
    def _write_mode(node: ast.Call) -> bool:
        candidates = list(node.args[1:2])
        candidates.extend(kw.value for kw in node.keywords if kw.arg == "mode")
        return any(
            isinstance(c, ast.Constant)
            and isinstance(c.value, str)
            and any(flag in c.value for flag in ("w", "a", "x", "+"))
            for c in candidates
        )


# ----------------------------------------------------------------------
class OrderedIterationRule(Rule):
    """Iteration order must be deterministic where it can reach stored rows
    or an example's printed output."""

    id = "ordered-iteration"
    summary = (
        "no iteration over sets or unsorted directory listings in "
        "src/repro/core/, the simulation substrate (src/repro/{web,population,"
        "censor,datasets,netsim,browser}/) or examples/"
    )

    _WRAPPERS = {"enumerate", "list", "tuple", "reversed", "iter"}
    _FS_LISTING = {"glob", "rglob", "iterdir"}

    def applies(self, file: SourceFile) -> bool:
        return _in_core(file) or _in_substrate(file) or _in_examples(file)

    def check(self, file: SourceFile, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            sources: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sources.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                sources.extend(gen.iter for gen in node.generators)
            for source in sources:
                message = self._diagnose(source)
                if message is not None:
                    yield self.finding(file, source, message)

    def _diagnose(self, source: ast.AST) -> str | None:
        node = source
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._WRAPPERS
            and node.args
        ):
            node = node.args[0]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "sorted":
                return None
            if node.func.id in ("set", "frozenset"):
                return (
                    "iterating a set hands downstream rows a hash-order "
                    "dependent sequence; wrap the iteration in sorted(...)"
                )
        if isinstance(node, (ast.Set, ast.SetComp)):
            return (
                "iterating a set literal has arbitrary order that can leak "
                "into stored rows or manifests; wrap it in sorted(...)"
            )
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted == "os.listdir" or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._FS_LISTING
            ):
                return (
                    "directory listing order is filesystem-dependent; wrap "
                    "the listing in sorted(...) before iterating"
                )
        return None


# ----------------------------------------------------------------------
class ReferencePairingRule(Rule):
    """Every ``*_reference`` scalar path must be pinned by some test."""

    id = "reference-pairing"
    summary = (
        "every *_reference function in src/repro/core/ must be invoked by "
        "at least one test under tests/"
    )

    def applies(self, file: SourceFile) -> bool:
        return _in_core(file)

    def check(self, file: SourceFile, ctx: LintContext) -> Iterator[Finding]:
        used = ctx.test_referenced_names()
        for node in ast.walk(file.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.endswith("_reference")
                and node.name not in used
            ):
                yield self.finding(
                    file,
                    node,
                    f"{node.name} is a scalar reference no test invokes — "
                    "the vectorized twin is unpinned; add an equivalence "
                    "test under tests/ (or delete the dead reference)",
                )


# ----------------------------------------------------------------------
class SegmentStreamingRule(Rule):
    """Segment iteration belongs to the store and the query kernel alone.

    The query kernel is the one engine that may walk a store's segments:
    it owns the fold-once watermark, the mask offsets, and the spill
    streaming.  A reduction that re-rolls
    its own segment loop elsewhere silently forks those invariants — it
    rescans history every call and bypasses the incremental fold state —
    so reaching for the segment surface outside ``store.py``/``query.py``
    is a finding, not a style choice.
    """

    id = "segment-streaming"
    summary = (
        "no hand-rolled segment loops outside src/repro/core/store.py and "
        "query.py; express reductions as store.query()/repro.core.query"
    )

    ALLOWED = ("src/repro/core/store.py", "src/repro/core/query.py")
    _ATTRS = ("_segments", "_segment_chunks", "_segment_parts", "load_columns")

    def applies(self, file: SourceFile) -> bool:
        return _in_src(file) and file.relpath not in self.ALLOWED

    def check(self, file: SourceFile, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Attribute) and node.attr in self._ATTRS:
                yield self.finding(
                    file,
                    node,
                    f"`.{node.attr}` re-rolls a segment loop the query "
                    "kernel already streams (and skips its fold-once "
                    "watermark); express the reduction through "
                    "store.query(...) or a repro.core.query aggregate",
                )


# ----------------------------------------------------------------------
class WorkerPickleSafetyRule(Rule):
    """Work shipped to process pools must survive pickling."""

    id = "worker-pickle-safety"
    summary = (
        "no lambdas, nested functions, or bound methods handed to process "
        "pools or multiprocessing.Process"
    )

    _SUBMITTERS = {"submit", "apply_async"}
    _MAPPERS = {"map", "imap", "imap_unordered", "starmap"}

    def check(self, file: SourceFile, ctx: LintContext) -> Iterator[Finding]:
        nested = {
            node.name
            for node, scope in _walk_with_scope(file.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and scope
        }
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            candidate = self._work_argument(node)
            if candidate is None:
                continue
            message = self._diagnose(candidate, nested)
            if message is not None:
                yield self.finding(file, candidate, message)

    def _work_argument(self, node: ast.Call) -> ast.AST | None:
        if isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            pool_like = isinstance(receiver, ast.Name) and (
                "pool" in receiver.id.lower() or "executor" in receiver.id.lower()
            )
            if pool_like and node.func.attr in self._SUBMITTERS | self._MAPPERS:
                if node.args:
                    return node.args[0]
        dotted = _dotted(node.func)
        if dotted is not None and dotted.split(".")[-1] == "Process":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    return keyword.value
        return None

    @staticmethod
    def _diagnose(candidate: ast.AST, nested: set[str]) -> str | None:
        if isinstance(candidate, ast.Lambda):
            return (
                "lambdas cannot be pickled to worker processes; hoist the "
                "work into a module-level function"
            )
        if isinstance(candidate, ast.Name) and candidate.id in nested:
            return (
                f"nested function {candidate.id!r} cannot be pickled to "
                "worker processes; hoist it to module level"
            )
        if (
            isinstance(candidate, ast.Attribute)
            and isinstance(candidate.value, ast.Name)
            and candidate.value.id in ("self", "cls")
        ):
            return (
                "bound methods drag the whole instance through pickle (or "
                "fail outright); ship a module-level function plus a "
                "payload dict instead"
            )
        return None


# ----------------------------------------------------------------------
class BenchHygieneRule(Rule):
    """BENCH-writing benchmarks must be slow-marked and regression-gated."""

    id = "bench-hygiene"
    summary = (
        "every benchmarks/test_bench_*.py writing a BENCH_*.json must carry "
        "the slow marker and register its key in check_regression.py"
    )

    def applies(self, file: SourceFile) -> bool:
        return _in_benchmarks(file) and file.name.startswith("test_bench_")

    def check(self, file: SourceFile, ctx: LintContext) -> Iterator[Finding]:
        literals = [
            (node.value, node.lineno)
            for node in ast.walk(file.tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _BENCH_JSON_RE.match(node.value)
        ]
        if not literals:
            return
        registered = ctx.registered_bench_keys()
        for name, line in literals:
            if name not in registered:
                yield Finding(
                    self.id,
                    file.relpath,
                    line,
                    f"{name} is not a RATIO_FIELDS key in "
                    "benchmarks/check_regression.py, so the scheduled "
                    "regression gate will never trend-gate it",
                )
        if not self._slow_marked(file, ctx):
            yield Finding(
                self.id,
                file.relpath,
                literals[0][1],
                "module writes BENCH results but carries no slow marker: it "
                "is exempt from conftest auto-marking (SMOKE_MODULES) and "
                "has no explicit pytest.mark.slow, so the timing assertions "
                "run in the fast CI lane",
            )

    @staticmethod
    def _slow_marked(file: SourceFile, ctx: LintContext) -> bool:
        smoke = ctx.smoke_modules()
        if smoke is not None and file.name not in smoke:
            return True  # conftest auto-marks every non-smoke bench module
        return any(
            _dotted(node) == "pytest.mark.slow" for node in ast.walk(file.tree)
        )


# ----------------------------------------------------------------------
class UnusedImportRule(Rule):
    """An import the module never reads is dead weight, or a missed caller.

    A name counts as read when it appears as a loaded name anywhere in the
    module, inside a string annotation, or in ``__all__``.  The check is
    module-wide, not scope-exact: a name read anywhere keeps its import, so
    an unused function-local import can slip through when another scope
    reads the same name.  ``__init__.py`` files (re-export surfaces) and
    ``from __future__`` imports are exempt; an import kept only for its
    side effects carries a justified suppression.
    """

    id = "unused-import"
    summary = (
        "no import in src/repro/ or benchmarks/ (outside __init__.py) that "
        "the module never reads"
    )

    def applies(self, file: SourceFile) -> bool:
        return (_in_src(file) or _in_benchmarks(file)) and file.name != "__init__.py"

    def check(self, file: SourceFile, ctx: LintContext) -> Iterator[Finding]:
        used = self._read_names(file.tree)
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                bound = [
                    alias.asname or alias.name.split(".")[0] for alias in node.names
                ]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name != "*"
                ]
            else:
                continue
            unused = [name for name in bound if name not in used]
            if unused:
                yield self.finding(
                    file,
                    node,
                    f"{', '.join(unused)} imported but never read; delete the "
                    "import (or suppress it with the side effect it is kept for)",
                )

    @staticmethod
    def _read_names(tree: ast.Module) -> set[str]:
        names = set(_string_collection(tree, "__all__") or ())
        annotations: list[ast.AST | None] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign)):
                annotations.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotations.append(node.returns)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        parsed = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    names.update(
                        n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                    )
        return names


RULES: tuple[Rule, ...] = (
    RngDisciplineRule(),
    TelemetryHygieneRule(),
    AtomicJsonWriteRule(),
    OrderedIterationRule(),
    ReferencePairingRule(),
    SegmentStreamingRule(),
    WorkerPickleSafetyRule(),
    BenchHygieneRule(),
    UnusedImportRule(),
)


def all_rule_ids(rules: Iterable[Rule] = RULES) -> set[str]:
    """Registry rule ids plus the engine's meta rules (for suppressions)."""
    return {rule.id for rule in rules} | set(META_RULE_IDS)
