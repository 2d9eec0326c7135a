"""``repro lint`` — AST-based enforcement of the repo's correctness invariants.

Five checkers, each guarding a convention that spans many files and that no
test exercises on every path:

``determinism``
    No wall-clock reads (``time.time()``, ``datetime.now()``, …) and no
    unseeded randomness (``np.random.default_rng()`` with no seed, the
    stdlib ``random`` module's global RNG) in simulation-facing packages
    (``lab``, ``db``, ``san``, ``stream``, ``correlate``, ``monitor``,
    ``stats``, ``obs``) or the CLI.  One stray wall-clock read makes a
    "deterministic" replay diverge only under load — the worst kind of
    flake.  The single exemption is ``obs/clock.py`` — the observability
    subsystem's allowlisted monotonic clock; everything else (including the
    rest of ``repro.obs``) measures wall durations through it.  Iteration
    order is out of its reach: a float sum over a ``set`` differs between
    hash seeds, which the two-process hash-seed test catches instead.
``executor-discipline``
    No raw ``ThreadPoolExecutor`` / ``ProcessPoolExecutor`` /
    ``threading.Thread`` / ``multiprocessing`` primitive construction
    outside ``runtime/pools.py`` and ``runtime/procpool.py``.  All fan-out
    goes through :func:`repro.runtime.shared_pool` so concurrency stays
    bounded by one budget (and the sanitizer can see task boundaries).
``keyspace-literal``
    Backend keyspace names come from :mod:`repro.storage.keyspaces` — class
    ``KEYSPACE`` attributes, ``keyspace=`` parameter defaults and call-site
    keywords must not be string literals.
``guarded-fields``
    A field annotated ``# guarded-by: <lock>`` is only mutated inside a
    ``with self.<lock>:`` block.  The annotation also drives the runtime
    sanitizer (:func:`repro.devtools.sanitize.instrument_guarded`).
``obs-discipline``
    Outside ``repro/obs/``, spans (``span()`` and ``worker_span()``) are used
    as context managers only (a manually opened span that never closes holds
    the trace context for the rest of the task and misparents everything
    after it), and ``wall_clock()`` — the observability clock — is never
    called directly: instrumented code measures wall durations through
    ``span()`` / ``timed()``, which keeps the determinism allowlist at
    exactly one module.

Invariants local to one module or one pairing are enforced by tests that
exercise the real code instead: ``state_dict``/``load_state`` and
``*_to_dict``/``*_from_dict`` pairs by an introspection test, the JSON-only
process handoff by :class:`~repro.runtime.procpool.ProcpoolPayloadError`,
the non-blocking serve loop by the serve suite's loop-thread guard, and
worker-side spans by a test that looks for them in the parent's tracer.

Suppression: append ``# repro-lint: disable=<check>[,<check>…]`` (or
``disable=all``) to the offending line, with a comment saying *why*; a
standalone pragma in the first five lines of a file suppresses file-wide.
``--strict`` additionally reports pragmas that no longer suppress anything,
so stale escapes cannot accumulate.

The analyzer is stdlib-``ast`` only — no new dependencies — and is wired to
the CLI as ``repro lint [paths…] [--json] [--strict] [--select checks]``,
exiting nonzero on findings (the CI gate).
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "FileContext",
    "CHECKERS",
    "SIMULATION_PACKAGES",
    "lint_paths",
    "lint_source",
    "render_findings",
    "guarded_fields_of",
    "main",
]

#: Top-level packages whose code runs inside the simulated-time world.
#: ``cli.py`` is included by filename (it hosts the wall-pacing gate, the
#: one *allowlisted* wall-clock read in the tree).
SIMULATION_PACKAGES = frozenset(
    {"lab", "db", "san", "stream", "correlate", "monitor", "stats", "obs"}
)

#: The only modules allowed to construct executors/threads/processes:
#: the thread pool and its process-backed sibling.
EXECUTOR_HOMES = (("runtime", "pools.py"), ("runtime", "procpool.py"))

#: The one module allowed to read a monotonic wall clock: the observability
#: subsystem's allowlisted clock (every span/timer funnels through it).
WALL_CLOCK_HOME = ("obs", "clock.py")

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: Wall-clock reads (resolved dotted names).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
    }
)

#: numpy RNG entry points that are deterministic when given a seed.
_SEEDED_RNG = frozenset({"numpy.random.default_rng", "numpy.random.Generator",
                         "numpy.random.SeedSequence"})

#: Container-mutating method names for guarded-field analysis.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to ``path:line``."""

    path: str
    line: int
    col: int
    check: str
    message: str

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.check}] {self.message}"


# ---------------------------------------------------------------------------
# per-file context: parse tree, pragmas, import aliases
# ---------------------------------------------------------------------------


def _parse_pragmas(lines: list[str]) -> tuple[dict[int, set[str]], set[str]]:
    """Line → suppressed checks, plus file-wide suppressions.

    A pragma suppresses its own line; a *standalone* pragma comment within
    the first five lines suppresses the whole file.
    """
    by_line: dict[int, set[str]] = {}
    file_wide: set[str] = set()
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if not match:
            continue
        checks = {part.strip() for part in match.group(1).split(",") if part.strip()}
        by_line[lineno] = checks
        if lineno <= 5 and text.lstrip().startswith("#"):
            file_wide |= checks
    return by_line, file_wide


class _ImportMap(ast.NodeVisitor):
    """Alias → canonical module path, for resolving dotted call names."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never shadow time/random/numpy
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"


@dataclass
class FileContext:
    """Everything a checker needs about one file."""

    path: str
    parts: tuple[str, ...]
    tree: ast.Module
    lines: list[str]
    pragmas: dict[int, set[str]] = field(default_factory=dict)
    file_pragmas: set[str] = field(default_factory=set)
    aliases: dict[str, str] = field(default_factory=dict)
    #: pragma lines that actually suppressed something (for --strict).
    used_pragmas: set[int] = field(default_factory=set)

    @classmethod
    def from_source(cls, source: str, path: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        by_line, file_wide = _parse_pragmas(lines)
        imports = _ImportMap()
        imports.visit(tree)
        return cls(
            path=path,
            parts=tuple(Path(path).parts),
            tree=tree,
            lines=lines,
            pragmas=by_line,
            file_pragmas=file_wide,
            aliases=imports.aliases,
        )

    # -- name resolution -------------------------------------------------
    def dotted(self, node: ast.expr) -> str | None:
        """Resolve an attribute chain to a dotted name through the imports.

        ``np.random.default_rng`` → ``numpy.random.default_rng`` under
        ``import numpy as np``; unresolvable heads (``self.x.y``) return
        None.
        """
        chain: list[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            chain.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        head = self.aliases.get(cursor.id, cursor.id)
        chain.append(head)
        return ".".join(reversed(chain))

    # -- suppression -----------------------------------------------------
    def suppressed(self, line: int, check: str) -> bool:
        checks = self.pragmas.get(line)
        if checks is not None and (check in checks or "all" in checks):
            self.used_pragmas.add(line)
            return True
        if check in self.file_pragmas or "all" in self.file_pragmas:
            for lineno in self.pragmas:
                if lineno <= 5:
                    self.used_pragmas.add(lineno)
            return True
        return False


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


class Checker:
    """One named invariant over a parsed file."""

    name = ""

    def applies(self, ctx: FileContext) -> bool:
        return True

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            check=self.name,
            message=message,
        )


class DeterminismChecker(Checker):
    """No wall-clock reads or unseeded randomness in simulated code."""

    name = "determinism"

    def applies(self, ctx: FileContext) -> bool:
        if ctx.parts[-2:] == WALL_CLOCK_HOME:
            return False  # the allowlisted observability clock
        return (
            bool(SIMULATION_PACKAGES.intersection(ctx.parts))
            or ctx.parts[-1] == "cli.py"
        )

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.dotted(node.func)
            if name is None:
                continue
            if name in _WALL_CLOCK:
                yield self._finding(
                    ctx,
                    node,
                    f"wall-clock read {name}() in simulation-facing code; "
                    "use the environment's simulated clock / ClockVector",
                )
            elif (
                name.rsplit(".", 1)[-1] in ("now", "utcnow", "today")
                and "datetime" in name.split(".")
            ):
                yield self._finding(
                    ctx,
                    node,
                    f"wall-clock read {name}() in simulation-facing code; "
                    "simulated timestamps only",
                )
            elif name.endswith("random.default_rng") and not node.args and not node.keywords:
                yield self._finding(
                    ctx,
                    node,
                    "unseeded np.random.default_rng(); pass an explicit seed "
                    "so reruns reproduce",
                )
            elif name.startswith("random."):
                if name == "random.Random" and (node.args or node.keywords):
                    continue  # seeded instance RNG is fine
                yield self._finding(
                    ctx,
                    node,
                    f"{name}() draws from the process-global stdlib RNG; use "
                    "a seeded np.random.default_rng(seed) instead",
                )
            elif name.startswith("numpy.random.") and name not in _SEEDED_RNG:
                yield self._finding(
                    ctx,
                    node,
                    f"{name}() uses numpy's legacy global RNG state; use a "
                    "seeded np.random.default_rng(seed) instead",
                )


class ExecutorChecker(Checker):
    """Thread/executor/process construction lives in runtime/pools.py
    and runtime/procpool.py only."""

    name = "executor-discipline"

    _BANNED = {
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "threading.Thread",
        "multiprocessing.Process",
        "multiprocessing.Pool",
        "multiprocessing.Queue",
        "multiprocessing.SimpleQueue",
        "multiprocessing.Manager",
        "multiprocessing.get_context",
    }

    def applies(self, ctx: FileContext) -> bool:
        return tuple(ctx.parts[-2:]) not in EXECUTOR_HOMES

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.dotted(node.func)
            if name in self._BANNED:
                yield self._finding(
                    ctx,
                    node,
                    f"raw {name} outside runtime/pools.py or "
                    "runtime/procpool.py; fan out through "
                    "repro.runtime.shared_pool() so concurrency stays bounded "
                    "by one budget",
                )


class KeyspaceLiteralChecker(Checker):
    """Keyspace names come from repro.storage.keyspaces, not literals."""

    name = "keyspace-literal"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.parts[-1] != "keyspaces.py"

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        advice = "reference repro.storage.keyspaces instead of a string literal"
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    value = None
                    if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "KEYSPACE"
                        for t in stmt.targets
                    ):
                        value = stmt.value
                    elif (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.target.id in ("KEYSPACE", "keyspace")
                    ):
                        value = stmt.value
                    if isinstance(value, ast.Constant) and isinstance(value.value, str):
                        yield self._finding(
                            ctx, value, f"literal keyspace {value.value!r}; {advice}"
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaults = list(
                    zip(positional[len(positional) - len(args.defaults):], args.defaults)
                ) + list(zip(args.kwonlyargs, args.kw_defaults))
                for arg, default in defaults:
                    if (
                        arg.arg == "keyspace"
                        and isinstance(default, ast.Constant)
                        and isinstance(default.value, str)
                    ):
                        yield self._finding(
                            ctx,
                            default,
                            f"literal keyspace default {default.value!r}; {advice}",
                        )
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if (
                        keyword.arg == "keyspace"
                        and isinstance(keyword.value, ast.Constant)
                        and isinstance(keyword.value.value, str)
                    ):
                        yield self._finding(
                            ctx,
                            keyword.value,
                            f"literal keyspace argument {keyword.value.value!r}; "
                            f"{advice}",
                        )


_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")


def _class_guarded_fields(
    cls: ast.ClassDef, lines: list[str]
) -> dict[str, tuple[str, int]]:
    """Field → (lock name, annotation line) for one class.

    A ``# guarded-by: <lock>`` comment binds to the nearest field
    declaration at or below it (within four lines): a class-body assignment
    (dataclass field) or a ``self.<field> = …`` in any method.
    """
    candidates: list[tuple[int, str]] = []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            candidates.append((stmt.lineno, stmt.target.id))
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    candidates.append((stmt.lineno, target.id))
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    candidates.append((node.lineno, target.attr))
    candidates.sort()

    end = max(getattr(cls, "end_lineno", cls.lineno) or cls.lineno, cls.lineno)
    guarded: dict[str, tuple[str, int]] = {}
    for lineno in range(cls.lineno, end + 1):
        if lineno > len(lines):
            break
        match = _GUARDED_RE.search(lines[lineno - 1])
        if not match:
            continue
        lock = match.group(1)
        for cand_line, name in candidates:
            if lineno <= cand_line <= lineno + 4:
                guarded[name] = (lock, lineno)
                break
    return guarded


def guarded_fields_of(source: str) -> dict[str, dict[str, str]]:
    """Class name → {field → lock} from ``# guarded-by`` annotations.

    The shared vocabulary between the static checker and the runtime
    sanitizer: both read the same comments, so a field is either protected
    in both worlds or in neither.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    out: dict[str, dict[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            fields = _class_guarded_fields(node, lines)
            if fields:
                out[node.name] = {name: lock for name, (lock, _) in fields.items()}
    return out


class GuardedFieldsChecker(Checker):
    """# guarded-by fields are only mutated under their lock."""

    name = "guarded-fields"

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guarded = _class_guarded_fields(cls, ctx.lines)
            if not guarded:
                continue
            for stmt in cls.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if stmt.name in ("__init__", "__post_init__"):
                    continue  # construction happens before the object escapes
                yield from self._check_function(ctx, cls, stmt, guarded)

    def _check_function(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        func: ast.FunctionDef,
        guarded: dict[str, tuple[str, int]],
    ) -> Iterator[Finding]:
        held: list[str] = []

        def walk(node: ast.AST) -> Iterator[Finding]:
            if isinstance(node, ast.With):
                locks = [
                    item.context_expr.attr
                    for item in node.items
                    if isinstance(item.context_expr, ast.Attribute)
                    and isinstance(item.context_expr.value, ast.Name)
                    and item.context_expr.value.id == "self"
                ]
                held.extend(locks)
                for child in node.body:
                    yield from walk(child)
                del held[len(held) - len(locks):]
                return
            yield from self._mutations(ctx, cls, node, guarded, held)
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                          ast.Lambda)):
                    yield from walk(child)

        for stmt in func.body:
            yield from walk(stmt)

    def _mutations(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        node: ast.AST,
        guarded: dict[str, tuple[str, int]],
        held: list[str],
    ) -> Iterator[Finding]:
        def self_field(expr: ast.AST) -> str | None:
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in guarded
            ):
                return expr.attr
            if isinstance(expr, ast.Subscript):
                return self_field(expr.value)
            return None

        touched: list[str] = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = self_field(target)
                if name:
                    touched.append(name)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = self_field(target)
                if name:
                    touched.append(name)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                name = self_field(node.func.value)
                if name:
                    touched.append(name)

        for name in touched:
            lock, _ = guarded[name]
            if lock not in held:
                yield self._finding(
                    ctx,
                    node,
                    f"{cls.name}.{name} is declared guarded-by {lock} but "
                    f"mutated outside `with self.{lock}:`",
                )


class ObsDisciplineChecker(Checker):
    """Spans are context managers; wall-clock reads stay inside repro/obs."""

    name = "obs-discipline"

    def applies(self, ctx: FileContext) -> bool:
        # The obs package itself is exempt: the tracer's factory methods
        # construct spans without entering them, and clock.py *is* the wall
        # clock.  (Determinism still polices obs internals.)
        return "obs" not in ctx.parts

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        with_items: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.dotted(node.func)
            if name is None:
                # Chains through a call (``tracer().span``) defeat alias
                # resolution; the bare attribute leaf is still diagnostic for
                # the obs-only names this checker polices.
                if not isinstance(node.func, ast.Attribute):
                    continue
                name = node.func.attr
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "wall_clock":
                yield self._finding(
                    ctx,
                    node,
                    f"direct observability wall-clock read {name}() outside "
                    "repro/obs/; measure wall durations through span() or "
                    "metrics.timed() instead",
                )
            elif leaf in ("span", "worker_span") and id(node) not in with_items:
                yield self._finding(
                    ctx,
                    node,
                    f"{name}() opened outside a `with` statement; a span "
                    "that is never closed holds the trace context and "
                    f"misparents every later span — use `with {leaf}(...):`",
                )


#: Registered checkers, in report order.
CHECKERS: tuple[Checker, ...] = (
    DeterminismChecker(),
    ExecutorChecker(),
    KeyspaceLiteralChecker(),
    GuardedFieldsChecker(),
    ObsDisciplineChecker(),
)

CHECKER_NAMES = tuple(checker.name for checker in CHECKERS)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Iterable[str] | None = None,
    strict: bool = False,
) -> list[Finding]:
    """Lint one source string; the building block under :func:`lint_paths`."""
    wanted = set(select) if select is not None else set(CHECKER_NAMES)
    unknown = wanted - set(CHECKER_NAMES)
    if unknown:
        raise ValueError(
            f"unknown checker(s): {', '.join(sorted(unknown))} "
            f"(available: {', '.join(CHECKER_NAMES)})"
        )
    try:
        ctx = FileContext.from_source(source, path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                check="parse-error",
                message=f"cannot parse: {exc.msg}",
            )
        ]
    findings: list[Finding] = []
    for checker in CHECKERS:
        if checker.name not in wanted or not checker.applies(ctx):
            continue
        for finding in checker.run(ctx):
            if not ctx.suppressed(finding.line, finding.check):
                findings.append(finding)
    if strict:
        for lineno in sorted(set(ctx.pragmas) - ctx.used_pragmas):
            findings.append(
                Finding(
                    path=path,
                    line=lineno,
                    col=1,
                    check="stale-pragma",
                    message=(
                        "pragma suppresses nothing (strict mode); remove it "
                        "or fix the check name"
                    ),
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.check))
    return findings


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" not in candidate.parts:
                    yield candidate
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"no python file or directory at {path}")


def lint_paths(
    paths: Iterable[str | Path],
    *,
    select: Iterable[str] | None = None,
    strict: bool = False,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``; findings sorted by location."""
    findings: list[Finding] = []
    for file_path in _iter_python_files(paths):
        findings.extend(
            lint_source(
                file_path.read_text(encoding="utf-8"),
                str(file_path),
                select=select,
                strict=strict,
            )
        )
    return findings


def render_findings(findings: list[Finding]) -> str:
    """Human-readable report: one ``path:line:col: [check] message`` per row."""
    if not findings:
        return "repro lint: clean"
    lines = [finding.render() for finding in findings]
    by_check = Counter(finding.check for finding in findings)
    summary = ", ".join(f"{count} {name}" for name, count in sorted(by_check.items()))
    lines.append(f"\n{len(findings)} finding(s): {summary}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point behind ``repro lint`` (also ``python -m repro.devtools.lint``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST lint for the repo's determinism/locking invariants",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CHECKS",
        help=f"comma-separated subset of: {', '.join(CHECKER_NAMES)}",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on pragmas that no longer suppress anything",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit findings as a JSON array"
    )
    args = parser.parse_args(argv)

    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select
        else None
    )
    try:
        findings = lint_paths(args.paths, select=select, strict=args.strict)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro lint: {exc}", flush=True)
        return 2
    if args.json:
        print(json.dumps([finding.to_dict() for finding in findings], indent=2))
    else:
        print(render_findings(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
