"""DESIGN.md section 5's single-site rules, as one table.

Each row of :data:`RULES` names the section-5 item it holds, the rule in
words, a matcher, the sites where the matcher may hit, and how many hits
there must be.  A site is a file (``src/repro/forksafe.py``), a package
(``src/repro/resilience/``) or a definition in a file
(``src/repro/fleet/router.py::Router.open_stream``).  Every hit must lie
in a site, every site must hold at least one, and where ``count`` is a
number the hits number exactly that.

Python is matched on its syntax tree (calls, references, imports,
definitions, dict keys, comparisons) and C on its tokens, each file
parsed once per session.  A removed name is a tombstone: its row matches
text, so that the name fails in a comment or a document too.  Every
scan skips this file, which spells the names out.

Each row also carries a ``violation``: a snippet that, appended to a
file in the row's scope, brings back what the row forbids.
``test_the_violation_is_flagged`` holds every row to its own, so no row
can pass because its matcher sees nothing.
"""

from __future__ import annotations

import ast
import bisect
import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().relative_to(ROOT).as_posix()


class Hit(NamedTuple):
    path: str
    line: int
    qual: str  # the enclosing definitions ("Class.method"), "" at module level


class Fact(NamedTuple):
    kind: str  # "call", "raise", "ref", "def", "key" or "compare"
    name: str  # dotted callee or reference, definition, dict key, compared name
    line: int
    arg: object  # a call's first argument, the constant a name is compared to
    qual: str
    deferred: bool  # inside a def or a lambda: does not run at import
    in_with: bool  # lexically inside a ``with`` block


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{_dotted(node.func)}()"
    return "?"


def _constant(node: ast.AST):
    return node.value if isinstance(node, ast.Constant) else None


def _python_facts(text: str) -> list:
    facts = []

    def visit(node, ctx):  # ctx: (qual, deferred, in_with)
        children = ast.iter_child_nodes(node)
        if isinstance(node, (ast.Name, ast.Attribute)):
            facts.append(Fact("ref", _dotted(node), node.lineno, None, *ctx))
            if isinstance(node, ast.Name) or isinstance(
                    node.value, (ast.Name, ast.Attribute)):
                return  # one reference: the chain's inner links are in it
        elif isinstance(node, ast.Call):
            facts.append(Fact("call", _dotted(node.func), node.lineno,
                              _constant(node.args[0]) if node.args else None,
                              *ctx))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            qual, deferred, in_with = ctx
            facts.append(Fact("def", node.name, node.lineno, None, *ctx))
            body = (f"{qual}.{node.name}" if qual else node.name,
                    deferred or not isinstance(node, ast.ClassDef), in_with)
            for child in node.body:
                visit(child, body)
            # Decorators, defaults and bases run where the def stands.
            children = [c for c in children if c not in node.body]
        elif isinstance(node, ast.Lambda):
            ctx = (ctx[0], True, ctx[2])
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                visit(item, ctx)
            children, ctx = node.body, (ctx[0], ctx[1], True)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            facts.append(Fact("raise", _dotted(exc), node.lineno, None, *ctx))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            facts.extend(Fact("ref", f"{module}.{alias.name}" if module
                              else alias.name, node.lineno, None, *ctx)
                         for alias in node.names)
        elif isinstance(node, ast.Dict):
            facts.extend(Fact("key", key.value, key.lineno, None, *ctx)
                         for key in node.keys if key is not None
                         and isinstance(_constant(key), str))
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], ast.Eq)):
            pair = (node.left, node.comparators[0])
            facts.extend(Fact("compare", _dotted(named), node.lineno,
                              value.value, *ctx)
                         for named, value in (pair, pair[::-1])
                         if isinstance(value, ast.Constant))
        for child in children:
            visit(child, ctx)

    visit(ast.parse(text), ("", False, False))
    return facts


#: Comments and literals, identifiers, and any other single character.
_C_TOKEN = re.compile(r'(//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\])*"|'
                      r"'(?:\\.|[^'\\])*')|([A-Za-z_]\w*)|(\S)", re.S)
_WORD = re.compile(r"[A-Za-z_]\w*")


def _c_facts(text: str) -> list:
    """Every identifier is a ``ref`` (the words of comments and literals
    too: a removed name stays removed in prose); an identifier followed
    by ``(`` in code is also a ``call``."""
    starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def fact(kind, name, offset):  # C runs nothing at import: deferred
        return Fact(kind, name, bisect.bisect_right(starts, offset), None,
                    "", True, False)

    facts, word = [], None
    for m in _C_TOKEN.finditer(text):
        prose, ident, punct = m.groups()
        if prose:
            facts += [fact("ref", w.group(), m.start() + w.start())
                      for w in _WORD.finditer(prose)]
        elif ident:
            facts.append(fact("ref", ident, m.start()))
        elif punct == "(" and word:
            facts.append(fact("call", word.group(), word.start()))
        word = m if ident else None
    return facts


class Source:
    """One file's text and, for Python and C, its facts by kind."""

    def __init__(self, path: str, text: str):
        self.path, self.text = path, text

    @functools.cached_property
    def facts(self) -> dict:
        if self.path.endswith(".py"):
            facts = _python_facts(self.text)
        elif self.path.endswith(".c"):
            facts = _c_facts(self.text)
        else:
            facts = []
        by_kind = {}
        for fact in facts:
            by_kind.setdefault(fact.kind, []).append(fact)
        return by_kind

    def appended(self, snippet: str) -> "Source":
        """This file with top-level ``snippet`` appended, parsing only the
        snippet."""
        shift = self.text.count("\n") + 1
        out = Source(self.path, f"{self.text}\n{snippet}")
        added = Source(self.path, snippet).facts
        out.facts = {kind: self.facts.get(kind, []) + [
            f._replace(line=f.line + shift) for f in added.get(kind, [])]
            for kind in {*self.facts, *added}}
        return out


@functools.lru_cache(maxsize=None)
def _source(path: str) -> Optional[Source]:
    """``path`` read once per session; ``None`` for a binary file."""
    data = (ROOT / path).read_bytes()
    return None if b"\0" in data else Source(path, data.decode("utf-8", "replace"))


@functools.lru_cache(maxsize=None)
def _files(scope: tuple) -> tuple:
    """The files the globs of ``scope`` name, bytecode caches and this
    table left out."""
    found = {p.relative_to(ROOT).as_posix() for pattern in scope
             for p in ROOT.glob(pattern)
             if p.is_file() and "__pycache__" not in p.parts}
    return tuple(sorted(found - {TABLE}))


def _inside(qual: str, outer: str) -> bool:
    return qual == outer or qual.startswith(outer + ".")


@dataclass(frozen=True)
class Text:
    """A regular expression over the text of every file in ``scope``: a
    tombstone."""

    pattern: str
    scope: tuple

    def hits(self, source: Source) -> list:
        text = source.text
        return [Hit(source.path, text.count("\n", 0, m.start()) + 1, "")
                for m in re.finditer(self.pattern, text)]


@dataclass(frozen=True)
class Facts:
    """The facts of one ``kind`` in the Python and C files of ``scope``
    whose name holds ``name``, a regular expression over whole
    dot-separated parts (``faults\\.hit`` finds
    ``repro.resilience.faults.hit``, not ``faults.hits``).  ``arg``
    narrows to a first argument equal to it or, given a type, of it;
    ``at_import`` to code that runs when the module is imported;
    ``in_with`` to code inside a ``with`` block; ``within`` to the body
    of that definition, which must exist."""

    kind: str
    name: str
    scope: tuple
    arg: object = None
    at_import: bool = False
    in_with: bool = False
    within: Optional[str] = None

    def hits(self, source: Source) -> list:
        name = re.compile(rf"(?:^|\.)(?:{self.name})(?:\.|$)")
        return [Hit(source.path, f.line, f.qual)
                for f in source.facts.get(self.kind, ()) if name.search(f.name)
                and (self.arg is None or (isinstance(f.arg, self.arg)
                                          if isinstance(self.arg, type)
                                          else f.arg == self.arg))
                and not (self.at_import and f.deferred)
                and (f.in_with or not self.in_with)
                and (self.within is None or _inside(f.qual, self.within))]


@dataclass(frozen=True)
class Row:
    id: str
    item: int  # of DESIGN.md section 5
    rule: str
    matcher: object  # Text or Facts
    sites: tuple = ()
    count: Optional[int] = 0  # None: any number, one per site at least
    violation: tuple = ()  # (a file in the matcher's scope, text appended to it)


def find(matcher, extra: Optional[dict] = None) -> list:
    """Every hit of ``matcher``; ``extra`` maps a path to text appended
    to that file."""
    extra = extra or {}
    hits = []
    for path in _files(matcher.scope):
        source = _source(path)
        if source is not None:
            hits += matcher.hits(source.appended(extra[path]) if path in extra
                                 else source)
    return hits


def broken(row: Row, extra: Optional[dict] = None) -> list:
    """How ``row`` fails, one line per fault; empty when it holds."""

    def at(site, hit):
        path, _, qual = site.partition("::")
        in_file = hit.path == path or (path.endswith("/")
                                       and hit.path.startswith(path))
        return in_file and (not qual or _inside(hit.qual, qual))

    hits = find(row.matcher, extra)
    faults = [f"{h.path}:{h.line} is not an allowed site" for h in hits
              if not any(at(site, h) for site in row.sites)]
    faults += [f"{site} holds no site" for site in row.sites
               if not any(at(site, h) for h in hits)]
    if row.count is not None and len(hits) != row.count:
        faults.append(f"{len(hits)} sites, not {row.count}: "
                      + ", ".join(f"{h.path}:{h.line}" for h in hits))
    within = getattr(row.matcher, "within", None)
    if within and within not in {
            f"{f.qual}.{f.name}".lstrip(".") for path in _files(row.matcher.scope)
            for f in _source(path).facts.get("def", ())}:
        faults.append(f"{within} is not defined in {row.matcher.scope}")
    return faults


PY = ("src/repro/**/*.py",)
KERNEL_C = ("src/repro/fdfd/_thiim_kernel.c",)
KERNELS_PY = ("src/repro/fdfd/kernels.py",)
EXECUTOR = ("src/repro/core/executor.py",)
CLUSTER = ("src/repro/cluster/**/*.py",)
RUNTIME = ("src/repro/cluster/runtime.py",)
STORE = ("src/repro/service/store.py",)
#: What the tombstones of removed names scan, by the tree they cover.
TREE = ("src/**/*", "tests/**/*", "benchmarks/*.py")
DOCS = ("README.md", "DESIGN.md", ".github/**/*")

PERSISTENCE = ("read_json_checked", "atomic_write_json", "corrupt_file")

RULES = [
    # -- 16: one thread group, in C ------------------------------------------
    *(Row(f"thread-group.{call}", 16,
          f"the helper group has one {call}: one start and one sleep/wake path",
          Facts("call", call, KERNEL_C), KERNEL_C, 1,
          violation=(KERNEL_C[0], f"static void again(void) {{ {call}(0, 0); }}"))
      for call in ("pthread_cond_wait", "pthread_create")),
    Row("thread-group.no-roles", 16, "no helper roles: no consumer, ring or "
        "generation flag is left in the kernel",
        Facts("ref", r"\w*(consumer_asleep|run_ring|gen0)\w*", KERNEL_C),
        violation=(KERNEL_C[0], "static int consumer_asleep; /* run_ring */")),
    Row("thread-group.no-pool", 16, "kernels.py runs no pool and pins no thread",
        Facts("ref", r"concurrent\.futures|sched_setaffinity", KERNELS_PY),
        violation=(KERNELS_PY[0], "from concurrent.futures import ThreadPoolExecutor")),
    Row("thread-group.no-thread", 16,
        "kernels.py and the executor start no Python thread",
        Facts("ref", r"threading\.Thread", KERNELS_PY + EXECUTOR),
        violation=(EXECUTOR[0], "helper = threading.Thread(target=execute_tile)")),
    Row("thread-group.one-call", 16, "the executor has one kernel call site",
        Facts("call", "update_component", EXECUTOR), EXECUTOR, 1,
        violation=(EXECUTOR[0], "def twice(name, fields, coeffs, region):\n"
                   "    update_component(name, fields, coeffs, region)")),
    # -- 15: one load-once path for compiled code ----------------------------
    Row("native.import-time", 15,
        "importing a module opens no library and runs no subprocess",
        Facts("call", r"ctypes\.(CDLL|PyDLL)|subprocess\.(run|Popen|call|check_\w+)",
              PY, at_import=True),
        violation=("src/repro/nativelib.py", "_LRU = ctypes.CDLL(_build('_lru_kernel'))")),
    Row("native.one-loader", 15, "only the shared build helper opens a library",
        Facts("ref", "CDLL|PyDLL", PY), ("src/repro/nativelib.py",), None,
        violation=(KERNELS_PY[0], "def _open():\n"
                   "    return ctypes.CDLL(nativelib._build('_thiim_kernel'))")),
    # -- 7: the cluster's data plane -------------------------------------------
    Row("data-plane.no-simulated-ranks", 7, "no simulated-rank solver",
        Text("DistributedTHIIM", ("src/**/*", "tests/**/*", "examples/**/*")),
        violation=("examples/distributed_run.py", "# DistributedTHIIM(grid, layout).run(2)")),
    Row("data-plane.no-poll-loop", 7, "the parent waits through forksafe.Child, "
        "with no poll-and-sleep loop",
        Facts("call", "poll", RUNTIME, arg=float),
        violation=(RUNTIME[0], "def _wait(conn):\n    while not conn.poll(0.05):\n"
                   "        time.sleep(0.01)")),
    Row("data-plane.no-barrier", 7, "no collective barrier",
        Facts("call", "Barrier", CLUSTER),
        violation=(RUNTIME[0], "def _sync(ctx, n):\n    return ctx.Barrier(n)")),
    Row("data-plane.no-fields-message", 7,
        "no field array in a control-pipe message",
        Facts("key", "fields", RUNTIME),
        violation=(RUNTIME[0], "def _reply(conn, rank):\n"
                   "    conn.send({'type': 'check', 'fields': rank.fields})")),
    Row("data-plane.no-rank-snapshot", 7, "a rank makes no checkpoint manager",
        Facts("call", "CheckpointManager", CLUSTER),
        violation=(RUNTIME[0], "def _rank_store(root):\n    return CheckpointManager(root)")),
    Row("data-plane.no-pinning", 7, "no rank is pinned",
        Facts("ref", "sched_setaffinity", CLUSTER),
        violation=(RUNTIME[0], "def _pin(cpu):\n    os.sched_setaffinity(0, {cpu})")),
    Row("data-plane.no-group-marker", 7,
        "no rank-side snapshot or group marker",
        Text(r"_GroupCheckpoint|_SlabSnapshot|MARKER_VERSION|cluster\.json", CLUSTER),
        violation=("src/repro/cluster/distributed.py", "MARKER_VERSION = 1")),
    # -- 10: one scenario table ------------------------------------------------
    Row("scenario-table.seeded", 10, "seeded fault plans are built in "
        "src/repro/resilience only",
        Facts("call", r"FaultPlan\.seeded", PY + ("benchmarks/*.py",)),
        ("src/repro/resilience/",), None,
        violation=("benchmarks/bench_ablations.py",
                   "plan = FaultPlan.seeded(7, 'solver.sweep', 'crash')")),
    Row("scenario-table.no-cli-scenario", 10, "no chaos scenario is left in cli.py",
        Facts("def", r"_chaos_\w*", ("src/repro/cli.py",)),
        violation=("src/repro/cli.py", "def _chaos_worker_crash(args):\n    return 0")),
    # -- 8: one convergence loop -----------------------------------------------
    *(Row(f"one-loop.{kind}-{name}", 8, f"one {kind} site of {name}, in _converge",
          Facts(kind, re.escape(name), PY, arg=arg),
          ("src/repro/fdfd/thiim.py::_converge",), 1,
          violation=("src/repro/core/tiled_solver.py", f"def _again(res, history):\n"
                     f"    {snippet}"))
      for kind, name, arg, snippet in (
          ("call", "divergence_reason", None, "return divergence_reason(res, history)"),
          ("call", "faults.hit", "solver.sweep", "faults.hit('solver.sweep')"),
          ("raise", "SolverDiverged", None, "raise SolverDiverged('diverged')"))),
    # -- 14: one copy of the state ---------------------------------------------
    Row("one-copy.no-fields-copy", 14, "the convergence loop copies no whole state",
        Facts("call", r"\w*fields\.copy", ("src/repro/fdfd/thiim.py",)),
        violation=("src/repro/fdfd/thiim.py", "def _previous(state):\n"
                   "    return state.fields.copy()")),
    Row("one-copy.checksum-in-place", 14,
        "the result checksum hashes each buffer where it lies",
        Facts("call", "tobytes", ("src/repro/service/jobs.py",), within="_field_checksum"),
        violation=("src/repro/service/jobs.py", "def _field_checksum(fields):\n"
                   "    return hashlib.sha256(fields['ex'].tobytes()).hexdigest()")),
    Row("one-copy.streamed-checkpoint", 14, "a checkpoint streams into its file",
        Facts("ref", "BytesIO", ("src/repro/resilience/checkpoint.py",)),
        violation=("src/repro/resilience/checkpoint.py",
                   "def _buffer():\n    return io.BytesIO()")),
    # -- 19: one path to a tuned point -----------------------------------------
    Row("tuned-point.no-pool", 19, "the autotuner runs no process pool",
        Facts("ref", "multiprocessing", ("src/repro/core/autotuner.py",)),
        violation=("src/repro/core/autotuner.py", "import multiprocessing")),
    Row("tuned-point.no-disk-cache", 19, "no tuner disk cache",
        Text("tune_cache", TREE + DOCS),
        violation=("README.md", "Tuned points persist in `tune_cache/`.")),
    Row("tuned-point.one-dispatch", 19, "one variant dispatch, tune_variant",
        Facts("compare", "variant", PY, arg="spatial"),
        ("src/repro/core/autotuner.py::tune_variant",), 1,
        violation=("src/repro/service/registry.py",
                   "def _is_spatial(variant):\n    return variant == 'spatial'")),
    # -- 11: one route to every setting, one measuring instrument --------------
    # The flags' common prefix is factored out of the group: test_config.py
    # fails on any flag name in a test file that is not a live flag, so the
    # snippet spells its underscore as an escape too.
    Row("one-route.removed-flags", 11, "the removed tuner, transport and "
        "engine flags are named nowhere",
        Text(r"REPRO_(TUNE_|CLUSTER_TRANSPORT|STREAM_ENGINE)", TREE + DOCS),
        violation=("DESIGN.md", "`REPRO\x5fTUNE_WORKERS` sizes the tuner's pool.")),
    Row("one-route.one-transport", 11, "one halo transport",
        Text("QueueTransport|make_transport", TREE),
        violation=("tests/test_cluster.py",
                   "from repro.cluster.transport import QueueTransport")),
    Row("one-route.one-instrument", 11, "two stream emitters replaying row "
        "schedules; no tile-stream memo",
        Text("ComponentStreamEmitter|emit_tiles_interleaved|_tile_stream", TREE),
        violation=("src/repro/machine/streams.py", "class ComponentStreamEmitter:\n"
                   "    pass")),
    # -- 2: one traversal per tile ---------------------------------------------
    Row("traversal.one-producer", 2, "tile_rows is the only producer of a "
        "tile's traversal",
        Text(r"tile_job_arrays|\brow_jobs\(", TREE),
        violation=("benchmarks/bench_kernels.py", "jobs = row_jobs(tile, nz, bz)")),
    Row("traversal.row-job", 2, "RowJob is built only in wavefront.py",
        Facts("call", "RowJob", PY), ("src/repro/core/wavefront.py",), None,
        violation=("src/repro/core/plan.py", "def _job(col):\n    return RowJob(*col)")),
    Row("traversal.clip-region", 2, "in core, only plan.py clips a region",
        Facts("call", "clip_region", ("src/repro/core/**/*.py",)),
        ("src/repro/core/plan.py",), None,
        violation=(EXECUTOR[0], "def _clip(grid, spec, box):\n"
                   "    return clip_region(grid, spec, *box)")),
    # -- 13: one telemetry spine -----------------------------------------------
    Row("telemetry.one-spine", 13, "no second tracer, span-argument helper or "
        "resilience counter class",
        Text(r"core\.tracing|core import tracing|span_args|RESILIENCE_COUNTERS|"
             r"ResilienceCounters", TREE + ("examples/**/*",)),
        violation=("examples/quickstart.py", "from repro.core import tracing")),
    Row("telemetry.trace-arg", 13, "only repro.telemetry writes a trace id "
        "into span arguments",
        Facts("key", "trace", PY), ("src/repro/telemetry/",), None,
        violation=("src/repro/service/scheduler.py",
                   "def _args(job):\n    return {'trace': job.trace_id}")),
    Row("telemetry.fork-child", 13, "one fork hand-off, in forksafe.Child",
        Facts("call", "fork_child", PY), ("src/repro/forksafe.py",), 1,
        violation=("src/repro/service/scheduler.py",
                   "def _entry(conn):\n    telemetry.fork_child()")),
    Row("telemetry.no-spool", 13, "a forked worker reports over its pipe: no "
        "event file, spool dir or thread-local fault attempt",
        Text("configure_sink|configure_tail|sync_job|event_file|spool_dir|set_attempt",
             ("src/repro/**/*", "tests/**/*")),
        violation=("tests/test_telemetry_progress.py", "telemetry.configure_sink(None)")),
    # -- 15: one fork rule -----------------------------------------------------
    Row("fork-rule.at-fork", 15, "one after-fork handler",
        Facts("call", r"os\.register_at_fork", PY), ("src/repro/forksafe.py",), 1,
        violation=(KERNELS_PY[0], "os.register_at_fork(after_in_child=_reset)")),
    Row("fork-rule.process", 15, "a process is forked only in forksafe.py",
        Facts("call", "Process", PY), ("src/repro/forksafe.py",), None,
        violation=(RUNTIME[0], "def _fork(target):\n"
                   "    return mp.get_context('fork').Process(target=target)")),
    Row("fork-rule.lock", 15, "every lock is made by forksafe.lock",
        Facts("call", r"threading\.Lock", PY), ("src/repro/forksafe.py",), None,
        violation=("src/repro/machine/streams.py", "_TABLE_LOCK = threading.Lock()")),
    Row("fork-rule.one-load-path", 15, "no per-library load flag or lock",
        Text("_LIB_TRIED|_DES_LOCK|_THIIM_LOCK", PY),
        violation=("src/repro/nativelib.py", "_LIB_TRIED = set()")),
    Row("fork-rule.child", 15, "scheduler workers and cluster ranks are "
        "forked at one site, forksafe.Child",
        Facts("call", "Child", PY),
        ("src/repro/service/scheduler.py::Scheduler._execute_in_child",
         "src/repro/cluster/runtime.py::run_distributed.start_ranks"), 2,
        violation=(RUNTIME[0], "def _respawn(coord):\n"
                   "    return Child(_rank_main, coord, name='rank', crash=RankCrash)")),
    Row("fork-rule.no-fork-in-lock", 15,
        "no code forks inside a critical section",
        Facts("call", "Child", PY, in_with=True),
        violation=("src/repro/service/scheduler.py", "def _fork_locked(self, spec):\n"
                   "    with self._cv:\n"
                   "        return Child(_child_entry, self, spec, name='worker',\n"
                   "                     crash=WorkerCrash)")),
    # -- 18: a batch behind the gateway is its points --------------------------
    Row("gateway.no-scatter", 18, "a batch is submitted as its points: no "
        "sub-batch scatter",
        Text("subset_spec|remember_scatter|recall_scatter|_scatter_", PY),
        violation=("src/repro/fleet/gateway.py",
                   "def subset_spec(spec, points):\n    return spec")),
    Row("gateway.one-client", 18, "node-bound requests go through "
        "router.http_request; only Router.open_stream opens its own connection",
        Facts("call", "urlopen", ("src/repro/fleet/**/*.py",)),
        ("src/repro/fleet/router.py::Router.open_stream",), None,
        violation=("src/repro/fleet/router.py",
                   "def fetch(url):\n    return urllib.request.urlopen(url).read()")),
    # -- 20: one document store ------------------------------------------------
    Row("document-store.owners", 20, "only the document store and the "
        "scheduler's queue spool persist JSON under src/repro/service",
        Facts("call", "|".join(PERSISTENCE), ("src/repro/service/**/*.py",)),
        ("src/repro/service/scheduler.py", "src/repro/service/store.py"), None,
        violation=("src/repro/service/registry.py",
                   "def _load(path):\n    return read_json_checked(path)")),
    *(Row(f"document-store.{call}", 20,
          f"store.py calls {call} once, in DocumentStore",
          Facts("call", call, STORE), ("src/repro/service/store.py::DocumentStore",), 1,
          violation=(STORE[0], f"def _again(path, doc):\n    {call}(path, doc)"))
      for call in PERSISTENCE),
    Row("document-store.no-fault-flag", 20, "a job spec carries no fault flag",
        Text("fail_once|crash_once|always_fail", PY),
        violation=("src/repro/service/jobs.py", "fail_once: bool = False")),
]


@pytest.mark.parametrize("row", RULES, ids=[row.id for row in RULES])
def test_the_rule_holds(row):
    assert not broken(row), f"{row.rule} (DESIGN.md section 5, item {row.item})"


@pytest.mark.parametrize("row", RULES, ids=[row.id for row in RULES])
def test_the_violation_is_flagged(row):
    path, snippet = row.violation
    assert path in _files(row.matcher.scope)
    assert row.matcher.hits(Source(path, snippet)), "the matcher misses it"
    assert broken(row, {path: snippet}), "the row holds with it in place"


def test_the_ids_are_unique_and_named_in_design():
    ids = [row.id for row in RULES]
    assert len(set(ids)) == len(ids)
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert not [group for group in {i.split(".")[0] for i in ids}
                if f"`{group}.*`" not in design]
