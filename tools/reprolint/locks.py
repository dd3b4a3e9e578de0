"""Lock-index extraction and R9 lock-order/deadlock analysis.

Phase 1 (:func:`extract_lock_info`) summarizes each module: which
``threading.Lock``/``RLock``/``Condition`` objects it defines (class
attributes and module globals), and — per function — every lock
acquisition, every call made while a lock is held, every blocking
operation, and every ``await``, each annotated with the set of locks
lexically held at that point.  A Condition counts as a lock of its
underlying lock's kind (``RLock`` unless one is passed in).

Phase 2 (:func:`rule_r9_lock_order`) stitches the per-module summaries
into a global lock-acquisition graph, resolving one level of intra-repo
calls, and flags:

* lock-order cycles (``A`` held while taking ``B`` somewhere, ``B`` held
  while taking ``A`` elsewhere),
* re-acquisition of a non-reentrant ``threading.Lock`` already held,
* blocking operations (``time.sleep``, bare ``.join()``, ``queue.get``,
  executor ``.map``/``.result``, pool ``.prewarm()``, ``.wait()``,
  ``.wait_for()``, ``.shutdown()``) performed while holding a lock —
  directly or one call away.  Waiting on a Condition releases that
  Condition, so its own ``.wait()`` is blocking only with respect to the
  *other* locks held,
* ``await`` while a ``threading`` lock is held (an async event loop must
  never park on top of a thread lock).

Lock references are encoded as strings so the summaries stay JSON-round-
trippable for the incremental cache:

* ``local:<Class>.<attr>`` / ``local:<NAME>`` — defined in this module,
* ``ext:<dotted.origin>`` — an imported name, resolved in phase 2,
* ``attr:<attr>`` — an attribute whose receiver we cannot type; matched
  in phase 2 only when exactly one known lock has that attribute name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .core import Finding, ModuleInfo

#: Factories that create a *thread* lock (asyncio locks are out of scope:
#: they cooperate with the event loop instead of blocking it).
_LOCK_FACTORIES = {"threading.Lock": "Lock", "threading.RLock": "RLock"}

#: A Condition is a lock of its underlying lock's kind (an RLock by default).
_CONDITION_FACTORY = "threading.Condition"

_QUEUE_FACTORIES = {
    "queue.Queue",
    "queue.SimpleQueue",
    "queue.LifoQueue",
    "queue.PriorityQueue",
    "multiprocessing.Queue",
    "multiprocessing.JoinableQueue",
}


@dataclass
class FunctionSummary:
    """One function's lock-relevant events, JSON-serializable."""

    qualname: str
    line: int
    is_async: bool
    #: (lock ref, line, locks held at that point)
    acquires: list[tuple[str, int, tuple[str, ...]]] = field(default_factory=list)
    #: (callee ref, line, locks held) — recorded only while locks are held
    calls: list[tuple[str, int, tuple[str, ...]]] = field(default_factory=list)
    #: (blocking-op description, line, locks held) — always recorded so a
    #: caller holding a lock can see one call deep
    blocking: list[tuple[str, int, tuple[str, ...]]] = field(default_factory=list)
    #: (line, locks held) — recorded only while locks are held
    awaits: list[tuple[int, tuple[str, ...]]] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "is_async": self.is_async,
            "acquires": [[r, ln, list(h)] for r, ln, h in self.acquires],
            "calls": [[r, ln, list(h)] for r, ln, h in self.calls],
            "blocking": [[r, ln, list(h)] for r, ln, h in self.blocking],
            "awaits": [[ln, list(h)] for ln, h in self.awaits],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionSummary":
        return cls(
            qualname=str(d["qualname"]),
            line=int(d["line"]),
            is_async=bool(d["is_async"]),
            acquires=[(str(r), int(ln), tuple(h)) for r, ln, h in d["acquires"]],
            calls=[(str(r), int(ln), tuple(h)) for r, ln, h in d["calls"]],
            blocking=[(str(r), int(ln), tuple(h)) for r, ln, h in d["blocking"]],
            awaits=[(int(ln), tuple(h)) for ln, h in d["awaits"]],
        )


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve(dotted: str | None, aliases: dict[str, str]) -> str | None:
    if dotted is None:
        return None
    first, _, rest = dotted.partition(".")
    origin = aliases.get(first, first)
    return f"{origin}.{rest}" if rest else origin


def _lock_factory_kind(value: ast.expr, aliases: dict[str, str]) -> str | None:
    """``"Lock"``/``"RLock"`` when ``value`` constructs a threading lock.

    ``threading.Condition(lock)`` takes the kind of ``lock`` when that is a
    lock factory call, and is an ``RLock`` otherwise (its default).
    """
    if not isinstance(value, ast.Call):
        return None
    resolved = _resolve(_dotted(value.func), aliases)
    if resolved == _CONDITION_FACTORY:
        inner = value.args[0] if value.args else None
        for kw in value.keywords:
            if kw.arg == "lock":
                inner = kw.value
        kind = _lock_factory_kind(inner, aliases) if inner is not None else None
        return kind or "RLock"
    return _LOCK_FACTORIES.get(resolved or "")


def _is_queue_factory(value: ast.expr, aliases: dict[str, str]) -> bool:
    for sub in ast.walk(value):
        if isinstance(sub, ast.Call):
            resolved = _resolve(_dotted(sub.func), aliases)
            if resolved in _QUEUE_FACTORIES:
                return True
    return False


class _ClassIndex:
    """Per-class attribute typing: lock attrs (with kind) and queue attrs."""

    def __init__(self) -> None:
        self.lock_attrs: dict[str, dict[str, str]] = {}  # class -> attr -> kind
        self.queue_attrs: dict[str, set[str]] = {}  # class -> attrs


def _index_classes(tree: ast.Module, aliases: dict[str, str]) -> _ClassIndex:
    idx = _ClassIndex()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks = idx.lock_attrs.setdefault(cls.name, {})
        queues = idx.queue_attrs.setdefault(cls.name, set())
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    kind = _lock_factory_kind(node.value, aliases)
                    if kind is not None:
                        locks[target.attr] = kind
                    elif _is_queue_factory(node.value, aliases):
                        queues.add(target.attr)
    return idx


def _module_locks(tree: ast.Module, aliases: dict[str, str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                kind = _lock_factory_kind(node.value, aliases)
                if kind is not None:
                    out[target.id] = kind
    return out


def extract_lock_info(
    tree: ast.Module, aliases: dict[str, str]
) -> tuple[dict[str, str], list[FunctionSummary]]:
    """(lock definitions, per-function summaries) for one module."""
    idx = _index_classes(tree, aliases)
    lock_defs = dict(_module_locks(tree, aliases))
    for cls_name, attrs in idx.lock_attrs.items():
        for attr, kind in attrs.items():
            lock_defs[f"{cls_name}.{attr}"] = kind

    summaries: list[FunctionSummary] = []

    def visit(body: list[ast.stmt], cls_name: str | None, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                summaries.append(
                    _scan_function(node, cls_name, lock_defs, idx, aliases, prefix)
                )
                # nested defs inside functions are rare and execute later;
                # they are scanned as part of their own lexical walk below
                visit(node.body, cls_name, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try)):
                visit(node.body, cls_name, prefix)
                visit(getattr(node, "orelse", []), cls_name, prefix)
                visit(getattr(node, "finalbody", []), cls_name, prefix)

    visit(tree.body, None, "")
    return lock_defs, summaries


def _scan_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    cls_name: str | None,
    lock_defs: dict[str, str],
    idx: _ClassIndex,
    aliases: dict[str, str],
    prefix: str,
) -> FunctionSummary:
    summary = FunctionSummary(
        qualname=f"{prefix}{fn.name}", line=fn.lineno, is_async=isinstance(fn, ast.AsyncFunctionDef)
    )
    class_locks = idx.lock_attrs.get(cls_name or "", {})
    queue_attrs = idx.queue_attrs.get(cls_name or "", set())

    # one-level local aliases for queue receivers: q = self._queues[shard]
    local_queues: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                for sub in ast.walk(node.value):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and sub.attr in queue_attrs
                    ):
                        local_queues.add(target.id)

    def lock_ref(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            if expr.id in lock_defs:
                return f"local:{expr.id}"
            if expr.id in aliases and "lock" in expr.id.lower():
                return f"ext:{aliases[expr.id]}"
            return None
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                if cls_name is not None and expr.attr in class_locks:
                    return f"local:{cls_name}.{expr.attr}"
                if "lock" in expr.attr.lower():
                    return f"attr:{expr.attr}"
                return None
            if "lock" in expr.attr.lower():
                return f"attr:{expr.attr}"
        return None

    def is_queue_receiver(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in local_queues
        for sub in ast.walk(expr):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and sub.attr in queue_attrs
            ):
                return True
        return False

    def classify_blocking(call: ast.Call, awaited: bool) -> str | None:
        func = call.func
        resolved = _resolve(_dotted(func), aliases)
        if resolved == "time.sleep":
            return "time.sleep()"
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        if awaited:
            return None  # async primitives cooperate with the loop
        has_timeout = any(kw.arg == "timeout" for kw in call.keywords)
        if attr == "join" and (not call.args or has_timeout):
            # str.join always takes exactly one positional and no timeout
            if not isinstance(func.value, ast.Constant):
                return "thread/process `.join()`"
        if attr == "get" and is_queue_receiver(func.value):
            return "queue `.get()`"
        if attr in {"map", "map_ordered"} and is_executor_receiver(func.value):
            return f"executor `.{attr}()` round-trip"
        if attr == "result" and not call.args and not has_timeout:
            return "future `.result()`"
        if attr == "prewarm":
            return "pool `.prewarm()` round-trip"
        if attr == "wait" and not call.args:
            return "`.wait()`"
        if attr == "wait_for" and resolved != "asyncio.wait_for":
            return "`.wait_for()`"
        if attr == "shutdown":
            return "executor `.shutdown()`"
        return None

    def is_executor_receiver(expr: ast.expr) -> bool:
        name = None
        if isinstance(expr, ast.Name):
            name = expr.id
        elif isinstance(expr, ast.Attribute):
            name = expr.attr
        elif isinstance(expr, ast.Call):
            return is_executor_receiver(expr.func)
        if name is None:
            return False
        lowered = name.lower().lstrip("_")
        return any(k in lowered for k in ("pool", "executor", "ex", "lease"))

    def callee_ref(call: ast.Call) -> str | None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return f"self:{cls_name}.{func.attr}" if cls_name else None
        dotted = _dotted(func)
        if dotted is not None:
            resolved = _resolve(dotted, aliases)
            return f"name:{resolved}"
        if isinstance(func, ast.Attribute):
            return f"meth:{func.attr}"
        return None

    awaited_calls: set[int] = {
        id(n.value) for n in ast.walk(fn) if isinstance(n, ast.Await)
    }

    def held_while_blocked(call: ast.Call, held: tuple[str, ...]) -> tuple[str, ...]:
        """Locks still held during a blocking call: a Condition's
        ``.wait()`` / ``.wait_for()`` releases that Condition."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in {"wait", "wait_for"}:
            own = lock_ref(func.value)
            if own is not None:
                return tuple(h for h in held if h != own)
        return held

    def scan_expr(node: ast.AST, held: tuple[str, ...]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(sub, ast.Await) and held:
                summary.awaits.append((sub.lineno, held))
            if not isinstance(sub, ast.Call):
                continue
            kind = classify_blocking(sub, id(sub) in awaited_calls)
            if kind is not None:
                summary.blocking.append((kind, sub.lineno, held_while_blocked(sub, held)))
            if (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "acquire"
                and (ref := lock_ref(sub.func.value)) is not None
            ):
                summary.acquires.append((ref, sub.lineno, held))
            elif held and kind is None:
                ref = callee_ref(sub)
                if ref is not None:
                    summary.calls.append((ref, sub.lineno, held))

    def visit_block(stmts: list[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # scanned as their own summaries
            if isinstance(stmt, ast.With):
                inner = held
                for item in stmt.items:
                    scan_expr(item.context_expr, inner)
                    ref = lock_ref(item.context_expr)
                    if ref is not None:
                        summary.acquires.append((ref, item.context_expr.lineno, inner))
                        inner = inner + (ref,)
                visit_block(stmt.body, inner)
            elif isinstance(stmt, ast.AsyncWith):
                for item in stmt.items:
                    scan_expr(item.context_expr, held)
                visit_block(stmt.body, held)
            elif isinstance(stmt, (ast.If, ast.While)):
                scan_expr(stmt.test, held)
                visit_block(stmt.body, held)
                visit_block(stmt.orelse, held)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                scan_expr(stmt.iter, held)
                visit_block(stmt.body, held)
                visit_block(stmt.orelse, held)
            elif isinstance(stmt, ast.Try):
                visit_block(stmt.body, held)
                for handler in stmt.handlers:
                    visit_block(handler.body, held)
                visit_block(stmt.orelse, held)
                visit_block(stmt.finalbody, held)
            else:
                scan_expr(stmt, held)

    visit_block(fn.body, ())
    return summary


# -- phase 2: the whole-program rule -------------------------------------------


def rule_r9_lock_order(infos: dict[str, "ModuleInfo"]) -> list["Finding"]:
    """Cycles, re-entry, blocking-under-lock, and await-under-lock findings."""
    from .core import Finding

    # global lock table: "<module>:<local key>" -> kind
    defs: dict[str, str] = {}
    by_attr: dict[str, list[str]] = {}
    for mi in infos.values():
        for local, kind in mi.lock_defs.items():
            gkey = f"{mi.module}:{local}"
            defs[gkey] = kind
            attr = local.rsplit(".", 1)[-1]
            by_attr.setdefault(attr, []).append(gkey)

    def resolve(ref: str, mi: "ModuleInfo") -> str | None:
        scheme, _, rest = ref.partition(":")
        if scheme == "local":
            return f"{mi.module}:{rest}" if rest in mi.lock_defs else None
        if scheme == "ext":
            mod, _, name = rest.rpartition(".")
            candidate = f"{mod}:{name}"
            return candidate if candidate in defs else None
        if scheme == "attr":
            candidates = by_attr.get(rest, [])
            return candidates[0] if len(candidates) == 1 else None
        return None

    # function table for one-level call resolution
    funcs: dict[tuple[str, str], tuple["ModuleInfo", FunctionSummary]] = {}
    by_method: dict[str, list[tuple[str, str]]] = {}
    for mi in infos.values():
        for fs in mi.functions:
            funcs[(mi.module, fs.qualname)] = (mi, fs)
            if "." in fs.qualname:
                by_method.setdefault(fs.qualname.rsplit(".", 1)[-1], []).append(
                    (mi.module, fs.qualname)
                )

    def resolve_callee(ref: str, mi: "ModuleInfo"):
        scheme, _, rest = ref.partition(":")
        if scheme == "self":
            return funcs.get((mi.module, rest))
        if scheme == "name":
            if (mi.module, rest) in funcs:  # module-local function
                return funcs[(mi.module, rest)]
            mod, _, name = rest.rpartition(".")
            return funcs.get((mod, name))
        if scheme == "meth":
            candidates = by_method.get(rest, [])
            return funcs[candidates[0]] if len(candidates) == 1 else None
        return None

    def pretty(gkey: str) -> str:
        mod, _, local = gkey.partition(":")
        return f"{mod}.{local}"

    findings: list[Finding] = []
    edges: dict[tuple[str, str], tuple[str, int, str]] = {}

    def record_edge(a: str, b: str, rel: str, line: int, via: str) -> None:
        if a == b:
            if defs.get(a) == "Lock":
                findings.append(
                    Finding(
                        rel,
                        line,
                        "R9",
                        f"non-reentrant `threading.Lock` `{pretty(a)}` may be "
                        f"re-acquired while already held{via} — deadlock; use an "
                        "RLock or restructure so the lock is taken once",
                    )
                )
            return
        edges.setdefault((a, b), (rel, line, via))

    for mi in infos.values():
        for fs in mi.functions:
            for ref, line, held in fs.acquires:
                b = resolve(ref, mi)
                if b is None:
                    continue
                for h in held:
                    a = resolve(h, mi)
                    if a is not None:
                        record_edge(a, b, mi.rel, line, "")
            for kind, line, held in fs.blocking:
                for h in held:
                    a = resolve(h, mi)
                    if a is not None:
                        findings.append(
                            Finding(
                                mi.rel,
                                line,
                                "R9",
                                f"blocking {kind} while holding `{pretty(a)}` — "
                                "every other thread contending for the lock stalls "
                                "behind this wait; move the blocking work outside "
                                "the locked region",
                            )
                        )
            for line, held in fs.awaits:
                for h in held:
                    a = resolve(h, mi)
                    if a is not None:
                        findings.append(
                            Finding(
                                mi.rel,
                                line,
                                "R9",
                                f"`await` while holding threading lock `{pretty(a)}` "
                                "— the event loop parks on a thread lock, stalling "
                                "every coroutine; release the lock before awaiting "
                                "or use asyncio.Lock",
                            )
                        )
            for ref, line, held in fs.calls:
                resolved_held = [a for h in held if (a := resolve(h, mi)) is not None]
                if not resolved_held:
                    continue
                target = resolve_callee(ref, mi)
                if target is None:
                    continue
                tmi, tfs = target
                via = f" (via `{tfs.qualname}`, {tmi.rel}:{tfs.line})"
                for ref2, line2, _held2 in tfs.acquires:
                    b = resolve(ref2, tmi)
                    if b is None:
                        continue
                    for a in resolved_held:
                        record_edge(a, b, mi.rel, line, via)
                for kind, line2, _held2 in tfs.blocking:
                    for a in resolved_held:
                        findings.append(
                            Finding(
                                mi.rel,
                                line,
                                "R9",
                                f"blocking {kind} at {tmi.rel}:{line2} runs while "
                                f"holding `{pretty(a)}`{via} — move the blocking "
                                "work outside the locked region",
                            )
                        )

    findings.extend(_cycle_findings(edges))
    return findings


def _cycle_findings(edges: dict[tuple[str, str], tuple[str, int, str]]) -> list["Finding"]:
    """One finding per lock-order cycle (strongly connected component)."""
    from .core import Finding

    adj: dict[str, set[str]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set())

    # Tarjan's SCC, iterative
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(adj[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)

    for v in sorted(adj):
        if v not in index:
            strongconnect(v)

    findings: list[Finding] = []
    for comp in sccs:
        if len(comp) < 2:
            continue
        members = sorted(comp)
        comp_set = set(comp)
        sites = sorted(
            (rel, line, a, b, via)
            for (a, b), (rel, line, via) in edges.items()
            if a in comp_set and b in comp_set
        )
        where = "; ".join(
            f"`{a.partition(':')[0]}.{a.partition(':')[2]}` -> "
            f"`{b.partition(':')[0]}.{b.partition(':')[2]}` at {rel}:{line}{via}"
            for rel, line, a, b, via in sites
        )
        rel0, line0 = sites[0][0], sites[0][1]
        findings.append(
            Finding(
                rel0,
                line0,
                "R9",
                f"lock-order cycle between {', '.join('`' + m.replace(':', '.') + '`' for m in members)}"
                f" — two threads taking them in opposite orders deadlock ({where}); "
                "pick one global order or merge the critical sections",
            )
        )
    return findings
