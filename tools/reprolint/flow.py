"""R2-flow: path-sensitive resource-lifecycle analysis (CFG-lite).

Replaces the old lexical R2 check.  A *resource acquisition* — a pool
lease from ``get_executor()`` / ``<manager>.acquire()``, or an obs
``tracer.span`` context — must be provably paired with its release on
**every** path out of the acquiring scope.  The analysis walks the
statement structure from the acquisition onward and accepts exactly these
dispositions:

* the acquisition is a ``with``-item context expression,
* ownership escapes immediately (the value is passed to a call, returned,
  yielded, or stored into an attribute/subscript/container — transfer of
  the release obligation, e.g. ``stack.enter_context(...)`` or a factory
  ``return cls(get_executor(workers), ...)``),
* the bound name reaches a release (``release``/``close``/``unlink``/
  ``shutdown``), a ``with name`` block, or an ownership escape, with no
  unprotected early ``return``, ``raise``, or may-raise statement in
  between.  A ``try`` whose ``finally`` releases the name protects every
  path; a handler that releases it protects the exception paths.

Unlike the lexical rule this catches leaks on early-return/raise paths,
leaks in the window between acquisition and the protecting ``try``, and
rebinding a still-held name — while no longer flagging ownership-transfer
factories that needed ``# reprolint: disable=R2`` pragmas before.

Deliberately strict (matching the repo's release-on-error contract): any
statement that can raise while a resource is held unprotected counts as a
leak path, because an exception there has no release site.  Attribute
access on the result without keeping the owner (``return lease.workers``)
is a leak — the lease can never be released.
"""

from __future__ import annotations

import ast

from .core import Finding, Module
from .rules import dotted_name, import_aliases, parent_map

RELEASE_METHODS = {"release", "close", "unlink", "shutdown"}
_ACQUIRE_FUNCS = {"get_executor"}

_TRANSPARENT = (ast.IfExp, ast.Tuple, ast.List, ast.Set, ast.Starred, ast.Await, ast.NamedExpr)


def _terminal_name(expr: ast.AST) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Call):
        return _terminal_name(expr.func)
    return None


def acquisition_kind(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """Resource category of a call, or None when it acquires nothing."""
    func = call.func
    if isinstance(func, ast.Attribute):
        recv = func.value
        term = (_terminal_name(recv) or "").lower()
        if func.attr == "acquire" and ("manager" in term or term.endswith("pool")):
            return "pool lease"
        if func.attr == "span" and ("tracer" in term):
            return "obs span"
    name = dotted_name(func)
    if name is not None:
        first, _, rest = name.partition(".")
        resolved = aliases.get(first, first) + (f".{rest}" if rest else "")
        if resolved.rsplit(".", 1)[-1] in _ACQUIRE_FUNCS:
            return "pool lease"
    return None


def _own_nodes(stmts: list[ast.stmt]):
    """Walk nodes without descending into nested function/class bodies."""
    stack: list[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


def rule_r2_flow(module: Module) -> list[Finding]:
    """Flag every resource acquisition that can leak on some path."""
    aliases = import_aliases(module.tree)
    parents = parent_map(module.tree)
    findings: list[Finding] = []

    scopes: list[list[ast.stmt]] = [module.tree.body]
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node.body)

    for body in scopes:
        _check_scope(module, body, aliases, parents, findings)
    return sorted(set(findings))


def _check_scope(
    module: Module,
    body: list[ast.stmt],
    aliases: dict[str, str],
    parents: dict[ast.AST, ast.AST],
    findings: list[Finding],
) -> None:
    for node in _own_nodes(body):
        if not isinstance(node, ast.Call):
            continue
        kind = acquisition_kind(node, aliases)
        if kind is None:
            continue
        disposition, name, stmt = _disposition(node, parents)
        if disposition == "ok":
            continue
        if disposition == "leak":
            findings.append(_leak(module, node.lineno, kind, "the result is discarded"))
            continue
        # disposition == "track": flow-check the bound name from stmt onward
        assert name is not None and stmt is not None
        tracker = _Tracker(module, name, kind, node.lineno, findings)
        path = _statement_path(stmt, body, parents)
        if path is None:
            continue  # acquisition outside this scope's direct structure
        status = tracker.run_from(body, path, _Ctx())
        if status == "held" and not tracker.reported:
            tracker.report(
                stmt.lineno, "the scope can end without releasing it"
            )


def _disposition(
    call: ast.Call, parents: dict[ast.AST, ast.AST]
) -> tuple[str, str | None, ast.stmt | None]:
    """How an acquisition call's value is used: 'ok' | 'leak' | ('track', name)."""
    cur: ast.AST = call
    while True:
        parent = parents.get(cur)
        if parent is None:
            return "leak", None, None
        if isinstance(parent, ast.withitem):
            return "ok", None, None  # context manager pairs enter/exit
        if isinstance(parent, ast.Call):
            if cur is not parent.func:
                return "ok", None, None  # ownership passed to the callee
            return "leak", None, None
        if isinstance(parent, ast.keyword):
            return "ok", None, None
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return "ok", None, None  # ownership returned to the caller
        if isinstance(parent, (ast.Attribute, ast.Subscript)):
            return "leak", None, None  # value derived, owner dropped
        if isinstance(parent, ast.Dict):
            cur = parent
            continue
        if isinstance(parent, _TRANSPARENT):
            cur = parent
            continue
        if isinstance(parent, ast.Assign):
            if len(parent.targets) == 1 and isinstance(parent.targets[0], ast.Name):
                return "track", parent.targets[0].id, parent
            return "ok", None, None  # stored into an attribute/subscript/tuple
        if isinstance(parent, ast.AnnAssign):
            if isinstance(parent.target, ast.Name):
                return "track", parent.target.id, parent
            return "ok", None, None
        if isinstance(parent, ast.Expr):
            return "leak", None, None  # bare expression statement: discarded
        if isinstance(parent, ast.stmt):
            return "leak", None, None
        cur = parent


def _statement_path(
    stmt: ast.stmt, scope_body: list[ast.stmt], parents: dict[ast.AST, ast.AST]
) -> list[tuple[str, int]] | None:
    """Navigation path [(field, index), ...] from scope_body down to stmt."""
    chain: list[tuple[ast.AST, str, int]] = []
    cur: ast.AST = stmt
    while True:
        parent = parents.get(cur)
        if parent is None:
            return None
        placed = False
        for field in ("body", "orelse", "finalbody"):
            seq = getattr(parent, field, None)
            if isinstance(seq, list) and cur in seq:
                chain.append((parent, field, seq.index(cur)))
                placed = True
                break
        if not placed:
            if isinstance(parent, ast.ExceptHandler):
                chain.append((parent, "body", parent.body.index(cur)))  # type: ignore[arg-type]
            else:
                return None
        if getattr(parent, "body", None) is scope_body or (
            isinstance(parent, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body is scope_body
        ):
            if chain and chain[-1][0] is parent:
                break
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            # reached a different scope boundary without matching: bail
            if parent.body is not scope_body:
                return None
            break
        cur = parent
    # chain is innermost-first; the path consumed by the tracker is outermost-first
    path: list[tuple[str, int]] = []
    for _node, field, idx in reversed(chain):
        path.append((field, idx))
    return path


class _Ctx:
    """Protection context: is the current region covered by a releasing try?"""

    __slots__ = ("protected_raise",)

    def __init__(self, protected_raise: bool = False) -> None:
        self.protected_raise = protected_raise

    def with_raise_protection(self) -> "_Ctx":
        return _Ctx(protected_raise=True)


class _Tracker:
    """Follows one bound resource name through the statement structure."""

    def __init__(
        self, module: Module, name: str, kind: str, acq_line: int, findings: list[Finding]
    ) -> None:
        self.module = module
        self.name = name
        self.kind = kind
        self.acq_line = acq_line
        self.findings = findings
        self.reported = False

    def report(self, line: int, why: str) -> None:
        if self.reported:
            return
        self.reported = True
        self.findings.append(_leak(self.module, self.acq_line, self.kind, f"{why} (line {line})"))

    # -- name effects ------------------------------------------------------------

    def _releases(self, node: ast.AST) -> bool:
        for sub in _own_nodes([node] if isinstance(node, ast.stmt) else [ast.Expr(node)]):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in RELEASE_METHODS
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == self.name
            ):
                return True
        return False

    def _escapes(self, stmt: ast.stmt) -> bool:
        """The name appears in an ownership-transferring position."""
        local_parents = {
            child: parent for parent in ast.walk(stmt) for child in ast.iter_child_nodes(parent)
        }
        for sub in _own_nodes([stmt]):
            if not (
                isinstance(sub, ast.Name)
                and sub.id == self.name
                and isinstance(sub.ctx, ast.Load)
            ):
                continue
            cur: ast.AST = sub
            while True:
                parent = local_parents.get(cur)
                if parent is None:
                    break
                if isinstance(parent, ast.Call) and cur is not parent.func:
                    return True
                if isinstance(parent, ast.keyword):
                    return True
                if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                    return True
                if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    if cur is getattr(parent, "value", None):
                        return True
                    break
                if isinstance(parent, ast.Dict) or isinstance(parent, _TRANSPARENT):
                    cur = parent
                    continue
                break
        return False

    def _referenced_in_nested_def(self, stmt: ast.stmt) -> bool:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and sub.id == self.name:
                        return True
        return False

    def _rebinds(self, stmt: ast.stmt) -> bool:
        targets: list[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            targets = [stmt.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and sub.id == self.name:
                    return True
        return False

    def _may_raise_expr(self, expr: ast.expr | None) -> bool:
        if expr is None:
            return False
        for sub in _own_nodes([ast.Expr(expr)]):
            if isinstance(sub, ast.Call):
                if (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in RELEASE_METHODS
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == self.name
                ):
                    continue
                return True
        return False

    def _may_raise(self, stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Assert):
            return True
        for sub in _own_nodes([stmt]):
            if isinstance(sub, ast.Call):
                if (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in RELEASE_METHODS
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == self.name
                ):
                    continue
                return True
        return False

    # -- interpreter ---------------------------------------------------------------

    def run_from(self, stmts: list[ast.stmt], path: list[tuple[str, int]], ctx: _Ctx) -> str:
        """Execute from the acquisition statement onward; returns end status."""
        field, i = path[0]
        del field  # top-level path is always within ``stmts`` directly
        if len(path) == 1:
            status = "held"
        else:
            status = self._descend(stmts[i], path[1:], ctx)
        if status == "held":
            status = self.exec_block(stmts, i + 1, ctx)
        return status

    def _descend(self, stmt: ast.stmt, path: list[tuple[str, int]], ctx: _Ctx) -> str:
        field, idx = path[0]
        if isinstance(stmt, ast.Try):
            if any(self._releases(s) for s in stmt.finalbody):
                return "closed"  # finally releases on every path out
            handler_protects = any(
                self._releases(s) for h in stmt.handlers for s in h.body
            )
            if field == "body":
                inner_ctx = ctx.with_raise_protection() if handler_protects else ctx
                sub = stmt.body
            elif field == "orelse":
                sub = stmt.orelse
                inner_ctx = ctx
            elif field == "finalbody":
                sub = stmt.finalbody
                inner_ctx = ctx
            else:
                return "held"
            status = self._run_sub(sub, path, inner_ctx)
            if status == "held" and field == "body":
                if stmt.orelse:
                    status = self.exec_block(stmt.orelse, 0, ctx)
                if status == "held" and stmt.finalbody:
                    status = self.exec_block(stmt.finalbody, 0, ctx)
            return status
        if isinstance(stmt, ast.ExceptHandler):
            return self._run_sub(stmt.body, path, ctx)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            status = self._run_sub(getattr(stmt, field), path, ctx)
            if status == "held":
                # the next iteration re-executes the acquisition, leaking this one
                self.report(stmt.lineno, "the loop can iterate again while it is still held")
                return "closed"
            return status
        sub = getattr(stmt, field, None)
        if isinstance(sub, list):
            return self._run_sub(sub, path, ctx)
        return "held"

    def _run_sub(self, stmts: list[ast.stmt], path: list[tuple[str, int]], ctx: _Ctx) -> str:
        _field, i = path[0]
        if len(path) == 1:
            status = "held"
        else:
            status = self._descend(stmts[i], path[1:], ctx)
        if status == "held":
            status = self.exec_block(stmts, i + 1, ctx)
        return status

    def exec_block(self, stmts: list[ast.stmt], start: int, ctx: _Ctx) -> str:
        for stmt in stmts[start:]:
            status = self.exec_stmt(stmt, ctx)
            if status != "held":
                return status
        return "held"

    def exec_stmt(self, stmt: ast.stmt, ctx: _Ctx) -> str:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # a nested scope capturing the name may release it later
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and sub.id == self.name:
                    return "closed"
            return "held"

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == self.name:
                    return "closed"  # ``with name:`` releases on exit
                if self._may_raise_expr(expr) and not ctx.protected_raise:
                    self.report(expr.lineno, "a `with` item can raise while it is held")
                    return "closed"
            return self.exec_block(stmt.body, 0, ctx)

        if isinstance(stmt, ast.If):
            if self._may_raise_expr(stmt.test) and not ctx.protected_raise:
                self.report(stmt.lineno, "the `if` test can raise while it is held")
                return "closed"
            s1 = self.exec_block(stmt.body, 0, ctx)
            s2 = self.exec_block(stmt.orelse, 0, ctx)
            if "held" in (s1, s2):
                return "held"
            if s1 == s2 == "exited":
                return "exited"
            return "closed"

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            if self._may_raise_expr(header) and not ctx.protected_raise:
                self.report(stmt.lineno, "the loop header can raise while it is held")
                return "closed"
            self.exec_block(stmt.body, 0, ctx)  # findings inside count; status joins to held
            self.exec_block(stmt.orelse, 0, ctx)
            return "held" if not self.reported else "closed"

        if isinstance(stmt, ast.Try):
            if any(self._releases(s) for s in stmt.finalbody):
                return "closed"  # every path through this try releases
            handler_protects = any(self._releases(s) for h in stmt.handlers for s in h.body)
            body_ctx = ctx.with_raise_protection() if handler_protects else ctx
            status = self.exec_block(stmt.body, 0, body_ctx)
            if status == "held" and stmt.orelse:
                status = self.exec_block(stmt.orelse, 0, ctx)
            if status == "held" and stmt.finalbody:
                status = self.exec_block(stmt.finalbody, 0, ctx)
            return status

        if isinstance(stmt, ast.Return):
            if stmt.value is not None and self._escapes(stmt):
                return "exited"
            if not self.reported:
                self.report(stmt.lineno, "an early `return` drops it unreleased")
            return "exited"

        if isinstance(stmt, ast.Raise):
            if not ctx.protected_raise:
                self.report(stmt.lineno, "a `raise` drops it unreleased")
            return "exited"

        # leaf statements
        if self._releases(stmt):
            return "closed"
        if self._escapes(stmt):
            return "closed"
        if self._referenced_in_nested_def(stmt):
            return "closed"
        if self._rebinds(stmt):
            self.report(stmt.lineno, "the name is rebound while still held")
            return "closed"
        if self._may_raise(stmt) and not ctx.protected_raise:
            self.report(stmt.lineno, "a statement can raise while it is held")
            return "closed"
        return "held"


def _leak(module: Module, line: int, kind: str, why: str) -> Finding:
    return Finding(
        module.rel,
        line,
        "R2",
        f"{kind} can leak: {why} — pair the acquisition with a `with` block, "
        "a protecting try/finally (or a handler that releases and re-raises), "
        "or transfer ownership before anything can fail",
    )
