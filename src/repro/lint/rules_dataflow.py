"""The dataflow rule set (D7–D10): service-path invariants over CFGs.

PR 5's ``repro.serve`` front-end introduced a bug class the syntactic
rules cannot see: a blocking call one helper away from an ``async def``,
bytes that are digest-verified on one branch but not the other, a
``threading.Lock`` still held at an ``await``, a resource closed on the
happy path and leaked on the early return.  These rules run the
:mod:`repro.lint.cfg` / :mod:`repro.lint.dataflow` /
:mod:`repro.lint.callgraph` machinery under the same engine, scopes and
pragmas as D1–D6.

* **D7** no-blocking-call-in-async — nothing on the event loop may call
  (directly or through the call graph) a primitive that parks the
  thread; codec work belongs on the executor (§4.1's latency story
  depends on the gate, not the codec, shaping the backlog);
* **D8** verified-byte-taint — bytes read from storage are tainted until
  a digest-verification call touches them; a tainted value reaching a
  socket write is the "wrong byte served" the paper promises never
  happens;
* **D9** no-await-while-locked — a ``threading.Lock`` held across an
  ``await`` stalls every connection on the loop (and lock-order
  inversion across functions deadlocks two of them);
* **D10** resource-lifecycle — an executor/socket/``ContainerReader``/
  file handle acquired in a function must be released on *every* CFG
  path out of it (spans stay D5's business: a span's lifecycle rule is
  "be a ``with``", which is already enforced there).
"""

import ast
from fnmatch import fnmatchcase
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import (
    blocking_closure,
    build_summaries,
    resolve_callee,
)
from repro.lint.cfg import (
    ITER,
    STMT,
    WITH_ENTER,
    WITH_EXIT,
    CFGNode,
    build_cfg,
    function_defs,
)
from repro.lint.dataflow import exit_state, solve, visit
from repro.lint.engine import Finding, ModuleInfo, dotted_name
from repro.lint.rules import Rule, register


def _target_names(target: ast.AST) -> Iterator[str]:
    """Bare names bound by an assignment/loop/with target."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _bare_names(expr: Optional[ast.AST]) -> Iterator[str]:
    """Names appearing *as themselves* (not in sub-expressions) — the
    escape test for returns/yields: ``return f`` transfers ownership,
    ``return f.read()`` does not."""
    if isinstance(expr, ast.Name):
        yield expr.id
    elif isinstance(expr, (ast.Tuple, ast.List)):
        for elt in expr.elts:
            yield from _bare_names(elt)


# --- D7 -------------------------------------------------------------------


@register
class BlockingCallInAsync(Rule):
    """No call reachable from an ``async def`` body may park the thread —
    the executor exists precisely so the event loop never runs the codec."""

    id = "D7"
    name = "no-blocking-call-in-async"
    summary = ("`async def` bodies in the serve path must not call blocking "
               "primitives (`zlib`/codec entry points, `hashlib`, file I/O, "
               "`time.sleep`, non-awaited `.acquire()`/`.result()`) — "
               "directly or through any call-graph-reachable sync helper — "
               "unless the call is awaited or routed through "
               "`loop.run_in_executor`; one blocking call stalls every "
               "connection on the loop")
    paper_ref = "§4.1 (decompression in the read path), §5.6 (latency)"
    project_wide = True  # needs the whole tree to build call summaries

    #: Only async functions in these modules are judged; the rest of the
    #: D7 scope ("repro.*") exists to summarise potential callees.
    _ASYNC_SCOPES = ("repro.serve.*",)

    def check_project(self, modules, config):
        info_by_module: Dict[str, ModuleInfo] = {m.module: m for m in modules}
        summaries = build_summaries(modules)
        by_name: Dict[str, List[str]] = {}
        for key, summary in summaries.items():
            by_name.setdefault(summary.name, []).append(key)
        for keys in by_name.values():
            keys.sort()
        reasons = blocking_closure(summaries)

        for key, summary in sorted(summaries.items()):
            if not summary.is_async:
                continue
            info = info_by_module[summary.module]
            if info.in_package and not any(
                    fnmatchcase(summary.module, pattern)
                    for pattern in self._ASYNC_SCOPES):
                continue
            for site in summary.calls:
                label = ast.unparse(site.node.func)
                if site.blocking is not None:
                    yield self.finding(
                        info, site.node,
                        f"blocking call on the event loop: {site.blocking}; "
                        "await it through `loop.run_in_executor(...)`")
                    continue
                callee = resolve_callee(site, summary, summaries, by_name)
                if callee is not None and callee in reasons:
                    yield self.finding(
                        info, site.node,
                        f"`{label}(...)` reaches blocking work off the "
                        f"call graph: {reasons[callee]}; route it through "
                        "`loop.run_in_executor(...)`")


# --- D8 -------------------------------------------------------------------


@register
class VerifiedByteTaint(Rule):
    """Storage bytes are tainted until digest-verified; taint reaching a
    socket write is a wrong byte waiting to be served.  Verification on
    one branch does not sanitise the other — that is the point of running
    this over the CFG instead of the raw AST."""

    id = "D8"
    name = "verified-byte-taint"
    summary = ("bytes read out of the block store (`.payload` attributes) "
               "are tainted until they flow through a `verify*` call; "
               "passing a tainted value to a socket sink "
               "(`.write()`/`.sendall()`/`.send()`) is a finding — the "
               "never-serve-a-wrong-byte contract, enforced per CFG path")
    paper_ref = "abstract (never serves a wrong byte), §4.4 (verification)"

    _SOURCES = ("payload",)
    _SINKS = ("write", "sendall", "send")
    #: Calls through which taint flows; every *other* call is assumed to
    #: produce fresh (derived, non-servable) data — `len(payload)` or a
    #: parsed header is not the stored byte stream any more.
    _PROPAGATORS = ("bytes", "bytearray", "memoryview", "iter", "next",
                    "join", "run_in_executor")

    def check_module(self, info, config):
        for func in function_defs(info.tree):
            cfg = build_cfg(func)

            def transfer(node: CFGNode, state: FrozenSet[str],
                         ) -> FrozenSet[str]:
                out = set(state)
                stmt = node.stmt
                if node.kind == ITER:
                    self._mark(out, _target_names(stmt.target),
                               self._tainted(stmt.iter, state))
                elif node.kind == WITH_ENTER:
                    for item in stmt.items:
                        if item.optional_vars is not None:
                            self._mark(
                                out, _target_names(item.optional_vars),
                                self._tainted(item.context_expr, state))
                elif node.kind == STMT:
                    if isinstance(stmt, ast.Assign):
                        value_tainted = self._tainted(stmt.value, state)
                        for target in stmt.targets:
                            self._mark(out, _target_names(target),
                                       value_tainted)
                    elif (isinstance(stmt, ast.AnnAssign)
                            and stmt.value is not None):
                        self._mark(out, _target_names(stmt.target),
                                   self._tainted(stmt.value, state))
                    elif isinstance(stmt, ast.AugAssign) and isinstance(
                            stmt.target, ast.Name):
                        if self._tainted(stmt.value, state):
                            out.add(stmt.target.id)
                return frozenset(out)

            states = solve(cfg, transfer)
            findings: List[Finding] = []

            def report(node: CFGNode, state: FrozenSet[str]) -> None:
                for sub in node.walk_exprs():
                    if not (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in self._SINKS):
                        continue
                    values = [*sub.args,
                              *[kw.value for kw in sub.keywords]]
                    for value in values:
                        if self._tainted(value, state):
                            findings.append(self.finding(
                                info, sub,
                                f"unverified storage bytes reach socket "
                                f"sink `.{sub.func.attr}()` "
                                f"(`{ast.unparse(value)}` is tainted on at "
                                "least one path; verification on one "
                                "branch does not cover the others)"))
                            break

            visit(cfg, states, report)
            yield from findings

    @staticmethod
    def _mark(out: Set[str], names: Iterator[str], tainted: bool) -> None:
        for name in names:
            if tainted:
                out.add(name)
            else:
                out.discard(name)

    @classmethod
    def _tainted(cls, expr: ast.AST, state: FrozenSet[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in state
        if isinstance(expr, ast.Attribute):
            if expr.attr in cls._SOURCES:
                return True
            return cls._tainted(expr.value, state)
        if isinstance(expr, (ast.Subscript, ast.Starred, ast.Await)):
            return cls._tainted(expr.value, state)
        if isinstance(expr, ast.BinOp):
            return (cls._tainted(expr.left, state)
                    or cls._tainted(expr.right, state))
        if isinstance(expr, ast.IfExp):
            return (cls._tainted(expr.body, state)
                    or cls._tainted(expr.orelse, state))
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(cls._tainted(elt, state) for elt in expr.elts)
        if isinstance(expr, ast.Call):
            func = expr.func
            bare = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if bare is not None and bare.lstrip("_").startswith("verify"):
                return False  # the sanitiser: digest checked or raised
            if bare in cls._PROPAGATORS:
                return any(
                    cls._tainted(value, state)
                    for value in [*expr.args,
                                  *[kw.value for kw in expr.keywords]])
            return False  # other calls derive new data (len, headers, ...)
        return False


# --- D9 -------------------------------------------------------------------


@register
class AwaitWhileLocked(Rule):
    """A ``threading.Lock`` held across an ``await`` blocks the whole event
    loop, not just this coroutine — and inconsistent acquisition order
    across functions is a deadlock with a delay timer."""

    id = "D9"
    name = "no-await-while-locked"
    summary = ("no `await` may execute while a `threading` lock is held "
               "(acquired via `with <lock>:` or a non-awaited "
               "`.acquire()`) — the coroutine parks but keeps the lock, "
               "stalling every other task; additionally, two functions in "
               "one module must not acquire the same two locks in opposite "
               "orders")
    paper_ref = "§5.5 (concurrency discipline), §5.6 (tail latency)"

    def check_module(self, info, config):
        #: (first_token, second_token) -> (line, col, node) of acquisition.
        orders: Dict[Tuple[str, str], Tuple[int, int, ast.AST]] = {}
        for func in function_defs(info.tree):
            cfg = build_cfg(func)

            def transfer(node: CFGNode, state: FrozenSet[str],
                         ) -> FrozenSet[str]:
                out = set(state)
                if node.kind == WITH_ENTER and isinstance(node.stmt, ast.With):
                    out |= set(self._with_lock_tokens(node.stmt))
                elif node.kind == WITH_EXIT and isinstance(node.stmt, ast.With):
                    out -= set(self._with_lock_tokens(node.stmt))
                acquired, released = self._call_effects(node)
                out |= acquired
                out -= released
                return frozenset(out)

            states = solve(cfg, transfer)
            findings: List[Finding] = []

            def report(node: CFGNode, state: FrozenSet[str]) -> None:
                if state:
                    held = ", ".join(f"`{token}`" for token in sorted(state))
                    for sub in node.walk_exprs():
                        if isinstance(sub, ast.Await):
                            findings.append(self.finding(
                                info, sub,
                                f"`await` while holding {held}: the "
                                "coroutine suspends but the threading lock "
                                "stays locked, stalling the whole event "
                                "loop; release first or use an asyncio "
                                "primitive"))
                acquired_here: Set[str] = set()
                if node.kind == WITH_ENTER and isinstance(node.stmt, ast.With):
                    acquired_here |= set(self._with_lock_tokens(node.stmt))
                acquired_here |= self._call_effects(node)[0]
                for second in acquired_here:
                    for first in state:
                        if first != second and (first, second) not in orders:
                            site = node.stmt if node.stmt is not None else cfg.func
                            orders[(first, second)] = (
                                getattr(site, "lineno", 1),
                                getattr(site, "col_offset", 0), site)

            visit(cfg, states, report)
            yield from findings

        for (first, second), (line, col, site) in sorted(orders.items()):
            if first < second and (second, first) in orders:
                other = orders[(second, first)]
                other_line = other[0]
                later = other if (other[0], other[1]) > (line, col) \
                    else (line, col, site)
                yield self.finding(
                    info, later[2],
                    f"lock order inversion: `{first}` is acquired before "
                    f"`{second}` on line {line}, but `{second}` before "
                    f"`{first}` on line {other_line} — two threads taking "
                    "opposite orders deadlock")

    @staticmethod
    def _with_lock_tokens(stmt: ast.With) -> List[str]:
        tokens = []
        for item in stmt.items:
            text = ast.unparse(item.context_expr)
            low = text.lower()
            if "lock" in low and "asyncio" not in low:
                tokens.append(text)
        return tokens

    @staticmethod
    def _call_effects(node: CFGNode) -> Tuple[Set[str], Set[str]]:
        """Lock tokens acquired/released by bare ``.acquire()``/
        ``.release()`` calls in this node (awaited acquires — asyncio
        primitives — don't count)."""
        acquired: Set[str] = set()
        released: Set[str] = set()
        awaited = {id(sub.value) for sub in node.walk_exprs()
                   if isinstance(sub, ast.Await)}
        for sub in node.walk_exprs():
            if not (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)):
                continue
            receiver = ast.unparse(sub.func.value)
            if "lock" not in receiver.lower():
                continue
            if sub.func.attr == "acquire" and id(sub) not in awaited:
                acquired.add(receiver)
            elif sub.func.attr == "release":
                released.add(receiver)
        return acquired, released


# --- D10 ------------------------------------------------------------------


@register
class ResourceLifecycle(Rule):
    """Every resource a function acquires must be released on every CFG
    path out of it — the leak is always on the branch nobody tested."""

    id = "D10"
    name = "resource-lifecycle"
    summary = ("a resource bound to a local name (`open()`, `socket`, "
               "`ThreadPoolExecutor`, `ContainerReader`, ...) must be "
               "released (`close`/`shutdown`/`finish`/`release`) on every "
               "path to the function's exit, unless ownership escapes "
               "(returned, yielded, stored on an object, or passed to a "
               "callee); spans are D5's business — their lifecycle rule is "
               "`with`")
    paper_ref = "§5.3 (blockserver resource budget), §6.6 (leak triage)"

    #: Constructor suffixes that acquire something needing release.
    _RESOURCES = ("ContainerReader", "ThreadPoolExecutor",
                  "ProcessPoolExecutor", "socket", "create_connection",
                  "socketpair", "open")
    _RELEASES = ("close", "shutdown", "finish", "release", "terminate")

    def check_module(self, info, config):
        for func in function_defs(info.tree):
            cfg = build_cfg(func)
            sites: Dict[str, ast.AST] = {}
            for node in cfg.nodes:
                stmt = node.stmt
                if (node.kind == STMT and isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and self._is_resource(stmt.value, info)):
                    name = stmt.targets[0].id
                    have = sites.get(name)
                    if have is None or stmt.lineno >= have.lineno:
                        sites[name] = stmt

            def transfer(node: CFGNode, state: FrozenSet[str],
                         ) -> FrozenSet[str]:
                out = set(state)
                stmt = node.stmt
                for sub in node.walk_exprs():
                    if isinstance(sub, ast.Call):
                        func_expr = sub.func
                        if (isinstance(func_expr, ast.Attribute)
                                and isinstance(func_expr.value, ast.Name)
                                and func_expr.attr in self._RELEASES):
                            out.discard(func_expr.value.id)
                        for value in [*sub.args,
                                      *[kw.value for kw in sub.keywords]]:
                            if isinstance(value, ast.Name):
                                out.discard(value.id)  # callee may own it
                    elif isinstance(sub, ast.Yield) and sub.value is not None:
                        for name in _bare_names(sub.value):
                            out.discard(name)
                if node.kind == STMT:
                    if isinstance(stmt, ast.Return):
                        for name in _bare_names(stmt.value):
                            out.discard(name)
                    elif isinstance(stmt, ast.Assign):
                        acquire = (len(stmt.targets) == 1
                                   and isinstance(stmt.targets[0], ast.Name)
                                   and self._is_resource(stmt.value, info))
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                if acquire:
                                    out.add(target.id)
                                else:
                                    out.discard(target.id)
                            elif isinstance(target,
                                            (ast.Attribute, ast.Subscript)):
                                for name in _bare_names(stmt.value):
                                    out.discard(name)  # escapes to object
                    elif isinstance(stmt, ast.AnnAssign) and isinstance(
                            stmt.target, ast.Name):
                        if self._is_resource(stmt.value, info):
                            out.add(stmt.target.id)
                        else:
                            out.discard(stmt.target.id)
                elif node.kind == WITH_ENTER:
                    for item in stmt.items:
                        if isinstance(item.context_expr, ast.Name):
                            out.discard(item.context_expr.id)  # with f: closes
                return frozenset(out)

            states = solve(cfg, transfer)
            final = exit_state(cfg, states)
            if not final:
                continue  # exit unreachable (server loop) or nothing open
            for name in sorted(final):
                site = sites.get(name)
                if site is not None:
                    yield self.finding(
                        info, site,
                        f"resource `{name}` acquired here is not released "
                        "on every path to the function exit — close it in "
                        "a `finally:` or manage it with `with`")

    @classmethod
    def _is_resource(cls, expr: Optional[ast.AST], info: ModuleInfo) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        origin = dotted_name(expr.func, info.imports)
        return origin is not None and origin.split(".")[-1] in cls._RESOURCES
