"""Per-function control-flow graphs for the dataflow rules (D7–D10).

The syntactic rules (D1–D6) inspect one AST node at a time; the service
invariants this package grew for in ISSUE 7 — taint that is sanitised on
one branch only, a lock acquired three statements before the ``await``
that stalls the loop, a resource closed on the happy path but leaked on
the early return — are properties of *paths*, not nodes.  This module
builds the path structure: one :class:`CFG` per function, nodes at
statement granularity, edges for branches, loops, ``break``/``continue``,
``return``/``raise``, ``try``/``except``/``finally`` and (async) ``with``.

Modelling decisions (deliberately conservative, documented in
``docs/lint.md``):

* every statement inside a ``try`` body may raise: each gets an edge to
  every handler and to the ``finally`` block;
* abrupt exits (``return``/``raise``/``break``/``continue``) route
  through the innermost enclosing ``finally`` before reaching their
  target — nested ``finally`` chains collapse to the innermost one;
* ``while True`` (a constant-true test) has no fall-through edge, so a
  loop that can only leave via ``return`` does not fabricate paths;
* nested ``def``/``lambda``/``class`` bodies are opaque single nodes —
  each function is analysed against its own CFG.

Compound statements are decomposed so a node owns only its *header*
expressions (an ``if`` node owns the test, a ``with``-enter node owns the
context expressions); :meth:`CFGNode.exprs` is the one place analyses
read expressions from, which keeps a transfer function from accidentally
seeing a nested statement's code.
"""

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set, Tuple

#: Node kinds.
ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"          # a simple (leaf) statement
TEST = "test"          # the test of an if/while
ITER = "iter"          # the iterable+target of a for / async for
WITH_ENTER = "with-enter"
WITH_EXIT = "with-exit"
EXCEPT = "except"      # one except-handler head

#: Statements with no nested statement bodies.
_SIMPLE = (
    ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return,
    ast.Raise, ast.Assert, ast.Delete, ast.Pass, ast.Global, ast.Nonlocal,
    ast.Import, ast.ImportFrom, ast.Break, ast.Continue,
)

#: Definitions whose bodies are opaque to the enclosing function's CFG.
_OPAQUE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class CFGNode:
    """One program point: a statement, a header, or a synthetic marker."""

    index: int
    kind: str
    stmt: Optional[ast.AST] = None
    succs: List[int] = field(default_factory=list)

    def exprs(self) -> List[ast.AST]:
        """The expression ASTs this node evaluates (headers only own their
        header; opaque definitions own nothing)."""
        stmt = self.stmt
        if stmt is None:
            return []
        if self.kind == TEST:
            return [stmt.test]
        if self.kind == ITER:
            return [stmt.iter, stmt.target]
        if self.kind == WITH_ENTER:
            out: List[ast.AST] = []
            for item in stmt.items:
                out.append(item.context_expr)
                if item.optional_vars is not None:
                    out.append(item.optional_vars)
            return out
        if self.kind == WITH_EXIT:
            return []
        if self.kind == EXCEPT:
            return [stmt.type] if stmt.type is not None else []
        if isinstance(stmt, _OPAQUE):
            return list(stmt.decorator_list)
        return [stmt]

    def walk_exprs(self) -> Iterator[ast.AST]:
        """Walk this node's expressions, *excluding* nested lambda bodies
        and comprehension-free of nested defs (headers never hold defs)."""
        for expr in self.exprs():
            stack = [expr]
            while stack:
                node = stack.pop()
                yield node
                if isinstance(node, ast.Lambda):
                    continue  # a lambda body runs later, elsewhere
                stack.extend(ast.iter_child_nodes(node))


@dataclass
class CFG:
    """A function's control-flow graph (``nodes[entry]`` … ``nodes[exit]``)."""

    func: ast.AST
    nodes: List[CFGNode]
    entry: int
    exit: int

    def reachable(self) -> Set[int]:
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for succ in self.nodes[stack.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen


class _Loop:
    """break/continue targets for one enclosing loop."""

    def __init__(self, header: int):
        self.header = header
        self.breaks: Set[int] = set()


class _TryCtx:
    """Abrupt-exit routing for one enclosing ``try`` with a ``finally``."""

    def __init__(self):
        #: ``(source node, eventual target)`` pairs to wire through the
        #: finally body once it has been built (target None = function exit).
        self.abrupt: List[Tuple[int, Optional[int]]] = []


class _Builder:
    def __init__(self, func: ast.AST):
        self.func = func
        self.nodes: List[CFGNode] = []
        self.entry = self._new(ENTRY)
        self.exit = self._new(EXIT)
        self._loops: List[_Loop] = []
        self._tries: List[Optional[_TryCtx]] = []

    # -- plumbing ----------------------------------------------------------

    def _new(self, kind: str, stmt: Optional[ast.AST] = None) -> int:
        node = CFGNode(index=len(self.nodes), kind=kind, stmt=stmt)
        self.nodes.append(node)
        return node.index

    def _edge(self, src: int, dst: int) -> None:
        succs = self.nodes[src].succs
        if dst not in succs:
            succs.append(dst)

    def _edges(self, preds: Set[int], dst: int) -> None:
        for pred in sorted(preds):
            self._edge(pred, dst)

    def _abrupt(self, node: int, target: Optional[int]) -> None:
        """Route an abrupt exit through the innermost finally, if any."""
        for ctx in reversed(self._tries):
            if ctx is not None:
                ctx.abrupt.append((node, target))
                return
        self._edge(node, target if target is not None else self.exit)

    # -- statement translation --------------------------------------------

    def build(self) -> CFG:
        frontier = self._stmts(self.func.body, {self.entry})
        self._edges(frontier, self.exit)
        return CFG(func=self.func, nodes=self.nodes,
                   entry=self.entry, exit=self.exit)

    def _stmts(self, body: Sequence[ast.stmt], preds: Set[int]) -> Set[int]:
        for stmt in body:
            if not preds:
                break  # unreachable tail (after return/raise on all paths)
            preds = self._stmt(stmt, preds)
        return preds

    def _stmt(self, stmt: ast.stmt, preds: Set[int]) -> Set[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds)
        if isinstance(stmt, ast.While):
            return self._while(stmt, preds)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, _OPAQUE):
            node = self._new(STMT, stmt)
            self._edges(preds, node)
            return {node}
        # Any other statement (including match on newer Pythons) is a leaf.
        node = self._new(STMT, stmt)
        self._edges(preds, node)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._abrupt(node, None)
            return set()
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1].breaks.add(node)
                # target resolved by the loop builder; route via finally
                # only when one sits between the break and its loop — the
                # common case has none, so wire directly on loop close.
            return set()
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._abrupt(node, self._loops[-1].header)
            return set()
        return {node}

    def _if(self, stmt: ast.If, preds: Set[int]) -> Set[int]:
        test = self._new(TEST, stmt)
        self._edges(preds, test)
        frontier = self._stmts(stmt.body, {test})
        if stmt.orelse:
            frontier |= self._stmts(stmt.orelse, {test})
        else:
            frontier |= {test}
        return frontier

    @staticmethod
    def _is_constant_true(expr: ast.AST) -> bool:
        return isinstance(expr, ast.Constant) and bool(expr.value)

    def _while(self, stmt: ast.While, preds: Set[int]) -> Set[int]:
        test = self._new(TEST, stmt)
        self._edges(preds, test)
        loop = _Loop(test)
        self._loops.append(loop)
        body_frontier = self._stmts(stmt.body, {test})
        self._edges(body_frontier, test)  # back edge
        self._loops.pop()
        frontier: Set[int] = set()
        if not self._is_constant_true(stmt.test):
            frontier |= self._stmts(stmt.orelse, {test}) if stmt.orelse else {test}
        frontier |= loop.breaks
        return frontier

    def _for(self, stmt, preds: Set[int]) -> Set[int]:
        header = self._new(ITER, stmt)
        self._edges(preds, header)
        loop = _Loop(header)
        self._loops.append(loop)
        body_frontier = self._stmts(stmt.body, {header})
        self._edges(body_frontier, header)  # back edge
        self._loops.pop()
        frontier = self._stmts(stmt.orelse, {header}) if stmt.orelse else {header}
        frontier |= loop.breaks
        return frontier

    def _with(self, stmt, preds: Set[int]) -> Set[int]:
        enter = self._new(WITH_ENTER, stmt)
        self._edges(preds, enter)
        body_frontier = self._stmts(stmt.body, {enter})
        if not body_frontier:
            return set()  # every path inside returned/raised
        leave = self._new(WITH_EXIT, stmt)
        self._edges(body_frontier, leave)
        return {leave}

    def _try(self, stmt: ast.Try, preds: Set[int]) -> Set[int]:
        ctx = _TryCtx() if stmt.finalbody else None
        self._tries.append(ctx)
        first_body_node = len(self.nodes)
        body_frontier = self._stmts(stmt.body, preds)
        body_nodes = list(range(first_body_node, len(self.nodes)))

        handler_frontier: Set[int] = set()
        handler_heads: List[int] = []
        for handler in stmt.handlers:
            head = self._new(EXCEPT, handler)
            handler_heads.append(head)
            handler_frontier |= self._stmts(handler.body, {head})
        # Any statement in the try body may raise into any handler.
        for node in body_nodes:
            if self.nodes[node].kind in (WITH_EXIT,):
                continue
            for head in handler_heads:
                self._edge(node, head)
        if not body_nodes:
            for head in handler_heads:
                self._edges(preds, head)

        if stmt.orelse:
            body_frontier = self._stmts(stmt.orelse, body_frontier)
        frontier = body_frontier | handler_frontier

        self._tries.pop()
        if not stmt.finalbody:
            return frontier

        # finally: the normal path, the exceptional path (any try/handler
        # node), and every abrupt exit captured in ctx all converge here.
        finally_entry = len(self.nodes)
        final_frontier = self._stmts(stmt.finalbody, frontier or preds)
        if finally_entry == len(self.nodes):  # empty finally body
            return frontier
        for node in body_nodes + handler_heads:
            self._edge(node, finally_entry)
        targets: Set[Optional[int]] = set()
        for source, target in ctx.abrupt:
            self._edge(source, finally_entry)
            targets.add(target)
        for target in targets:
            resolved = target if target is not None else self.exit
            self._edges(final_frontier, resolved)
        # The exceptional path re-raises after the finally completes.
        self._edges(final_frontier, self.exit)
        return final_frontier


def build_cfg(func: ast.AST) -> CFG:
    """Build the CFG of one ``def`` / ``async def`` body."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise TypeError(f"build_cfg wants a function def, got {type(func).__name__}")
    return _Builder(func).build()


def function_defs(tree: ast.AST) -> Iterator[ast.AST]:
    """Every function/method def in a module tree (nested ones included;
    each is analysed against its own CFG)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
