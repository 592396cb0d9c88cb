"""The determinism & safety rule set (D1–D6).

Each rule is a ~30-line AST visitor plus metadata; the engine handles file
collection, scoping, pragmas and reporting.  The invariants come straight
from the paper and the deployment report that motivated this pass:

* §5.2 requires encoder and decoder to derive *bit-identical* contexts on
  every platform — hence D1 (no floating point on the coded path) and D2
  (no ambient entropy in deterministic modules);
* §5.4/§5.7 qualification only means something if the §6.2 exit-code
  taxonomy is complete and every code is actually reachable — hence D3;
* §5.5's fleet machinery runs conversions concurrently — hence D4
  (shared-state writes must be lock-guarded);
* §6.6's triage depends on spans surviving exceptions and on failures not
  being swallowed — hence D5 (context-managed spans, no bare ``except``);
* the streaming session is the *one* segment-coding loop — hence D6
  (no module outside it may drive the arithmetic coder directly, so the
  timed/chunked forks that once drifted from the real pipeline cannot
  regrow).

Rules are registered in :data:`RULES`; ``docs/lint.md`` documents each id
and ``tests/test_docs.py`` fails if the two ever diverge.
"""

import ast
import threading
from typing import Dict, Iterator, List, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.engine import Finding, ModuleInfo, dotted_name

RULES: Dict[str, "Rule"] = {}
_rules_lock = threading.Lock()


def register(cls):
    rule = cls()
    with _rules_lock:
        RULES[rule.id] = rule
    return cls


def all_rules() -> List["Rule"]:
    # The dataflow rules live in their own module and register on import.
    from repro.lint import rules_dataflow  # noqa: F401

    # Numeric-aware sort: lexicographically "D10" < "D2".
    return [RULES[rule_id]
            for rule_id in sorted(RULES, key=lambda rid: (len(rid), rid))]


class Rule:
    """Base rule: metadata plus a per-module check."""

    id: str = ""
    name: str = ""
    summary: str = ""
    paper_ref: str = ""
    project_wide: bool = False

    def finding(self, info: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=str(info.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def check_module(self, info: ModuleInfo,
                     config: LintConfig) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, modules: Sequence[ModuleInfo],
                      config: LintConfig) -> Iterator[Finding]:
        raise NotImplementedError


# --- D1 -------------------------------------------------------------------

#: ``math`` functions that stay in exact integer arithmetic.
_INT_SAFE_MATH = {"floor", "ceil", "gcd", "lcm", "isqrt", "comb", "perm",
                  "factorial", "prod"}


@register
class FloatInCodedPath(Rule):
    """No float literals, true division, or float-valued calls where every
    coded decision must be integer-exact."""

    id = "D1"
    name = "float-in-coded-path"
    summary = ("float literals, `/` true division, `float()`/`complex()` and "
               "float-valued `math.*` calls are forbidden in coded-path "
               "modules: one ulp of platform drift desynchronises the "
               "arithmetic coder")
    paper_ref = "§5.2 (determinism), §6.1 (divergence incidents)"

    def check_module(self, info, config):
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                yield self.finding(info, node,
                                   f"float literal {node.value!r} on the coded path")
            elif isinstance(node, (ast.BinOp,)) and isinstance(node.op, ast.Div):
                yield self.finding(info, node,
                                   "true division `/` yields a float; use "
                                   "integer `//` with explicit rounding")
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                yield self.finding(info, node,
                                   "augmented true division `/=` yields a float")
            elif isinstance(node, ast.Call):
                origin = dotted_name(node.func, info.imports)
                if origin in ("float", "complex"):
                    yield self.finding(info, node,
                                       f"`{origin}()` constructs a float on the coded path")
                elif (origin and origin.startswith("math.")
                      and origin.split(".")[-1] not in _INT_SAFE_MATH):
                    yield self.finding(info, node,
                                       f"`{origin}` is float-valued; coded-path "
                                       "tables must be built in integer arithmetic")


# --- D2 -------------------------------------------------------------------

_WALL_CLOCKS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.thread_time", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
_ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}
#: numpy's legacy global-state RNG surface; ``default_rng(seed)`` is the
#: sanctioned replacement.
_NUMPY_LEGACY_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "seed", "choice", "shuffle", "permutation", "normal", "uniform",
    "exponential", "poisson", "lognormal", "geometric", "binomial", "bytes",
}


@register
class WallClockAndRng(Rule):
    """Deterministic modules take explicit seeds and clocks; ambient entropy
    (wall clocks, global RNGs, ``os.urandom``, hash-order iteration) makes
    replays and A/B qualification runs incomparable."""

    id = "D2"
    name = "ambient-entropy"
    summary = ("wall clocks (`time.time`/`perf_counter`), the global "
               "`random` module, numpy's legacy global RNG, `os.urandom`, "
               "`uuid`, `secrets`, and iteration over `set`s are forbidden "
               "in deterministic modules — randomness must flow through "
               "explicit seeds, time through SimClock")
    paper_ref = "§5.4 (bit-exact qualification), §5.5 (replayable fleet sim)"

    def check_module(self, info, config):
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modname = (node.names[0].name if isinstance(node, ast.Import)
                           else node.module or "")
                root = modname.split(".")[0]
                if root in ("random", "secrets"):
                    yield self.finding(
                        info, node,
                        f"import of `{root}`: module-level RNG state is seeded "
                        "from OS entropy; pass a seeded Generator instead")
            elif isinstance(node, ast.Call):
                origin = dotted_name(node.func, info.imports)
                if origin in _WALL_CLOCKS:
                    yield self.finding(
                        info, node,
                        f"`{origin}()` reads the wall clock; deterministic "
                        "modules must take a SimClock or explicit timestamps")
                elif origin in _ENTROPY:
                    yield self.finding(info, node,
                                       f"`{origin}()` draws OS entropy")
                elif (origin and origin.startswith("numpy.random.")
                      and origin.split(".")[-1] in _NUMPY_LEGACY_RANDOM):
                    yield self.finding(
                        info, node,
                        f"`{origin}` uses numpy's global RNG; use "
                        "`numpy.random.default_rng(seed)`")
            for iterable in self._iteration_targets(node):
                if self._is_set_expr(iterable, info):
                    yield self.finding(
                        info, iterable,
                        "iterating a set: order depends on hash seeding; "
                        "sort first or use a list/dict")

    @staticmethod
    def _iteration_targets(node: ast.AST) -> Iterator[ast.AST]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter

    @staticmethod
    def _is_set_expr(node: ast.AST, info: ModuleInfo) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func, info.imports) in ("set", "frozenset")
        return False


# --- D3 -------------------------------------------------------------------


@register
class ExitCodeExhaustiveness(Rule):
    """The §6.2 taxonomy is closed: every ``ExitCode`` member must be pinned
    to a process exit status and actually produced or consumed somewhere."""

    id = "D3"
    name = "exit-code-exhaustiveness"
    summary = ("every `ExitCode` member must (a) be pinned to a unique "
               "numeric status in `EXIT_STATUS` and (b) be referenced "
               "somewhere outside its definition and the pin table — an "
               "unpinned code renumbers monitoring, an unproduced code is "
               "dead taxonomy")
    paper_ref = "§6.2 (exit-code table), §5.7 (qualification gate)"
    project_wide = True

    def check_project(self, modules, config):
        enum_module = config.option(self.id, "enum_module", "repro.core.errors")
        enum_class = config.option(self.id, "enum_class", "ExitCode")
        status_module = config.option(self.id, "status_module",
                                      "repro.obs.exitcodes")
        status_name = config.option(self.id, "status_name", "EXIT_STATUS")

        by_name = {m.module: m for m in modules}
        enum_info = by_name.get(enum_module)
        status_info = by_name.get(status_module)
        if enum_info is None or status_info is None:
            return  # partial tree (single-file invocation): nothing to check

        classdef, members = self._enum_members(enum_info, enum_class)
        if classdef is None:
            yield self.finding(enum_info, enum_info.tree,
                               f"enum `{enum_class}` not found in {enum_module}")
            return
        table = self._status_table(status_info, status_name, enum_class)
        if table is None:
            yield self.finding(status_info, status_info.tree,
                               f"`{status_name}` dict not found in {status_module}")
            return
        table_node, pinned = table

        seen_values: Dict[object, str] = {}
        for member, (key_node, value) in pinned.items():
            if member not in members:
                yield self.finding(
                    status_info, key_node,
                    f"{status_name} pins unknown member {enum_class}.{member}")
            if value in seen_values:
                yield self.finding(
                    status_info, key_node,
                    f"{status_name} reuses status {value!r} for {member} "
                    f"(already pinned to {seen_values[value]})")
            seen_values[value] = member
        for member, node in members.items():
            if member not in pinned:
                yield self.finding(
                    enum_info, node,
                    f"{enum_class}.{member} has no pinned status in "
                    f"{status_module}.{status_name}")

        refs = self._reference_counts(
            modules, enum_class, set(members),
            skip={(enum_info.module, classdef), (status_info.module, table_node)},
        )
        for member, node in members.items():
            if refs.get(member, 0) == 0:
                yield self.finding(
                    enum_info, node,
                    f"{enum_class}.{member} is never produced or consumed "
                    "outside its definition and the pin table")

    @staticmethod
    def _enum_members(info: ModuleInfo, enum_class: str):
        for node in info.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == enum_class:
                members = {}
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and len(stmt.targets) == 1
                            and isinstance(stmt.targets[0], ast.Name)):
                        members[stmt.targets[0].id] = stmt
                return node, members
        return None, {}

    @staticmethod
    def _status_table(info: ModuleInfo, status_name: str, enum_class: str):
        for node in ast.walk(info.tree):
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if (isinstance(target, ast.Name) and target.id == status_name
                    and isinstance(getattr(node, "value", None), ast.Dict)):
                pinned = {}
                for key, value in zip(node.value.keys, node.value.values):
                    if (isinstance(key, ast.Attribute)
                            and isinstance(key.value, ast.Name)
                            and key.value.id == enum_class):
                        pinned[key.attr] = (
                            key,
                            value.value if isinstance(value, ast.Constant) else None,
                        )
                return node, pinned
        return None

    @staticmethod
    def _reference_counts(modules, enum_class, members, skip):
        skip_ranges = {}
        for module_name, node in skip:
            skip_ranges.setdefault(module_name, []).append(
                (node.lineno, node.end_lineno)
            )
        counts: Dict[str, int] = {}
        for info in modules:
            ranges = skip_ranges.get(info.module, [])
            for node in ast.walk(info.tree):
                if (isinstance(node, ast.Attribute)
                        and node.attr in members
                        and isinstance(node.value, ast.Name)
                        and node.value.id == enum_class):
                    if any(lo <= node.lineno <= hi for lo, hi in ranges):
                        continue
                    counts[node.attr] = counts.get(node.attr, 0) + 1
        return counts


# --- D4 -------------------------------------------------------------------


@register
class UnguardedSharedState(Rule):
    """Worker callables mutate module-level (process-shared) objects only
    under a lock: blockserver callbacks and backfill workers may run on
    many threads, and "it works under the GIL" is not an invariant."""

    id = "D4"
    name = "unguarded-shared-state"
    summary = ("inside functions, attribute/subscript writes and `next()` "
               "draws on module-level objects must sit inside a "
               "`with <lock>:` block — module globals are shared across "
               "every worker thread on the machine")
    paper_ref = "§5.5 (concurrent conversions per blockserver)"

    #: Statements with no nested statements (safe to ast.walk wholesale).
    _SIMPLE = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr,
               ast.Return, ast.Raise, ast.Assert, ast.Delete, ast.Global)

    def check_module(self, info, config):
        shared = self._module_level_names(info.tree)
        if not shared:
            return
        yield from self._walk(info, info.tree.body, shared,
                              in_function=False, guarded=False)

    @staticmethod
    def _module_level_names(tree: ast.Module):
        names = set()
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _root_name(node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    @staticmethod
    def _is_lock_guard(with_node) -> bool:
        for item in with_node.items:
            text = ast.unparse(item.context_expr).lower()
            if "lock" in text:
                return True
        return False

    def _walk(self, info, body, shared, in_function, guarded):
        for node in body:
            if isinstance(node, self._SIMPLE):
                yield from self._check_simple(info, node, shared,
                                              in_function, guarded)
                continue
            entered_function = in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))
            now_guarded = guarded or (
                isinstance(node, (ast.With, ast.AsyncWith))
                and self._is_lock_guard(node))
            for child_body in self._child_bodies(node):
                yield from self._walk(info, child_body, shared,
                                      entered_function, now_guarded)

    @staticmethod
    def _child_bodies(node):
        for attr in ("body", "orelse", "finalbody", "handlers"):
            value = getattr(node, attr, None)
            if not value:
                continue
            if attr == "handlers":
                for handler in value:
                    yield handler.body
            else:
                yield value

    def _check_simple(self, info, node, shared, in_function, guarded):
        if guarded:
            return  # the enclosing `with <lock>:` covers the statement
        if in_function:
            if isinstance(node, ast.Global):
                for name in node.names:
                    yield self.finding(
                        info, node,
                        f"`global {name}`: rebinding module state from a "
                        "worker callable; guard a container with a lock "
                        "instead")
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = self._root_name(target)
                    if root in shared:
                        yield self.finding(
                            info, target,
                            f"write to shared module-level object `{root}` "
                            "outside a `with <lock>:` block")
        # `next()` draws on shared iterators count inside any callable —
        # including lambdas nested in class bodies (dataclass
        # default_factory runs on whichever thread constructs the object).
        if in_function:
            search_roots = [node]
        else:
            search_roots = [lam.body for lam in ast.walk(node)
                            if isinstance(lam, ast.Lambda)]
        for root_node in search_roots:
            for expr in ast.walk(root_node):
                if (isinstance(expr, ast.Call)
                        and isinstance(expr.func, ast.Name)
                        and expr.func.id == "next"
                        and expr.args):
                    root = self._root_name(expr.args[0])
                    if root in shared:
                        yield self.finding(
                            info, expr,
                            f"`next({root})` draws from a shared "
                            "module-level iterator outside a "
                            "`with <lock>:` block")


# --- D5 -------------------------------------------------------------------


@register
class SpanAndExceptionSafety(Rule):
    """Spans record even when the stage raises — but only if they are used
    as context managers; and failures must carry a type (no bare except)."""

    id = "D5"
    name = "span-and-exception-safety"
    summary = ("`trace_span(...)`/`tracer.span(...)` must be the context "
               "expression of a `with` (a span opened without `with` never "
               "closes and corrupts the per-thread span stack), and bare "
               "`except:` is forbidden — §6.6 triage needs the exception type")
    paper_ref = "§6.6 (timeout triage), §5.7 (alerting)"

    def check_module(self, info, config):
        with_contexts = set()
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_contexts.add(id(item.context_expr))
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    info, node,
                    "bare `except:` swallows the failure type; catch the "
                    "narrowest exception (or `Exception`) explicitly")
            elif isinstance(node, ast.Call) and self._is_span_call(node, info):
                if id(node) not in with_contexts:
                    yield self.finding(
                        info, node,
                        "span opened without `with`: the span never finishes "
                        "and the tracer's stack desynchronises")

    @staticmethod
    def _is_span_call(node: ast.Call, info: ModuleInfo) -> bool:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "trace_span":
            return True
        origin = dotted_name(func, info.imports)
        if origin and origin.endswith(".trace_span"):
            return True
        if isinstance(func, ast.Attribute) and func.attr == "span":
            return "tracer" in ast.unparse(func.value).lower()
        return False


# --- D6 -------------------------------------------------------------------

#: The arithmetic-coder surface only the session pipeline may drive.
_CODEC_CLASSES = ("SegmentCodec", "BoolEncoder", "BoolDecoder")


@register
class CodecLoopContainment(Rule):
    """The session module owns the one segment-coding loop; any other
    module instantiating the arithmetic coder regrows the fork that let the
    timed and chunked entry points silently drift from the real pipeline."""

    id = "D6"
    name = "codec-loop-containment"
    summary = ("instantiating `SegmentCodec`/`BoolEncoder`/`BoolDecoder` "
               "outside the session module (and the modules that define "
               "them) is forbidden — every entry point must drive the codec "
               "through `compress`/`compress_chunked` (which code through "
               "`code_segment_records`) or `DecodeSession`, so there is "
               "exactly one coding loop to qualify")
    paper_ref = "§3.4 (one codec, many surfaces), §5.4/§5.7 (qualification)"

    #: The session plus the modules that *define* the codec classes.
    _DEFAULT_ALLOWED = ("repro.core.session", "repro.core.bool_coder",
                        "repro.core.coefcoder")

    def check_module(self, info, config):
        allowed = config.option(self.id, "allowed_modules",
                                self._DEFAULT_ALLOWED)
        if info.module in allowed:
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = dotted_name(node.func, info.imports)
            if origin and origin.split(".")[-1] in _CODEC_CLASSES:
                yield self.finding(
                    info, node,
                    f"`{origin.split('.')[-1]}` instantiated outside "
                    "repro.core.session: drive the codec through "
                    "compress/compress_chunked (or code_segment_records) and "
                    "DecodeSession — the segment-coding loop must not fork")
