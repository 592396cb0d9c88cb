"""Module-level call-graph summaries: which functions can block the loop?

D7 needs more than "is there a ``time.sleep`` in this async body" — the
blocking call is usually one hop away (``await``-less helper calls
``zlib.decompress``).  This pass summarises every function defined in the
linted tree — is it async? a generator? does it call a blocking
primitive directly? whom does it call? — then closes the "may block"
relation transitively so D7 can flag a call whose *callee's callee*
blocks, with the chain spelled out in the finding.

Resolution is deliberately modest (and documented in ``docs/lint.md``):

* imported module-level functions resolve through the import table;
* ``self.m(...)`` resolves within the enclosing class;
* ``<expr>.m(...)`` resolves only when exactly one function *in the
  caller's own module* bears the bare name ``m`` — ambiguous names stay
  unresolved rather than guessing, and cross-module bare names are never
  guessed at all (resolution must not depend on which files share the
  run, or ``--changed`` subsets would diverge from full runs);
* a call directly under ``await`` never blocks the loop (that is the
  point of awaiting it), and calling a *generator* function merely builds
  the generator — the work happens at ``next()``, which is itself a
  blocking primitive;
* ``with lock:`` guards are *not* blocking primitives here — a
  micro-critical-section around a dict is the sanctioned pattern, and D9
  separately guarantees no lock is held across an ``await``.
"""

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.engine import ModuleInfo, dotted_name

#: Call origins (resolved dotted names) that block the calling thread.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "zlib.compress", "zlib.decompress", "zlib.compressobj",
    "zlib.decompressobj",
    "hashlib.md5", "hashlib.sha1", "hashlib.sha256", "hashlib.sha384",
    "hashlib.sha512", "hashlib.blake2b", "hashlib.blake2s", "hashlib.new",
    "open", "next",
    "os.remove", "os.rename", "os.replace", "os.listdir", "os.system",
    "os.path.exists", "os.path.getsize",
    "shutil.copyfile", "shutil.rmtree",
    "subprocess.run", "subprocess.check_output", "subprocess.check_call",
    "subprocess.Popen",
    "socket.create_connection", "socket.getaddrinfo",
})

#: Project entry points that are CPU-bound by design (§4: the codec is the
#: work) — calling them on the event loop defeats the executor split.
BLOCKING_PROJECT_FUNCTIONS = frozenset({
    "repro.compress", "repro.decompress",
    "repro.core.lepton.compress", "repro.core.lepton.decompress",
    "repro.core.lepton.compress_stream", "repro.core.lepton.decompress_chunks",
    "repro.core.lepton.roundtrip_check",
    "repro.core.chunks.compress_chunked", "repro.core.chunks.decompress_chunk",
})

#: Methods that block regardless of receiver type when not awaited:
#: ``lock.acquire()`` parks the thread, ``future.result()`` joins it.
BLOCKING_METHODS = frozenset({"acquire", "result"})


@dataclass
class CallSite:
    """One call inside a function body, with whatever we could resolve."""

    node: ast.Call
    origin: Optional[str] = None       # import-resolved dotted name
    self_method: Optional[str] = None  # m for ``self.m(...)``
    method: Optional[str] = None       # bare name for ``<expr>.m(...)``
    blocking: Optional[str] = None     # non-None: blocks directly, why


@dataclass
class FunctionSummary:
    """What one ``def`` means to its callers."""

    key: str         # "module.Class.name" / "module.name"
    module: str
    qualname: str
    name: str        # bare name, for unique-name method resolution
    node: ast.AST
    is_async: bool = False
    is_generator: bool = False
    calls: List[CallSite] = field(default_factory=list)


def own_nodes(func: ast.AST):
    """Walk a function body excluding nested def/lambda/class bodies —
    their code runs under a different frame (and a different analysis)."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _classify_call(call: ast.Call, imports: Dict[str, str],
                   extra_blocking: frozenset) -> CallSite:
    site = CallSite(node=call)
    func = call.func
    origin = dotted_name(func, imports)
    site.origin = origin
    if origin in BLOCKING_CALLS or origin in BLOCKING_PROJECT_FUNCTIONS \
            or origin in extra_blocking:
        site.blocking = f"`{origin}` blocks the calling thread"
    if isinstance(func, ast.Attribute):
        site.method = func.attr
        if isinstance(func.value, ast.Name) and func.value.id == "self":
            site.self_method = func.attr
        if func.attr in BLOCKING_METHODS and site.blocking is None:
            receiver = ast.unparse(func.value)
            site.blocking = (f"`{receiver}.{func.attr}()` parks the thread "
                             "until the resource is ready")
    return site


def build_summaries(modules: Sequence[ModuleInfo],
                    extra_blocking: frozenset = frozenset(),
                    ) -> Dict[str, FunctionSummary]:
    """Summarise every function definition across the given modules."""
    summaries: Dict[str, FunctionSummary] = {}
    for info in modules:
        _summarise(info, summaries, extra_blocking)
    return summaries


def _summarise(info: ModuleInfo, out: Dict[str, FunctionSummary],
               extra_blocking: frozenset) -> None:
    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                summary = FunctionSummary(
                    key=f"{info.module}.{qualname}",
                    module=info.module,
                    qualname=qualname,
                    name=child.name,
                    node=child,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                )
                awaited = {
                    id(n.value) for n in own_nodes(child)
                    if isinstance(n, ast.Await)
                }
                for sub in own_nodes(child):
                    if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                        summary.is_generator = True
                    elif isinstance(sub, ast.Call) and id(sub) not in awaited:
                        summary.calls.append(
                            _classify_call(sub, info.imports, extra_blocking))
                out[summary.key] = summary
                walk(child, f"{prefix}{child.name}.")  # nested defs

    walk(info.tree, "")


def resolve_callee(site: CallSite, caller: FunctionSummary,
                   summaries: Dict[str, FunctionSummary],
                   by_name: Dict[str, List[str]]) -> Optional[str]:
    """Map a call site to a summary key, or None when unresolvable."""
    if site.origin is not None and site.origin in summaries:
        return site.origin
    if site.origin is not None and "." not in site.origin:
        # A bare call to a module-level function defined in this module.
        key = f"{caller.module}.{site.origin}"
        if key in summaries:
            return key
    if site.self_method is not None:
        # caller.qualname = "Class.method" (possibly nested deeper); try
        # every enclosing class prefix, innermost first.
        parts = caller.qualname.split(".")
        for depth in range(len(parts) - 1, 0, -1):
            key = f"{caller.module}." + ".".join(
                parts[:depth] + [site.self_method])
            if key in summaries:
                return key
    if site.method is not None:
        # Only the caller's own module: the bare name ``m`` resolving
        # against *other* modules would make the answer depend on which
        # files happen to share the run — a `--changed` subset must see
        # exactly what the full tree sees.
        candidates = [key for key in by_name.get(site.method, [])
                      if summaries[key].module == caller.module]
        if len(candidates) == 1:
            return candidates[0]
    if site.origin is not None:
        # "module.func" imported as "from module import func" resolves
        # directly; "import module" + "module.func(...)" also lands here.
        tail = by_name.get(site.origin.split(".")[-1], [])
        matches = [key for key in tail if key == site.origin]
        if len(matches) == 1:
            return matches[0]
    return None


def blocking_closure(summaries: Dict[str, FunctionSummary]) -> Dict[str, str]:
    """Transitively close "may block": key -> human-readable reason chain.

    Async functions and generator functions never appear — calling either
    just builds an object; the eventual work is driven by an ``await`` or
    a ``next()`` that the rules judge at *that* site.
    """
    by_name: Dict[str, List[str]] = {}
    for key, summary in summaries.items():
        by_name.setdefault(summary.name, []).append(key)
    for keys in by_name.values():
        keys.sort()

    reasons: Dict[str, str] = {}
    for key, summary in sorted(summaries.items()):
        if summary.is_async or summary.is_generator:
            continue
        for site in summary.calls:
            if site.blocking is not None:
                reasons[key] = site.blocking
                break

    changed = True
    while changed:
        changed = False
        for key, summary in sorted(summaries.items()):
            if key in reasons or summary.is_async or summary.is_generator:
                continue
            for site in summary.calls:
                callee = resolve_callee(site, summary, summaries, by_name)
                if callee is not None and callee in reasons:
                    target = summaries[callee]
                    reasons[key] = (f"calls `{target.qualname}` which blocks "
                                    f"({reasons[callee]})")
                    changed = True
                    break
    return reasons
