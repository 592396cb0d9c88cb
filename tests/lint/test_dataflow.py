"""Dataflow-rule behaviour a syntactic linter provably cannot reproduce.

Every case here hinges on *paths*: a verify call on one branch does not
sanitize the other, a lock released before an `await` is fine while the
same pair of lines inside the critical section is not, and a resource
closed on the happy path still leaks on the early return.  Grep sees the
same tokens in the clean and the trigger variant of each pair.
"""

import textwrap

import pytest

from repro.lint import lint_source, run_lint
from repro.lint.cfg import build_cfg, function_defs
from repro.lint.dataflow import exit_state, solve

pytestmark = pytest.mark.lint


def findings_for(rule: str, source: str):
    return [f for f in lint_source(textwrap.dedent(source)) if f.rule == rule]


# --------------------------------------------------------------------------
# D8: verified-byte taint
# --------------------------------------------------------------------------

def test_verification_on_one_branch_does_not_sanitize_the_other():
    """The core taint property: both sources call ``verify`` and both call
    ``sendall``; only the one with an unverified path is flagged."""
    tainted = findings_for("D8", """
        def reply(store, sock, key, fast_path):
            blob = store.entries[key].payload
            if fast_path:
                blob = blob + b"trailer"
            else:
                blob = verify_digest(blob)
            sock.sendall(blob)
    """)
    assert len(tainted) == 1
    assert "verif" in tainted[0].message

    clean = findings_for("D8", """
        def reply(store, sock, key, fast_path):
            blob = store.entries[key].payload
            if fast_path:
                blob = verify_fast(blob)
            else:
                blob = verify_digest(blob)
            sock.sendall(blob)
    """)
    assert clean == []


def test_taint_survives_propagating_transforms():
    findings = findings_for("D8", """
        def relay(record, sock):
            body = bytes(record.payload)
            framed = b"".join([b"hdr", memoryview(body)])
            sock.write(framed)
    """)
    assert len(findings) == 1


def test_derived_metadata_is_not_tainted():
    # len() and str() launder: the byte *contents* never reach the socket.
    assert findings_for("D8", """
        def announce(record, sock):
            size = len(record.payload)
            sock.write(str(size).encode())
    """) == []


def test_taint_through_loop_iteration():
    findings = findings_for("D8", """
        def stream(records, sock):
            for record in records:
                chunk = record.payload
                sock.sendall(chunk)
    """)
    assert len(findings) == 1


# --------------------------------------------------------------------------
# D9: no await while a threading.Lock is held
# --------------------------------------------------------------------------

D9_HELD = """
    import asyncio

    async def rotate(self):
        self._state_lock.acquire()
        await asyncio.sleep(0)
        self._state_lock.release()
"""

D9_RELEASED = """
    import asyncio

    async def rotate(self):
        self._state_lock.acquire()
        self._state_lock.release()
        await asyncio.sleep(0)
"""


def test_await_between_acquire_and_release_fires():
    findings = findings_for("D9", D9_HELD)
    assert len(findings) == 1
    assert "_state_lock" in findings[0].message


def test_same_calls_released_before_await_are_clean():
    # Identical call set, different order — only the CFG tells them apart.
    assert findings_for("D9", D9_RELEASED) == []


def test_lock_order_inversion_across_functions():
    findings = findings_for("D9", """
        import threading

        class Registry:
            def forward(self):
                with self.lock_names:
                    with self.lock_blocks:
                        self.sync()

            def backward(self):
                with self.lock_blocks:
                    with self.lock_names:
                        self.sync()
    """)
    inversions = [f for f in findings if "inversion" in f.message.lower()
                  or "order" in f.message.lower()]
    assert len(inversions) == 1
    # Reported at the lexically later of the two sites.
    assert inversions[0].line > 8


def test_await_while_locked_only_on_the_locked_path():
    findings = findings_for("D9", """
        import asyncio

        async def flush(self, urgent):
            if urgent:
                with self._queue_lock:
                    self.drain()
            await asyncio.sleep(0)
    """)
    assert findings == []


# --------------------------------------------------------------------------
# D10: resource lifecycle
# --------------------------------------------------------------------------

def test_resource_leaked_on_early_return_only():
    findings = findings_for("D10", """
        def head(path, want):
            handle = open(path, "rb")
            if not want:
                return b""
            data = handle.read(want)
            handle.close()
            return data
    """)
    assert len(findings) == 1
    assert "handle" in findings[0].message


def test_try_finally_release_covers_every_path():
    assert findings_for("D10", """
        def head(path, want):
            handle = open(path, "rb")
            try:
                if not want:
                    return b""
                return handle.read(want)
            finally:
                handle.close()
    """) == []


def test_ownership_transfer_via_return_is_not_a_leak():
    assert findings_for("D10", """
        def open_container(path):
            handle = open(path, "rb")
            return handle
    """) == []


# --------------------------------------------------------------------------
# D7: blocking work reached through the call graph
# --------------------------------------------------------------------------

def test_transitive_blocking_call_reported_with_chain():
    findings = findings_for("D7", """
        import zlib

        def inflate(blob):
            return zlib.decompress(blob)

        def unframe(blob):
            return inflate(blob[4:])

        async def handle(blob):
            return unframe(blob)
    """)
    assert len(findings) == 1
    assert "unframe" in findings[0].message
    assert "zlib.decompress" in findings[0].message


def test_executor_dispatch_is_the_sanctioned_escape():
    assert findings_for("D7", """
        import asyncio
        import zlib

        def inflate(blob):
            return zlib.decompress(blob)

        async def handle(blob):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, inflate, blob)
    """) == []


def test_calling_a_generator_is_lazy_not_blocking():
    assert findings_for("D7", """
        import zlib

        def frames(blob):
            while blob:
                yield zlib.decompress(blob[:64])
                blob = blob[64:]

        async def handle(blob):
            return frames(blob)
    """) == []


def test_d7_method_resolution_is_subset_stable(tmp_path):
    """A blocking `write` *function* in one module must not make
    `stream.write(...)` in another module's async handler count as
    blocking: bare method names never resolve across modules, so a run
    over a few named paths sees exactly what the full tree sees.  (The
    first cut of the resolver guessed any globally-unique bare name, and
    a 7-file run invented D7 findings the 93-file run did not have.)"""
    sink = tmp_path / "sink.py"
    sink.write_text("def write(path, data):\n"
                    "    with open(path, 'wb') as h:\n"
                    "        h.write(data)\n")
    server = tmp_path / "server.py"
    server.write_text("async def pump(stream, data):\n"
                      "    stream.write(data)\n")
    alone = [f for f in run_lint([server]) if f.rule == "D7"]
    joint = [f for f in run_lint([sink, server]) if f.rule == "D7"]
    assert alone == joint == []


# --------------------------------------------------------------------------
# The solver itself
# --------------------------------------------------------------------------

def _cfg_of(source):
    tree = __import__("ast").parse(textwrap.dedent(source))
    return build_cfg(next(iter(function_defs(tree))))


def test_solver_reaches_fixpoint_on_loops():
    import ast

    cfg = _cfg_of("""
        def f(xs):
            x = 1
            while x:
                y = 2
            return x
    """)
    calls = {"n": 0}

    def transfer(node, state):
        calls["n"] += 1
        assert calls["n"] < 200, "solver failed to terminate"
        out = set(state)
        if node.stmt is not None and isinstance(node.stmt, ast.Assign):
            out.add(node.stmt.targets[0].id)
        return frozenset(out)

    states = solve(cfg, transfer, frozenset())
    # The loop body's facts flow back around: at the exit both names are
    # possible, and the iteration terminated well under the guard.
    assert exit_state(cfg, states) == frozenset({"x", "y"})


def test_exit_state_is_none_when_exit_unreachable():
    cfg = _cfg_of("""
        def f(q):
            while True:
                q.pump()
    """)
    states = solve(cfg, lambda node, state: state, frozenset())
    assert exit_state(cfg, states) is None
