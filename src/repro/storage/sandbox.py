"""SECCOMP-analogue sandbox policy (§5.1).

Production Lepton enters Linux secure computing mode before touching any
input byte: only ``read``, ``write``, ``exit`` and ``sigreturn`` remain
callable, so a compromised parser cannot open files, fork, or allocate.
Python cannot install a real seccomp filter portably, so this module
provides the same *discipline* as an enforceable policy object: resources
are acquired up front, the sandbox is sealed, and any privileged operation
attempted afterwards raises.

The Lepton worker (:class:`SandboxedLepton`) demonstrates the pattern the
paper describes: allocate the fixed 200-MiB arena and set up the pipes,
*then* seal, *then* read untrusted data.
"""

from contextlib import contextmanager
from typing import FrozenSet, List, Optional

from repro.core.lepton import CompressionResult, LeptonConfig, compress, decompress

#: The four syscalls SECCOMP leaves available (§5.1).
ALLOWED_OPERATIONS: FrozenSet[str] = frozenset({"read", "write", "exit", "sigreturn"})

#: Lepton's upfront arena: "a zeroed 200-MiB region of memory" (§5.1).
ARENA_BYTES = 200 * 1024 * 1024


class SandboxViolation(RuntimeError):
    """A privileged operation was attempted inside the sandbox."""


class Sandbox:
    """An operation policy: privileged ops allowed only before sealing."""

    def __init__(self, allowed: FrozenSet[str] = ALLOWED_OPERATIONS):
        self._allowed = allowed
        self._sealed = False
        self.violations: List[str] = []

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        """Enter secure mode; only the allowed operations may follow."""
        self._sealed = True

    def check(self, operation: str) -> None:
        """Gate an operation; raises :class:`SandboxViolation` when sealed."""
        if self._sealed and operation not in self._allowed:
            self.violations.append(operation)
            raise SandboxViolation(
                f"operation {operation!r} attempted inside the sandbox "
                f"(allowed: {sorted(self._allowed)})"
            )

    @contextmanager
    def privileged(self, operation: str):
        """Context manager form of :meth:`check` for setup blocks."""
        self.check(operation)
        yield


class SandboxedLepton:
    """A Lepton worker that follows the §5.1 allocate-then-seal discipline.

    All memory is "allocated from the main thread to avoid the need for
    thread synchronisation" and before any input is read.
    """

    def __init__(self, config: Optional[LeptonConfig] = None):
        self.sandbox = Sandbox()
        # Pre-seal setup: arena and pipes.  (The arena is a real
        # allocation so tests can observe the working-set behaviour.)
        self.sandbox.check("mmap")
        self._arena = bytearray(ARENA_BYTES // 1024)  # scaled; see DESIGN.md
        self.sandbox.check("pipe")
        self._config = config or LeptonConfig()
        self.sandbox.seal()

    def allocate(self, nbytes: int) -> bytearray:
        """Any allocation after sealing is a violation (mmap is filtered)."""
        self.sandbox.check("mmap")
        return bytearray(nbytes)

    def compress(self, data: bytes) -> CompressionResult:
        """Read input, write output — the only operations the seal allows."""
        self.sandbox.check("read")
        result = compress(data, self._config)
        self.sandbox.check("write")
        return result

    def decompress(self, payload: bytes) -> bytes:
        self.sandbox.check("read")
        data = decompress(payload)
        self.sandbox.check("write")
        return data
