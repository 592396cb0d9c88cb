"""The documentation is executable and the telemetry contract is complete.

Two guarantees:

* every fenced ``python`` block in README.md and docs/*.md actually runs
  (blocks within one file share a namespace, seeded with ``jpeg_bytes``);
* every metric name the system emits during a representative workload
  appears, backticked, in docs/observability.md — so an undocumented or
  renamed metric fails here.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

_FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _python_blocks(path: Path):
    return _FENCE.findall(path.read_text())


def test_collector_sees_known_blocks():
    """Guard the extractor itself: these files are known to hold blocks."""
    assert _python_blocks(REPO / "README.md")
    assert _python_blocks(REPO / "docs" / "observability.md")


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_python_blocks_run(path, small_jpeg):
    blocks = _python_blocks(path)
    if not blocks:
        pytest.skip(f"{path.name} has no python blocks")
    namespace = {"jpeg_bytes": small_jpeg}
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"{path.name}[block {i}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - diagnostic path
            pytest.fail(
                f"{path.name} python block {i} failed: {type(exc).__name__}: {exc}"
                f"\n---\n{block}"
            )


# -- the telemetry contract ------------------------------------------------


def _emitted_metric_names(small_jpeg):
    """Run a representative workload, return every metric name it emits."""
    from repro import compress, decompress
    from repro.core.lepton import LeptonConfig
    from repro.obs import MetricsRegistry, get_registry
    from repro.storage.backfill import BackfillWorker, Metaserver, UserFile
    from repro.storage.blockstore import BlockStore
    from repro.storage.fleet import FleetConfig, FleetSim
    from repro.storage.workers import shared_pool

    names = set()

    # Codec path (global registry): success + a classified reject.
    compress(small_jpeg, LeptonConfig(threads=2))
    result = compress(small_jpeg)
    decompress(result.payload)
    compress(b"not a jpeg")                       # Deflate fallback
    names.update(get_registry().names())

    # The same codec on the worker pool (its telemetry is replayed here).
    store = BlockStore(chunk_size=1024, codec=shared_pool())
    store.put_file("a.jpg", small_jpeg)
    store.get_file("a.jpg")
    names.update(get_registry().names())

    # Backfill path (private registry).
    users = {0: [UserFile("a.jpg", small_jpeg), UserFile("b.bin", b"junk")]}
    meta = Metaserver(users, n_shards=1, chunk_size=1 << 22)
    worker = BackfillWorker(meta, lambda k, v: None, LeptonConfig(threads=1),
                            registry=MetricsRegistry())
    worker.process_shard(0)
    names.update(worker.registry.names())
    names.update(get_registry().names())          # backfill spans land globally

    # Fleet simulation (per-sim registry).
    sim = FleetSim(FleetConfig(duration_hours=0.05, seed=9))
    sim.run()
    names.update(sim.registry.names())
    return names


def test_every_emitted_metric_is_documented(small_jpeg):
    contract = (REPO / "docs" / "observability.md").read_text()
    documented = set(re.findall(r"`([a-z0-9_.]+(?:\.[a-z0-9_]+)+)`", contract))
    emitted = _emitted_metric_names(small_jpeg)
    assert emitted, "workload emitted no metrics — instrumentation broken?"
    undocumented = {name for name in emitted if name not in documented}
    assert not undocumented, (
        "metrics emitted but missing from docs/observability.md: "
        f"{sorted(undocumented)}"
    )


# -- the lint-rule contract ------------------------------------------------


def test_every_lint_rule_is_documented_and_vice_versa():
    """docs/lint.md and the rule registry must agree in both directions:
    a registered rule without documentation is unexplainable to whoever
    hits it, and a documented id without a rule is a stale promise."""
    from repro.lint import all_rules

    contract = (REPO / "docs" / "lint.md").read_text()
    documented = set(re.findall(r"^### (D\d+) —", contract, re.MULTILINE))
    registered = {rule.id for rule in all_rules()}
    assert registered, "rule registry is empty"
    assert documented == registered, (
        f"undocumented rules: {sorted(registered - documented)}; "
        f"documented but unregistered: {sorted(documented - registered)}"
    )
    for rule in all_rules():
        assert rule.name in contract, (
            f"rule {rule.id}'s name {rule.name!r} missing from docs/lint.md"
        )


# -- the serve API contract (docs/serve.md, both directions) ---------------


def _serve_doc() -> str:
    return (REPO / "docs" / "serve.md").read_text()


def test_every_serve_endpoint_is_documented_and_vice_versa():
    """The endpoint table and repro.serve.ENDPOINTS must agree exactly."""
    from repro.serve import ENDPOINTS

    documented = set(
        re.findall(r"\| `([A-Z]+) (/[^`\s]*)` \|", _serve_doc())
    )
    assert documented == set(ENDPOINTS), (
        f"undocumented endpoints: {sorted(set(ENDPOINTS) - documented)}; "
        f"documented but unserved: {sorted(documented - set(ENDPOINTS))}"
    )


def test_every_route_gate_is_documented_and_vice_versa():
    """The endpoint table's gate columns and the route table must agree:
    one column per gate, and a tick exactly where a route passes it."""
    from repro.serve.app import GATES, ROUTES

    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in _serve_doc().splitlines()
            if line.startswith("| Endpoint |")
            or re.match(r"\| `[A-Z]+ /", line)]
    header = rows[0]
    columns = [name for name in header if name in GATES]
    assert columns == list(GATES), f"gate columns {header} != {GATES}"
    documented = {}
    for row in rows[1:]:
        method, route = row[0].strip("`").split(" ")
        documented[method, route] = tuple(
            gate for gate in GATES if row[header.index(gate)] == "✓")
    served = {key: spec.gates for key, spec in ROUTES.items()}
    missing = set(served.items()) - set(documented.items())
    stale = set(documented.items()) - set(served.items())
    assert not missing and not stale, (
        f"undocumented gates: {sorted(missing)}; "
        f"documented but not in the route table: {sorted(stale)}")
    for gates in served.values():
        assert list(gates) == [g for g in GATES if g in gates], gates


def test_every_serve_status_is_documented_and_vice_versa():
    """The status table and the closed STATUS_REASONS set must agree."""
    from repro.serve import STATUS_REASONS

    documented = {
        int(code) for code in re.findall(r"^\| `(\d{3})` \|", _serve_doc(),
                                         re.MULTILINE)
    }
    assert documented == set(STATUS_REASONS), (
        f"undocumented statuses: {sorted(set(STATUS_REASONS) - documented)}; "
        f"documented but unemittable: {sorted(documented - set(STATUS_REASONS))}"
    )


def _serve_metric_names(small_jpeg):
    """Boot a server, run a representative workload, return serve.* names."""
    import asyncio

    from repro.serve import LeptonServer, ServeClient, ServeConfig

    async def _main():
        server = LeptonServer(ServeConfig(chunk_size=4096, quota_bytes=10**6))
        await server.start()
        try:
            async with ServeClient("127.0.0.1", server.port) as client:
                put = await client.put_file(small_jpeg)
                await client.get_file(put.json()["id"])
                await client.get_file(put.json()["id"],
                                      byte_range="bytes=0-9")
                await client.request("GET", "/healthz")
                await client.request("GET", "/metrics")
        finally:
            await server.drain()
        return {name for name in server.registry.names()
                if name.startswith("serve.")}

    return asyncio.run(_main())


def test_every_serve_metric_is_documented_and_vice_versa(small_jpeg):
    """All serve.* instruments appear in docs/serve.md and vice versa.

    Instruments are pre-declared at server startup, so one in-process
    workload registers the complete surface.
    """
    documented = {
        name for name in re.findall(r"`([a-z0-9_.]+(?:\.[a-z0-9_]+)+)`",
                                    _serve_doc())
        if name.startswith("serve.")
    }
    emitted = _serve_metric_names(small_jpeg)
    assert emitted, "serve workload emitted no serve.* metrics"
    assert emitted == documented, (
        f"emitted but undocumented: {sorted(emitted - documented)}; "
        f"documented but never registered: {sorted(documented - emitted)}"
    )


def test_healthz_carries_the_documented_sections(small_jpeg):
    """docs/serve.md names the /healthz sections (`breakers` board with
    per-route state, `uploads` progress counters, the codec `workers`); a
    live response must really carry them, with exactly the documented
    keys."""
    import asyncio

    from repro.serve import LeptonServer, ServeClient, ServeConfig

    async def _main():
        server = LeptonServer(ServeConfig(chunk_size=4096))
        await server.start()
        try:
            async with ServeClient("127.0.0.1", server.port) as client:
                put = await client.put_file(small_jpeg)
                await client.get_file(put.json()["id"])
                return (await client.request("GET", "/healthz")).json()
        finally:
            await server.drain()

    health = asyncio.run(_main())
    assert set(health["uploads"]) == {"open", "completed", "recovered",
                                      "dropped_parts"}
    assert set(health["workers"]) == {"size", "live", "pids", "coders",
                                      "busy", "restarts"}
    board = health["breakers"]
    assert board, "no breaker entries after data-plane traffic"
    for route, entry in board.items():
        assert route.startswith("/"), route
        assert set(entry) == {"state", "failures", "trips", "retry_after"}
        assert entry["state"] in ("closed", "open", "half_open")


def test_documented_codec_metrics_are_emitted(small_jpeg):
    """The reverse direction, for the core codec table: the contract's
    headline metrics really exist after one compress+decompress."""
    from repro import compress, decompress
    from repro.obs import get_registry

    result = compress(small_jpeg)
    decompress(result.payload)
    names = set(get_registry().names())
    for expected in [
        "lepton.compress.attempts",
        "lepton.compress.exit_codes",
        "lepton.compress.input_bytes",
        "lepton.compress.output_bytes",
        "lepton.compress.seconds",
        "lepton.decompress.count",
        "lepton.decompress.seconds",
        "span.lepton.compress.wall_seconds",
        "span.lepton.encode.parse.wall_seconds",
        "span.lepton.encode.scan_decode.wall_seconds",
        "span.lepton.encode.verify_index.wall_seconds",
        "span.lepton.encode.code_segment.wall_seconds",
        "span.lepton.encode.container.wall_seconds",
        "span.lepton.decompress.wall_seconds",
    ]:
        assert expected in names, f"{expected} missing from the registry"
