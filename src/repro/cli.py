"""``lepton`` command-line tool: compress/decompress/verify JPEG files.

Mirrors the stand-alone binary of the paper: reads a file (or stdin),
writes the converted output, and reports the §6.2 exit code.  ``--stats``
dumps the process-wide metrics registry afterwards, ``--trace`` writes the
span trace as JSON lines, and ``lepton stats FILE`` runs a full
compress+decompress cycle purely to print its telemetry (see
docs/observability.md for the contract).
"""

import argparse
import sys
from typing import Optional

from repro.core.errors import ExitCode
from repro.core.lepton import (
    FORMAT_LEPTON,
    LeptonConfig,
    compress,
    decompress,
    decompress_chunks,
    roundtrip_check,
)
from repro.obs import get_registry, get_tracer

# The pinned §6.2 status table lives with the exit-code telemetry
# (repro.obs.exitcodes) and is re-exported here for the process boundary;
# lint rule D3 statically guarantees it pins every ExitCode member exactly
# once, replacing the import-time runtime guard that used to live here.
from repro.obs.exitcodes import EXIT_STATUS

#: The subcommand registry: feeds both argparse ``choices=`` and the
#: generated ``--help`` epilog, so the two can never drift apart.
COMMANDS = {
    "compress": "recompress a JPEG (or Deflate-fallback any file)",
    "decompress": "restore the original bytes from a compressed stream",
    "verify": "run the §5.5 round-trip admission gate on one file",
    "qualify": "run the §5.7 build-qualification gate over a directory",
    "stats": "compress+decompress one file purely for its telemetry",
    "lint": "run the determinism/safety static analysis (docs/lint.md)",
    "chaos": "replay a fault plan against the simulated fleet",
    "serve": "run the HTTP storage front-end (docs/serve.md)",
}

#: Commands with no input-path positional (the CLI injects a placeholder
#: to keep the flat positional grammar intact for everything else).
NO_INPUT_COMMANDS = ("chaos", "serve")


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _read_chunks(path: str, size: int = 1 << 20):
    """Yield the input in bounded chunks ('-' streams stdin)."""
    if path == "-":
        while True:
            chunk = sys.stdin.buffer.read(size)
            if not chunk:
                return
            yield chunk
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(size)
            if not chunk:
                return
            yield chunk


class _Sink:
    """Lazily-opened output writer.

    The destination is only created once the first piece arrives, so a
    decode that fails before producing a byte leaves no empty output
    file behind.  ``path=None`` just counts bytes.
    """

    def __init__(self, path):
        self.path = path
        self.bytes_written = 0
        self._handle = None

    def write(self, piece: bytes) -> None:
        self.bytes_written += len(piece)
        if self.path is None:
            return
        if self._handle is None:
            self._handle = (sys.stdout.buffer if self.path == "-"
                            else open(self.path, "wb"))
        self._handle.write(piece)

    def close(self) -> None:
        if self._handle is not None and self.path != "-":
            self._handle.close()


def _qualify(directory: str, config: LeptonConfig, quiet: bool) -> int:
    """Run the §5.7 qualification gate over every file in a directory."""
    import os

    from repro.corpus.builder import CorpusFile
    from repro.storage.qualification import qualify_build

    corpus = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                corpus.append(CorpusFile(name, handle.read(), "unknown"))
    report = qualify_build(corpus, build_id="cli", config=config)
    if not quiet:
        print(
            f"qualification: {report.files_total} files, "
            f"{report.compressed} compressed, {report.skipped} skipped, "
            f"{len(report.failures)} failures "
            f"-> {'QUALIFIED' if report.qualified else 'REJECTED'}",
            file=sys.stderr,
        )
        for failure in report.failures:
            print(f"  FAIL {failure.name}: {failure.reason}", file=sys.stderr)
    return 0 if report.qualified else 1


def _stats_command(data: bytes, config: LeptonConfig) -> int:
    """Compress (and, on success, decompress) purely for the telemetry."""
    result = compress(data, config)
    if result.format == FORMAT_LEPTON:
        decompress(result.payload)
    print(get_registry().render())
    return EXIT_STATUS[result.exit_code]


def _lint(path: str, as_json: bool, quiet: bool,
          changed: bool = False, cache_path: Optional[str] = None) -> int:
    """Run the determinism/safety static analysis (docs/lint.md)."""
    from pathlib import Path

    from repro.lint import LintEngine, collect_files, render_json, render_text
    from repro.lint.cache import GitUnavailable, LintCache, changed_files
    from repro.lint.engine import load_module

    files = collect_files([path])
    if changed:
        try:
            touched = set(changed_files(Path(path)))
            files = [f for f in files if f.resolve() in touched]
        except GitUnavailable as exc:
            print(f"lepton lint: --changed needs git ({exc}); "
                  "linting everything", file=sys.stderr)
    cache = LintCache(cache_path) if cache_path else None
    findings = LintEngine().run_modules([load_module(p) for p in files],
                                        cache=cache)
    if cache is not None:
        cache.save()
    render = render_json if as_json else render_text
    if not quiet or findings:
        print(render(findings, files_scanned=len(files)))
    return 1 if findings else 0


def _chaos(args) -> int:
    """Run a deterministic chaos experiment and print the report.

    The report is a pure function of ``(--seed, --plan)``: running the same
    pair twice must print byte-identical output (tested).  ``--backend``
    switches to the durability drill (docs/durability.md): the crash-
    recovery kill-point sweep plus the replicated scrub/repair exercise.
    ``--live`` goes further: it SIGKILLs *real* server subprocesses at
    every kill point and proves recovery over the wire (docs/serve.md);
    exit 0 iff the full sweep is survivable.
    """
    from repro.faults.chaos import run_backend_chaos, run_chaos
    from repro.faults.plan import FaultPlan

    if args.live:
        from repro.faults.livechaos import run_live_chaos

        live = run_live_chaos(seed=args.seed)
        print(live.to_json() if args.as_json else live.render(), end="")
        # Survivable = killed everywhere, lost nothing acked, served no
        # wrong byte, resumed every interrupted upload, bounded downtime.
        return 0 if live.survivable else 1

    plan = None
    if args.plan is not None:
        with open(args.plan, "r") as handle:
            plan = FaultPlan.from_json(handle.read())
    if args.backend:
        if plan is None:
            plan = FaultPlan.generate(seed=args.seed,
                                      duration=args.hours * 3600.0)
        durability = run_backend_chaos(
            plan, seed=args.seed, reads=args.reads, replicas=args.replicas,
        )
        print(durability.to_json() if args.as_json else durability.render(),
              end="")
        # A lost acknowledged put, a wrong byte, or an unhealed replica
        # all void the §5.7 promise.
        return 0 if durability.durable else 1
    report = run_chaos(
        plan=plan,
        seed=args.seed,
        hours=args.hours,
        reads=args.reads,
        policies=not args.no_policies,
    )
    print(report.to_json() if args.as_json else report.render(), end="")
    # Wrong bytes served is the one unforgivable outcome (§5.7).
    return 1 if report.wrong_bytes else 0


def _serve(args, config: LeptonConfig) -> int:
    """Run the HTTP front-end until SIGTERM, then drain (exit 7, §6.2)."""
    import asyncio
    import signal

    from repro.faults.killpoints import kill_points_from_env
    from repro.faults.plan import FaultPlan
    from repro.serve.app import ServeConfig, run_server

    plan = None
    if args.fault_plan is not None:
        with open(args.fault_plan, "r") as handle:
            plan = FaultPlan.from_json(handle.read())
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        quota_bytes=args.quota_bytes,
        lepton=config,
        drain_timeout=args.drain_timeout,
        shutoff_dir=args.shutoff_dir,
        fault_plan=plan,
        fault_seed=args.seed,
        data_dir=args.data_dir,
        replicas=args.replicas,
        scrub_interval=args.scrub_interval,
        idle_timeout=args.idle_timeout,
        # Armed only under the live chaos harness (LEPTON_KILL_POINT):
        # reaching the named protocol step SIGKILLs this process.
        kill=kill_points_from_env(),
    )
    if args.chunk_size is not None:
        serve_config.chunk_size = args.chunk_size

    async def _run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)

        def _ready(server) -> None:
            print(f"serving on http://{server.config.host}:{server.port}",
                  file=sys.stderr)

        await run_server(serve_config, stop=stop, on_ready=_ready)

    asyncio.run(_run())
    if not args.quiet:
        print("lepton: drained, shutting down", file=sys.stderr)
    return EXIT_STATUS[ExitCode.SERVER_SHUTDOWN]


def _dispatch(args, config: LeptonConfig) -> int:
    if args.command == "serve":
        return _serve(args, config)

    if args.command == "chaos":
        return _chaos(args)

    if args.command == "qualify":
        return _qualify(args.input, config, args.quiet)

    if args.command == "lint":
        return _lint(args.input, args.as_json, args.quiet,
                     changed=args.changed, cache_path=args.lint_cache)

    if args.command == "stats":
        return _stats_command(_read(args.input), config)

    if args.command == "compress":
        # Encoding sees the whole file (the §5.7 check re-encodes the
        # scan), so the input is read at once; a reject with
        # --no-fallback has no payload and creates no output file.
        result = compress(_read(args.input), config)
        if result.payload is None:
            print(f"rejected: {result.exit_code.value} ({result.detail})",
                  file=sys.stderr)
            return EXIT_STATUS[result.exit_code]
        sink = _Sink(args.output)
        try:
            sink.write(result.payload)
        finally:
            sink.close()
        if not args.quiet:
            print(
                f"{result.exit_code.value}: {result.input_size} -> "
                f"{result.output_size} bytes "
                f"({100 * result.savings_fraction:.1f}% saved, "
                f"{result.format})",
                file=sys.stderr,
            )
        return EXIT_STATUS[result.exit_code]

    if args.command == "decompress":
        # True pipe: output pieces are written before the final input
        # chunk is read (the Figure-1 time-to-first-byte path).
        sink = _Sink(args.output)
        bytes_in = 0

        def _counted():
            nonlocal bytes_in
            for chunk in _read_chunks(args.input):
                bytes_in += len(chunk)
                yield chunk

        try:
            for piece in decompress_chunks(_counted()):
                sink.write(piece)
        finally:
            sink.close()
        if not args.quiet:
            print(f"decoded {bytes_in} -> {sink.bytes_written} bytes",
                  file=sys.stderr)
        return 0

    # verify: the admission gate, end to end.
    result = roundtrip_check(_read(args.input), config)
    status = "ok" if result.ok else f"fell back ({result.exit_code.value})"
    if not args.quiet:
        print(f"verify: {status}", file=sys.stderr)
    return EXIT_STATUS[result.exit_code]


def main(argv=None) -> int:
    # The epilog is generated from COMMANDS, so ``lepton --help`` always
    # enumerates exactly the subcommands the parser accepts.
    epilog = "commands:\n" + "\n".join(
        f"  {name:<12}{help_line}" for name, help_line in COMMANDS.items()
    )
    parser = argparse.ArgumentParser(
        prog="lepton",
        description="Losslessly recompress baseline JPEG files (NSDI 2017 reproduction).",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("input",
                        help="input path (- for stdin); for qualify/lint: "
                             "a directory; unused by chaos/serve")
    parser.add_argument("output", nargs="?", default=None,
                        help="output path, or - for stdout")
    parser.add_argument("--threads", type=int, default=None,
                        help="thread-segment count (default: size-based)")
    parser.add_argument("--no-fallback", action="store_true",
                        help="fail instead of storing Deflate for rejects")
    parser.add_argument("--allow-cmyk", action="store_true",
                        help="enable the 4-component path production disables")
    parser.add_argument("--stats", action="store_true", dest="show_stats",
                        help="print the metrics registry to stderr afterwards")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write the span trace (JSON lines) to PATH")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="for lint/chaos: emit a JSON report")
    parser.add_argument("--changed", action="store_true",
                        help="for lint: only files differing from git HEAD "
                             "(falls back to a full run without git)")
    parser.add_argument("--cache", metavar="PATH", dest="lint_cache",
                        nargs="?", const=".lint-cache.json", default=None,
                        help="for lint: content-hash result cache file "
                             "(default %(const)s when given bare)")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--seed", type=int, default=0,
                        help="for chaos: the experiment seed")
    parser.add_argument("--plan", metavar="PATH", default=None,
                        help="for chaos: a FaultPlan JSON file "
                             "(default: generate from --seed)")
    parser.add_argument("--hours", type=float, default=0.5,
                        help="for chaos: simulated fleet hours")
    parser.add_argument("--reads", type=int, default=200,
                        help="for chaos: faulted storage reads to perform")
    parser.add_argument("--no-policies", action="store_true",
                        help="for chaos: disable retry/hedging/breakers/"
                             "fallback (the control run)")
    parser.add_argument("--backend", action="store_true",
                        help="for chaos: run the storage-backend "
                             "durability drill (kill-point crash sweep + "
                             "replicated scrub/repair) instead of the "
                             "fleet replay")
    parser.add_argument("--live", action="store_true",
                        help="for chaos: SIGKILL real server subprocesses "
                             "at every kill point and prove recovery over "
                             "the wire (docs/serve.md)")
    parser.add_argument("--replicas", type=int, default=3,
                        help="for chaos --backend / serve --data-dir: "
                             "storage replica count")
    parser.add_argument("--host", default="127.0.0.1",
                        help="for serve: bind address")
    parser.add_argument("--port", type=int, default=0,
                        help="for serve: bind port (0 = ephemeral)")
    parser.add_argument("--max-inflight", type=int, default=8,
                        help="for serve: concurrent file requests admitted")
    parser.add_argument("--queue-depth", type=int, default=16,
                        help="for serve: admission waiters before 503")
    parser.add_argument("--quota-bytes", type=int, default=None,
                        help="for serve: per-tenant logical byte budget")
    parser.add_argument("--fault-plan", metavar="PATH", default=None,
                        help="for serve: a FaultPlan JSON file injected "
                             "live (see docs/deployment.md)")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        help="for serve: seconds granted to in-flight "
                             "requests on SIGTERM")
    parser.add_argument("--shutoff-dir", metavar="DIR", default=None,
                        help="for serve: directory watched for the §5.7 "
                             "shutoff file (default: system temp)")
    parser.add_argument("--data-dir", metavar="DIR", default=None,
                        help="for serve: root of the filesystem replicas "
                             "and journals (default: keep them in memory)")
    parser.add_argument("--scrub-interval", type=float, default=None,
                        help="for serve: seconds between background "
                             "scrub passes")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="for serve: per-connection read timeout in "
                             "seconds (slow-loris guard; default: none)")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="for serve: storage chunk size in bytes "
                             "(default: the production 4 MiB; the live "
                             "chaos harness shrinks it so streamed reads "
                             "span chunks)")
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in NO_INPUT_COMMANDS and (len(argv) == 1
                                                  or argv[1].startswith("-")):
        # chaos/serve take no input path; inject a placeholder so the flat
        # positional grammar stays intact for every other command
        # (argparse's greedy matching breaks on optional positionals
        # when flags are interleaved, e.g. ``lint --json PATH``).
        argv.insert(1, "-")
    args = parser.parse_args(argv)

    config = LeptonConfig(
        threads=args.threads,
        deflate_fallback=not args.no_fallback,
        allow_cmyk=args.allow_cmyk,
    )

    # The §6.2 operational codes at the process boundary: an operator's
    # Ctrl-C and an allocator failure are conversion outcomes too, not
    # unclassified tracebacks.
    try:
        status = _dispatch(args, config)
    except KeyboardInterrupt:
        print("lepton: interrupted", file=sys.stderr)
        return EXIT_STATUS[ExitCode.OPERATOR_INTERRUPT]
    except MemoryError:
        print("lepton: out of memory", file=sys.stderr)
        return EXIT_STATUS[ExitCode.OOM_KILL]
    if args.show_stats and args.command != "stats":
        print(get_registry().render(), file=sys.stderr)
    if args.trace:
        try:
            get_tracer().export_jsonl(args.trace)
        except OSError as exc:
            print(f"lepton: cannot write trace: {exc}", file=sys.stderr)
            return status or 1
    return status


if __name__ == "__main__":
    sys.exit(main())
