"""Command-line interface.

Mirrors the original tools' usage: a reference FASTA, a guide table,
budgets, and an engine choice; emits hits as BED-like rows plus a
summary with the platform's modeled timing. A second subcommand runs
the cross-platform evaluation harness on a synthetic workload.

Examples::

    repro-offtarget search ref.fa guides.txt --mismatches 3 --engine fpga
    repro-offtarget search ref.fa guides.txt --workers 4 --stats-json run.json
    repro-offtarget evaluate --guides 10 --mismatches 3
    repro-offtarget synthesize --length 2000000 --out ref.fa
    repro-offtarget check --guides guides.txt --platform all
    repro-offtarget check --anml exported.anml --lint src --json
    repro-offtarget serve ref.fa --port 7911
    repro-offtarget query guides.txt --port 7911 --stats-json -
    repro-offtarget design region.fa --genome ref.fa --nuclease NNGRRT

Exit codes: 0 success (for ``check``: no errors found), 1 the check
found errors, 2 usage or input errors (bad flags, unreadable files,
unreachable service), 3 the service shed the request (queue at
capacity, or the request's deadline expired before dispatch).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .analysis.speedup import speedup_matrix
from .analysis.tables import render_table
from .analysis.workloads import StandardWorkload, evaluate_platforms
from .core.search import OffTargetSearch, SearchBudget
from .errors import (
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
)
from .genome.fasta import read_fasta, write_fasta
from .genome.synthetic import random_genome
from .grna.library import parse_guide_table

if TYPE_CHECKING:
    from .service.server import JsonLinesServer


#: Exit code for requests the service refused or expired (distinct from
#: success (0), check failures (1), and usage/input errors (2)).
EXIT_OVERLOADED = 3


def _positive_int(value: str) -> int:
    """Argparse type for flags that must be a positive integer."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {parsed}"
        )
    return parsed


def _nonnegative_int(value: str) -> int:
    """Argparse type for flags that must be a non-negative integer."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if parsed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {parsed}"
        )
    return parsed


def _request_timeout(value: str) -> float:
    """Argparse type for a request timeout (see ``checked_timeout``)."""
    from .service.api import checked_timeout

    try:
        seconds = float(value)
        checked_timeout(seconds)
    except (ValueError, ServiceError) as error:
        raise argparse.ArgumentTypeError(str(error))
    return seconds


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mismatches", type=_nonnegative_int, default=3, help="mismatch budget"
    )
    parser.add_argument(
        "--rna-bulges", type=_nonnegative_int, default=0, help="RNA bulge budget"
    )
    parser.add_argument(
        "--dna-bulges", type=_nonnegative_int, default=0, help="DNA bulge budget"
    )


def _budget_from(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(
        mismatches=args.mismatches,
        rna_bulges=args.rna_bulges,
        dna_bulges=args.dna_bulges,
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the three-subcommand argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-offtarget",
        description="Automata-based gRNA off-target search (HPCA'18 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser("search", help="search a reference for off-targets")
    search.add_argument("reference", help="reference FASTA path")
    search.add_argument("guides", help="guide table path (name  protospacer)")
    search.add_argument("--pam", default="NGG", help="PAM name or IUPAC pattern")
    search.add_argument(
        "--engine",
        default="hyperscan",
        help="engine or baseline: cpu-nfa, hyperscan, infant2, fpga, ap, cas-offinder, casot",
    )
    search.add_argument("--out", help="write hits to this file instead of stdout")
    search.add_argument(
        "--format", choices=("bed", "tsv"), default="bed", help="output format"
    )
    search.add_argument(
        "--chunk-length",
        type=_positive_int,
        default=None,
        help="genome chunk size for --workers (default 1048576)",
    )
    search.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help=(
            "shard the search across N processes (1 = sharded but serial, "
            "in-process); results are identical to the serial path"
        ),
    )
    search.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="per-shard attempt deadline in seconds (needs --workers)",
    )
    search.add_argument(
        "--stats-json",
        metavar="PATH",
        help=(
            "write run statistics (per-shard timings, retry counts, "
            "report-rate metrics) as JSON to PATH ('-' for stdout)"
        ),
    )
    _add_budget_arguments(search)

    evaluate = commands.add_parser(
        "evaluate", help="cross-platform modeled-time comparison on a synthetic workload"
    )
    evaluate.add_argument("--guides", type=int, default=10, help="guide count")
    evaluate.add_argument(
        "--functional-length", type=int, default=2_000_000, help="functional genome bp"
    )
    evaluate.add_argument(
        "--modeled-length", type=int, default=3_100_000_000, help="modeled genome bp"
    )
    evaluate.add_argument("--seed", type=int, default=20180224)
    _add_budget_arguments(evaluate)

    synthesize = commands.add_parser("synthesize", help="generate a synthetic reference")
    synthesize.add_argument("--length", type=_positive_int, default=1_000_000)
    synthesize.add_argument("--seed", type=int, default=0)
    synthesize.add_argument("--gc", type=float, default=0.41)
    synthesize.add_argument("--name", default="chrSyn1")
    synthesize.add_argument("--out", required=True, help="output FASTA path")

    serve = commands.add_parser(
        "serve", help="run the batch-serving layer over a local socket"
    )
    serve.add_argument("reference", help="reference FASTA, loaded once at startup")
    serve.add_argument("--session", default="default", help="session id clients name")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=_nonnegative_int,
        default=0,
        help="bind port (0 = pick a free port; the chosen one is announced)",
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=128,
        help="admission-control bound; requests beyond it are shed",
    )
    serve.add_argument(
        "--cache-capacity",
        type=_positive_int,
        default=256,
        help="compiled-guide LRU cache entries",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help=(
            "size of the one shard-worker pool; forked on the first pooled "
            "search and kept until shutdown. Workers inherit the loaded "
            "genome and keep their own lane index; a session registered "
            "later forks them once more (1 searches in-process)"
        ),
    )
    serve.add_argument(
        "--chunk-length", type=_positive_int, default=1 << 20, help="genome chunk size"
    )
    serve.add_argument(
        "--platform",
        choices=("ap", "fpga", "none"),
        default="none",
        help="device whose capacity bounds each pass (via the CAP pre-flight)",
    )
    serve.add_argument(
        "--max-connections",
        type=_positive_int,
        default=64,
        help="concurrent-connection cap; connections beyond it are refused "
        "with a typed 'overloaded' line",
    )
    serve.add_argument(
        "--drain-deadline",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT (or the 'drain' op): stop accepting, give "
        "in-flight requests this long to finish, then exit",
    )

    route = commands.add_parser(
        "route",
        help="run the cluster router over N running serve backends",
    )
    route.add_argument(
        "--backends",
        nargs="+",
        required=True,
        metavar="HOST:PORT",
        help="backend serve endpoints; order fixes the stable backend "
        "names (b0, b1, ...) the hash ring and stats use",
    )
    route.add_argument("--host", default="127.0.0.1", help="bind address")
    route.add_argument(
        "--port",
        type=_nonnegative_int,
        default=0,
        help="bind port (0 = pick a free port; the chosen one is announced)",
    )
    route.add_argument(
        "--replicas",
        type=_positive_int,
        default=2,
        help="failover width: how many ring-preference backends may serve "
        "one key (primary + failover candidates)",
    )
    route.add_argument(
        "--virtual-nodes",
        type=_positive_int,
        default=64,
        help="hash-ring points per backend (higher = smoother balance)",
    )
    route.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="health-probe cadence per backend",
    )
    route.add_argument(
        "--probe-timeout",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="per-probe connection/read budget",
    )
    route.add_argument(
        "--failure-threshold",
        type=_positive_int,
        default=3,
        help="consecutive probe/traffic failures before a backend is "
        "quarantined",
    )
    route.add_argument(
        "--recovery-threshold",
        type=_positive_int,
        default=2,
        help="consecutive probe successes before a quarantined backend "
        "rejoins (the hysteresis that stops flapping nodes thrashing "
        "the ring)",
    )
    route.add_argument(
        "--drain-deadline",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT (or the 'drain' op): stop accepting, give "
        "in-flight forwards this long to finish, then exit",
    )
    route.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=64,
        help="router admission bound; requests beyond it are shed with a "
        "typed 'overloaded' line",
    )
    route.add_argument(
        "--stats-json",
        metavar="PATH",
        help="write router metrics (members, failovers, re-issues, warmup "
        "forwards) as JSON to PATH ('-' for stdout) on exit",
    )

    query = commands.add_parser("query", help="query a running serve instance")
    query.add_argument("guides", help="guide table path (name  protospacer)")
    query.add_argument("--pam", default="NGG", help="PAM name or IUPAC pattern")
    query.add_argument("--host", default="127.0.0.1", help="service address")
    query.add_argument("--port", type=_positive_int, required=True, help="service port")
    query.add_argument("--session", default="default", help="genome session to search")
    query.add_argument(
        "--timeout",
        type=_request_timeout,
        default=None,
        metavar="SECONDS",
        help="deadline for dispatch and retries (finite, > 0); an expired "
        "request exits with code 3",
    )
    query.add_argument(
        "--retries",
        type=_positive_int,
        default=3,
        metavar="ATTEMPTS",
        help="total attempts for safe failure classes (transport faults, "
        "overload sheds); retried queries carry a request id the server "
        "deduplicates, so 1 disables retrying",
    )
    query.add_argument("--out", help="write hits to this file instead of stdout")
    query.add_argument(
        "--format", choices=("bed", "tsv"), default="bed", help="output format"
    )
    query.add_argument(
        "--stats-json",
        metavar="PATH",
        help=(
            "write request + service metrics (coalesced batches, cache hit "
            "rate, shed requests) as JSON to PATH ('-' for stdout)"
        ),
    )
    _add_budget_arguments(query)

    design = commands.add_parser(
        "design",
        help="design guides for a region: enumerate, coalesced vet, score, rank",
    )
    design.add_argument("region", help="target-region FASTA to design guides for")
    design.add_argument(
        "--genome",
        help="reference FASTA to vet off-targets against "
        "(default: the region itself — self-vetting a small construct)",
    )
    design.add_argument(
        "--pam",
        "--nuclease",
        dest="pam",
        default="NGG",
        help="PAM preset or IUPAC pattern (NGG, NAG, NRG, TTTV, NNGRRT, ...)",
    )
    design.add_argument(
        "--guide-length",
        type=_positive_int,
        default=20,
        help="protospacer length; short (<16 nt) tru-gRNA designs are allowed",
    )
    design.add_argument(
        "--weights",
        metavar="PATH",
        help="JSON score-weight table overriding the defaults "
        "(see repro.design.score.ScoreWeights)",
    )
    design.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="shard the coalesced genome pass across N processes",
    )
    design.add_argument(
        "--chunk-length", type=_positive_int, default=1 << 20, help="genome chunk size"
    )
    design.add_argument(
        "--platform",
        choices=("ap", "fpga", "all", "none"),
        default="none",
        help="device(s) the candidate panel is capacity pre-flighted "
        "against (the DSG003 rule)",
    )
    design.add_argument(
        "--capacity-stes",
        type=_positive_int,
        default=None,
        help="override the device STE capacity for the pre-flight",
    )
    design.add_argument(
        "--format", choices=("tsv", "json"), default="tsv", help="report format"
    )
    design.add_argument(
        "--out", help="write the ranked report to this file instead of stdout"
    )
    design.add_argument(
        "--stats-json",
        metavar="PATH",
        help=(
            "write run statistics (candidate counts, panel size, genome "
            "passes, pipeline spans) as JSON to PATH ('-' for stdout)"
        ),
    )
    _add_budget_arguments(design)

    check = commands.add_parser(
        "check",
        help="statically verify automata, device capacity, and project invariants",
    )
    check.add_argument("--guides", help="guide table to compile and verify")
    check.add_argument("--pam", default="NGG", help="PAM name or IUPAC pattern")
    check.add_argument(
        "--platform",
        choices=("ap", "fpga", "all", "none"),
        default="all",
        help="device(s) for the capacity pre-flight (with --guides)",
    )
    check.add_argument(
        "--capacity-stes",
        type=_positive_int,
        default=None,
        help="override the device STE capacity (exercise over-capacity findings)",
    )
    check.add_argument(
        "--anml",
        nargs="*",
        default=(),
        metavar="PATH",
        help="ANML files to load permissively and verify",
    )
    check.add_argument(
        "--lint",
        nargs="*",
        default=(),
        metavar="PATH",
        help="python files or directories to run the project-invariant linter on",
    )
    check.add_argument(
        "--prove",
        action="store_true",
        help=(
            "prove each compiled guide's automaton recognises exactly the "
            "within-budget off-target language (with --guides); on refutation "
            "the finding carries the shortest distinguishing input"
        ),
    )
    check.add_argument(
        "--prove-max-states",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "state-blowup guard for the prover's determinisation and "
            "reference construction (default: repro.check.prove default)"
        ),
    )
    check.add_argument(
        "--json", dest="as_json", action="store_true", help="emit diagnostics as JSON"
    )
    check.add_argument(
        "--verbose", action="store_true", help="also list INFO diagnostics in text mode"
    )
    check.add_argument(
        "--stats-json",
        metavar="PATH",
        help=(
            "write check statistics (prover states explored, proofs, "
            "counterexamples, minimisation passes) as JSON to PATH "
            "('-' for stdout)"
        ),
    )
    _add_budget_arguments(check)
    return parser


def _command_search(args: argparse.Namespace) -> int:
    from .analysis.report_io import write_bed, write_tsv
    from .core.parallel import ParallelSearch

    if args.chunk_length is not None and args.workers is None:
        raise ReproError("--chunk-length needs --workers (it sizes the shards)")
    if args.shard_timeout is not None and args.workers is None:
        raise ReproError("--shard-timeout needs --workers (it bounds a shard attempt)")
    records = read_fasta(args.reference)
    library = parse_guide_table(args.guides, pam=args.pam)
    budget = _budget_from(args)
    hits = []
    total_length = sum(len(record.sequence) for record in records)
    stats_payload = {
        "command": "search",
        "reference": args.reference,
        "engine": args.engine,
        "workers": args.workers,
        "num_sequences": len(records),
        "genome_length": total_length,
        "num_guides": len(library),
        "budget": {
            "mismatches": budget.mismatches,
            "rna_bulges": budget.rna_bulges,
            "dna_bulges": budget.dna_bulges,
        },
    }
    if args.workers is not None:
        executor = ParallelSearch(
            library,
            budget,
            workers=args.workers,
            chunk_length=args.chunk_length or (1 << 20),
            shard_timeout=args.shard_timeout,
        )
        hits, per_sequence = executor.search_many_with_stats(
            record.sequence for record in records
        )
        mode = "pooled" if args.workers > 1 else "serial"
        stats_payload["mode"] = f"sharded-{mode}"
        stats_payload["parallel"] = per_sequence
        retries = sum(s["fault_tolerance"]["retries"] for s in per_sequence)
        print(
            f"# sharded search ({args.workers} worker(s), {mode}) over "
            f"{len(records)} sequence(s), {len(hits)} hits, {retries} retries",
            file=sys.stderr,
        )
    else:
        search = OffTargetSearch(library, budget)
        stats_payload["mode"] = "engine"
        engine_runs = []
        modeled_total = 0.0
        measured_total = 0.0
        for record in records:
            report = search.run(record.sequence, engine=args.engine)
            hits.extend(report.hits)
            modeled_total += report.modeled_seconds
            measured_total += report.measured_seconds
            engine_runs.append(
                {
                    "sequence": record.sequence.name,
                    "modeled_seconds": report.modeled_seconds,
                    "modeled_kernel_seconds": report.modeled_kernel_seconds,
                    "measured_seconds": report.measured_seconds,
                    "hits": report.num_hits,
                    "stats": report.stats,
                }
            )
            print(f"# {report.summary()}", file=sys.stderr)
        stats_payload["modeled_seconds"] = modeled_total
        stats_payload["measured_seconds"] = measured_total
        stats_payload["engine_runs"] = engine_runs
    stats_payload["num_hits"] = len(hits)
    stats_payload["report_events_per_mbp"] = (
        1e6 * len(hits) / total_length if total_length else 0.0
    )
    writer = write_bed if args.format == "bed" else write_tsv
    if args.out:
        count = writer(hits, args.out)
        print(f"# wrote {count} hits to {args.out}", file=sys.stderr)
    else:
        writer(hits, sys.stdout)
    if args.stats_json:
        if args.stats_json == "-":
            json.dump(stats_payload, sys.stdout, indent=2, default=repr)
            sys.stdout.write("\n")
        else:
            with open(args.stats_json, "w", encoding="ascii") as handle:
                json.dump(stats_payload, handle, indent=2, default=repr)
            print(f"# wrote run stats to {args.stats_json}", file=sys.stderr)
    print(f"# total hits: {len(hits)}", file=sys.stderr)
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    workload = StandardWorkload(
        name="cli",
        modeled_genome_length=args.modeled_length,
        functional_genome_length=args.functional_length,
        num_guides=args.guides,
        budget=_budget_from(args),
        seed=args.seed,
    )
    tools = ("hyperscan", "infant2", "fpga", "ap", "casot") + (
        () if workload.budget.has_bulges else ("cas-offinder",)
    )
    results = evaluate_platforms(workload, tools=tools)
    rows = [
        [
            record.tool,
            f"{record.modeled_total:.1f}",
            f"{record.modeled_kernel:.1f}",
            record.num_hits,
        ]
        for record in results
    ]
    print(render_table(["tool", "modeled total s", "modeled kernel s", "hits"], rows))
    baselines = [tool for tool in ("cas-offinder", "casot") if tool in tools]
    matrix = speedup_matrix(results, baselines)
    rows = [
        [tool, *(f"{matrix[tool][baseline]:.1f}x" for baseline in baselines)]
        for tool in matrix
    ]
    print()
    print(render_table(["tool", *[f"vs {b}" for b in baselines]], rows, title="Speedups"))
    return 0


def _command_synthesize(args: argparse.Namespace) -> int:
    genome = random_genome(args.length, seed=args.seed, gc_content=args.gc, name=args.name)
    write_fasta([genome], args.out)
    print(f"wrote {args.length:,} bp to {args.out}", file=sys.stderr)
    return 0


def _serve_until_signalled(server: JsonLinesServer, draining: str) -> None:
    """Run a started *server* until it stops, then drain it.

    SIGTERM/SIGINT begin a graceful drain: stop accepting, finish the
    work already admitted (under the drain deadline), then return. The
    handler only flags the drain; the blocking work happens in the
    drain thread, and serve_forever returns once it completes.
    """
    import signal

    def _begin_drain(signum: int, frame: object) -> None:
        print(
            f"# received signal {signum}; draining {draining}",
            file=sys.stderr,
            flush=True,
        )
        server.request_drain()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _begin_drain),
        signal.SIGINT: signal.signal(signal.SIGINT, _begin_drain),
    }
    try:
        server.serve_forever()
    finally:
        server.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _command_serve(args: argparse.Namespace) -> int:
    from .platforms.spec import ApSpec, FpgaSpec
    from .service import OffTargetServer, OffTargetService

    capacity_spec = None
    if args.platform == "ap":
        capacity_spec = ApSpec()
    elif args.platform == "fpga":
        capacity_spec = FpgaSpec()
    service = OffTargetService(
        cache_capacity=args.cache_capacity,
        max_queue_depth=args.max_queue,
        workers=args.workers,
        chunk_length=args.chunk_length,
        capacity_spec=capacity_spec,
    )
    session = service.add_genome(args.session, args.reference)
    server = OffTargetServer(
        service,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        drain_deadline_seconds=args.drain_deadline,
    )
    host, port = server.start()
    # The announce line is the machine-readable contract the e2e tests
    # (and shell scripts) parse for the OS-chosen port; keep its shape.
    print(
        f"# serving session {session.session_id!r} "
        f"({session.total_length:,} bp, {len(session.sequences)} sequence(s)) "
        f"on {host}:{port}",
        flush=True,
    )
    _serve_until_signalled(server, "admitted requests")
    return 0


def _command_route(args: argparse.Namespace) -> int:
    from .check import check_router_config
    from .cluster import ClusterRouter, RouterConfig, specs_from_endpoints

    config = RouterConfig(
        backends=specs_from_endpoints(args.backends),
        replicas=args.replicas,
        virtual_nodes=args.virtual_nodes,
        probe_interval_seconds=args.probe_interval,
        probe_timeout_seconds=args.probe_timeout,
        failure_threshold=args.failure_threshold,
        recovery_threshold=args.recovery_threshold,
        drain_deadline_seconds=args.drain_deadline,
        max_inflight=args.max_inflight,
    )
    # Surface the SVC008-SVC011 report before binding anything: a
    # misconfigured router should fail loudly at launch, not route
    # wrongly under load.
    report = check_router_config(config)
    if report.errors or report.warnings:
        print(report.to_text(), file=sys.stderr)
    if report.errors:
        return 2
    router = ClusterRouter(config, host=args.host, port=args.port)
    host, port = router.start(probe=True)
    endpoints = ", ".join(
        f"{spec.name}={spec.endpoint}" for spec in config.backends
    )
    # Same announce-line contract as `serve`: the e2e tests parse it.
    print(
        f"# routing {len(config.backends)} backend(s) ({endpoints}) "
        f"on {host}:{port}",
        flush=True,
    )
    _serve_until_signalled(router, "in-flight forwards")
    if args.stats_json:
        payload = {"command": "route", "stats": router.stats()}
        if args.stats_json == "-":
            json.dump(payload, sys.stdout, indent=2, default=repr)
            print(flush=True)
        else:
            with open(args.stats_json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, default=repr)
            print(f"# wrote router stats to {args.stats_json}", file=sys.stderr)
    return 0


def _command_query(args: argparse.Namespace) -> int:
    from .analysis.report_io import write_bed, write_tsv
    from .service import RetryPolicy, ServiceClient

    library = parse_guide_table(args.guides, pam=args.pam)
    budget = _budget_from(args)
    retry = RetryPolicy(max_attempts=args.retries) if args.retries > 1 else None
    try:
        with ServiceClient(args.host, args.port, retry=retry) as client:
            result = client.query(
                tuple(library),
                budget,
                session_id=args.session,
                timeout_seconds=args.timeout,
            )
            service_stats = client.stats() if args.stats_json else None
    except (ServiceOverloadedError, DeadlineExceededError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_OVERLOADED
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    hits = list(result.hits)
    writer = write_bed if args.format == "bed" else write_tsv
    if args.out:
        count = writer(hits, args.out)
        print(f"# wrote {count} hits to {args.out}", file=sys.stderr)
    else:
        writer(hits, sys.stdout)
    if args.stats_json:
        payload = {
            "command": "query",
            "request_id": result.request_id,
            "num_hits": len(hits),
            "num_guides": len(library),
            "budget": {
                "mismatches": budget.mismatches,
                "rna_bulges": budget.rna_bulges,
                "dna_bulges": budget.dna_bulges,
            },
            "request": result.stats,
            "service": service_stats,
        }
        if args.stats_json == "-":
            json.dump(payload, sys.stdout, indent=2, default=repr)
            sys.stdout.write("\n")
        else:
            with open(args.stats_json, "w", encoding="ascii") as handle:
                json.dump(payload, handle, indent=2, default=repr)
            print(f"# wrote run stats to {args.stats_json}", file=sys.stderr)
    print(f"# total hits: {len(hits)}", file=sys.stderr)
    return 0


def _command_design(args: argparse.Namespace) -> int:
    from .check import check_design_request
    from .design import (
        enumerate_candidates,
        render_design_tsv,
        report_to_json,
        run_design,
        weights_from_mapping,
    )
    from .grna.pam import get_pam

    pam = get_pam(args.pam)
    budget = _budget_from(args)
    region = [record.sequence for record in read_fasta(args.region)]
    genome = None
    if args.genome:
        genome = [record.sequence for record in read_fasta(args.genome)]

    raw_weights = None
    if args.weights:
        with open(args.weights, "r", encoding="ascii") as handle:
            try:
                raw_weights = json.load(handle)
            except json.JSONDecodeError as error:
                print(f"error: unreadable --weights JSON: {error}", file=sys.stderr)
                return 2
        if not isinstance(raw_weights, dict):
            print("error: --weights must be a JSON object", file=sys.stderr)
            return 2

    # The DSG pre-flight runs before any genome pass is paid: an empty
    # panel, a malformed weight table, or an unplaceable panel fails
    # here with diagnostics instead of a mid-pipeline exception.
    candidates = enumerate_candidates(region, pam, guide_length=args.guide_length)
    preflight = check_design_request(
        candidates,
        pam,
        guide_length=args.guide_length,
        weights=raw_weights,
        budget=budget,
        specs=_check_specs(args),
        subject=args.region,
    )
    if not preflight.ok:
        print(preflight.to_text(), file=sys.stderr)
        return 1

    weights = weights_from_mapping(raw_weights, guide_length=args.guide_length)
    report = run_design(
        region,
        genome,
        pam,
        guide_length=args.guide_length,
        budget=budget,
        weights=weights,
        workers=args.workers,
        chunk_length=args.chunk_length,
    )
    if args.format == "tsv":
        rendered = render_design_tsv(report)
    else:
        rendered = json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(rendered)
        print(f"# wrote {report.num_candidates} candidates to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    if args.stats_json:
        payload = {
            "command": "design",
            "region": args.region,
            "genome": args.genome,
            "pam": pam.name,
            "guide_length": args.guide_length,
            "budget": {
                "mismatches": budget.mismatches,
                "rna_bulges": budget.rna_bulges,
                "dna_bulges": budget.dna_bulges,
            },
            "num_candidates": report.num_candidates,
            "panel_guides": report.panel_guides,
            "genome_passes": report.genome_passes,
            "stats": report.stats,
        }
        if args.stats_json == "-":
            json.dump(payload, sys.stdout, indent=2, default=repr)
            sys.stdout.write("\n")
        else:
            with open(args.stats_json, "w", encoding="ascii") as handle:
                json.dump(payload, handle, indent=2, default=repr)
            print(f"# wrote design stats to {args.stats_json}", file=sys.stderr)
    print(f"# {report.summary()}", file=sys.stderr)
    return 0


def _check_specs(args: argparse.Namespace) -> tuple:
    """The device specs the capacity pre-flight should run against.

    ``--capacity-stes N`` swaps in same-shape specs whose usable
    capacity is exactly N STEs, so over-capacity diagnostics can be
    exercised (and tested) without a genome-scale guide set.
    """
    from .platforms.spec import ApSpec, FpgaSpec

    specs = []
    if args.platform in ("ap", "all"):
        if args.capacity_stes is None:
            specs.append(ApSpec())
        else:
            specs.append(
                ApSpec(
                    stes_per_chip=args.capacity_stes,
                    chips_per_rank=1,
                    ranks=1,
                    routable_fraction=1.0,
                )
            )
    if args.platform in ("fpga", "all"):
        if args.capacity_stes is None:
            specs.append(FpgaSpec())
        else:
            default = FpgaSpec()
            specs.append(
                FpgaSpec(luts=int(args.capacity_stes * default.luts_per_ste))
            )
    return tuple(specs)


def _command_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .automata.anml import from_anml
    from .check import (
        PROVE_OBS,
        CheckReport,
        check_compiled_library,
        check_element_network,
        check_homogeneous,
        check_strided,
        equivalence_diagnostics,
        lint_paths,
    )
    from .check.prove import DEFAULT_MAX_STATES
    from .core.compiler import _segments, compile_library

    if not (args.guides or args.anml or args.lint):
        print(
            "error: nothing to check; pass --guides, --anml, and/or --lint",
            file=sys.stderr,
        )
        return 2
    if args.prove and not args.guides:
        print("error: --prove needs --guides to compile and verify", file=sys.stderr)
        return 2

    report = CheckReport()
    if args.guides:
        library = parse_guide_table(args.guides, pam=args.pam)
        budget = _budget_from(args)
        compiled = compile_library(library, budget)
        report.extend(check_compiled_library(compiled, specs=_check_specs(args)))
        if not budget.has_bulges:
            # Mismatch-only budgets also admit the paper's alternative
            # designs; verify those forms of every guide too.
            from .automata.striding import build_strided_hamming
            from .core.counter_design import build_counter_design

            for compiled_guide in compiled.guides:
                guide = compiled_guide.guide
                for strand in ("+", "-"):
                    segments = _segments(guide, reverse=strand == "-")

                    def label(mismatches: int, name: str = guide.name) -> tuple:
                        return (name, mismatches)

                    strided = build_strided_hamming(
                        segments, budget.mismatches, label_factory=label
                    )
                    report.extend(
                        check_strided(
                            strided, subject=f"strided:{guide.name}{strand}"
                        )
                    )
                    network = build_counter_design(
                        segments, budget.mismatches, label=guide.name
                    )
                    report.extend(
                        check_element_network(
                            network, subject=f"counter:{guide.name}{strand}"
                        )
                    )
        if args.prove:
            report.extend(
                equivalence_diagnostics(
                    compiled,
                    max_states=args.prove_max_states or DEFAULT_MAX_STATES,
                )
            )
    for path in args.anml:
        automaton = from_anml(Path(path), strict=False)
        report.extend(check_homogeneous(automaton, subject=path))
    if args.lint:
        report.extend(lint_paths(args.lint))

    if args.as_json:
        print(report.to_json(indent=2))
    else:
        print(report.to_text(verbose=args.verbose))
    if args.stats_json:
        payload = {
            "command": "check",
            "num_diagnostics": len(report),
            "num_errors": len(report.errors),
            "num_warnings": len(report.warnings),
            "rules": sorted(report.rules()),
            "prove": PROVE_OBS.snapshot() if args.prove else None,
        }
        if args.stats_json == "-":
            json.dump(payload, sys.stdout, indent=2, default=repr)
            sys.stdout.write("\n")
        else:
            with open(args.stats_json, "w", encoding="ascii") as handle:
                json.dump(payload, handle, indent=2, default=repr)
            print(f"# wrote check stats to {args.stats_json}", file=sys.stderr)
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "search": _command_search,
        "evaluate": _command_evaluate,
        "synthesize": _command_synthesize,
        "check": _command_check,
        "serve": _command_serve,
        "route": _command_route,
        "query": _command_query,
        "design": _command_design,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # Unreadable reference/guide paths or unwritable outputs reach
        # here; report them the same way as library errors instead of
        # dumping a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
