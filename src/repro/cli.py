"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflow a downstream user runs:

* ``corpus``  — list the synthetic corpus programs and their stats;
* ``analyze`` — run the static pipeline on one program and print its
  aggregated call-transition summary;
* ``gadgets`` — scan a program's binary image for syscall gadgets;
* ``dot``     — export a CFG or the call graph as Graphviz DOT;
* ``train``   — train a detector on a workload and save the model;
* ``score``   — load a saved model and score trace segments from a file;
* ``trace``   — record a workload's traces to a log file (strace/ltrace role);
* ``score-trace`` — segment a trace log and score it with a saved model;
* ``serve``   — replay recorded traces through the micro-batched detection
  service (one session per trace) and report throughput/shed stats;
* ``gateway`` — serve the detection fleet over HTTP: async gateway +
  versioned model registry with warm-swap rollouts (``docs/gateway.md``);
* ``robustness`` — run the adversarial robustness grid (mimicry, drift,
  trace gaps) and write the measured corpus + report (``docs/robustness.md``);
* ``report``  — run a fast end-to-end summary of every experiment family;
* ``demo``    — end-to-end detection demo (train + attack + verdicts).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import telemetry
from .analysis import analyze_program
from .attacks import build_attack_events, payloads_for
from .core import build_detector, threshold_for_fp_budget
from .core.registry import MODEL_NAMES, model_is_context_sensitive
from .robustness import ATTACK_FAMILIES, DEFAULT_SEVERITIES
from .errors import EvaluationError
from .eval.tables import render_table
from .gadgets import TABLE_III_LENGTHS, gadget_surface, scan_gadgets
from .hmm import load_model, log_likelihood, save_model
from .program import ALL_PROGRAMS, CallKind, layout_program, load_program
from .runtime import ArtifactCache, ParallelExecutor, clamp_jobs, default_jobs
from .tracing import (
    build_segment_set,
    iter_segment_lines,
    read_traces,
    run_workload,
    segment_symbols,
    write_traces,
)


def _kind(value: str) -> CallKind:
    try:
        return CallKind(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown call kind {value!r}; use 'syscall' or 'libcall'"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CMarkov (DSN 2016) reproduction toolkit",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for parallel experiment cells "
             "(default: $REPRO_JOBS or 1; results are identical at any N)")
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="PATH",
        help="content-addressed artifact cache for trained models and "
             "static analyses (default: $REPRO_CACHE_DIR, else disabled)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache even if --cache-dir/$REPRO_CACHE_DIR "
             "is set")
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="PATH",
        help="enable telemetry and write the metrics/span snapshot as JSON "
             "to PATH on exit (default: $REPRO_METRICS_OUT, else disabled; "
             "see docs/telemetry.md for the schema)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("corpus", help="list the synthetic corpus programs")

    analyze = sub.add_parser("analyze", help="run static analysis on a program")
    analyze.add_argument("program", choices=ALL_PROGRAMS)
    analyze.add_argument("--kind", type=_kind, default=CallKind.SYSCALL)
    analyze.add_argument("--no-context", action="store_true")
    analyze.add_argument("--top", type=int, default=15,
                         help="print the TOP most likely call transitions")

    gadgets = sub.add_parser("gadgets", help="scan a program image for gadgets")
    gadgets.add_argument("program", choices=ALL_PROGRAMS)

    dot = sub.add_parser("dot", help="export CFG/call graph as Graphviz DOT")
    dot.add_argument("program", choices=ALL_PROGRAMS)
    dot.add_argument("--function", default=None,
                     help="emit this function's CFG instead of the call graph")

    train = sub.add_parser("train", help="train a detector and save the model")
    train.add_argument("program", choices=ALL_PROGRAMS)
    train.add_argument("--model", choices=MODEL_NAMES, default="cmarkov")
    train.add_argument("--kind", type=_kind, default=CallKind.SYSCALL)
    train.add_argument("--cases", type=int, default=60)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", type=Path, required=True)

    score = sub.add_parser("score", help="score segments with a saved model")
    score.add_argument("model_file", type=Path)
    score.add_argument("segments_file", type=Path,
                       help="text file, one space-separated segment per line")

    trace = sub.add_parser("trace", help="record workload traces to a log file")
    trace.add_argument("program", choices=ALL_PROGRAMS)
    trace.add_argument("--cases", type=int, default=20)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--output", type=Path, required=True)

    score_trace = sub.add_parser(
        "score-trace", help="segment a trace log and score it with a saved model"
    )
    score_trace.add_argument("model_file", type=Path)
    score_trace.add_argument("trace_file", type=Path)
    score_trace.add_argument("--kind", type=_kind, default=CallKind.SYSCALL)
    score_trace.add_argument("--length", type=int, default=15)
    score_trace.add_argument("--threshold", type=float, default=None,
                             help="flag segments scoring below this value")

    serve = sub.add_parser(
        "serve",
        help="replay recorded traces through the micro-batched detection "
             "service (one session per trace)",
    )
    serve.add_argument("model_source",
                       help="saved model path, or cache:KEY with --cache-dir")
    serve.add_argument("trace_file", type=Path)
    serve.add_argument("--kind", type=_kind, default=CallKind.SYSCALL)
    serve.add_argument("--length", type=int, default=15,
                       help="window length (monitor/window modes)")
    serve.add_argument("--threshold", type=float, default=None,
                       help="operating threshold; anomalous iff score < T "
                            "(required for --mode monitor)")
    serve.add_argument("--mode", choices=("window", "monitor", "stream"),
                       default="window",
                       help="window: client-side windows; monitor: service "
                            "keeps sliding window + alerts; stream: "
                            "incremental per-call surprisal")
    serve.add_argument("--batch", type=int, default=256,
                       help="max windows per micro-batch drain")
    serve.add_argument("--queue-depth", type=int, default=4096,
                       help="bounded queue depth (admission limit)")
    serve.add_argument("--latency-budget-ms", type=float, default=None,
                       help="shed requests older than this at drain time")
    serve.add_argument("--policy", choices=("reject-new", "shed-oldest"),
                       default="reject-new",
                       help="admission policy when the queue is full")

    gateway = sub.add_parser(
        "gateway",
        help="serve the detection fleet over HTTP (async gateway + "
             "versioned model registry with warm-swap)",
    )
    gateway.add_argument("model_source",
                         help="saved model path, or cache:KEY with --cache-dir")
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=0,
                         help="bind port; 0 picks an ephemeral one "
                              "(printed at startup)")
    gateway.add_argument("--name", default="served",
                         help="detector name == registry lineage name")
    gateway.add_argument("--kind", type=_kind, default=CallKind.SYSCALL)
    gateway.add_argument("--length", type=int, default=15,
                         help="window length (monitor/stream sessions)")
    gateway.add_argument("--threshold", type=float, default=None,
                         help="operating threshold; anomalous iff score < T")
    gateway.add_argument("--batch", type=int, default=256,
                         help="max windows per micro-batch drain")
    gateway.add_argument("--queue-depth", type=int, default=4096,
                         help="bounded queue depth (admission limit)")
    gateway.add_argument("--policy", choices=("reject-new", "shed-oldest"),
                         default="reject-new",
                         help="admission policy when the queue is full")
    gateway.add_argument("--result-timeout", type=float, default=30.0,
                         help="seconds an observe waits for its outcome "
                              "before answering 503")
    gateway.add_argument("--no-pump", action="store_true",
                         help="do not drain on the gateway's event loop; "
                              "drive drains via POST /v1/admin/pump "
                              "(test hook)")

    robustness = sub.add_parser(
        "robustness",
        help="run the adversarial robustness grid (mimicry/drift/gap) and "
             "write the measured corpus + report",
    )
    robustness.add_argument("--programs", nargs="+", choices=ALL_PROGRAMS,
                            default=["gzip"], metavar="PROGRAM",
                            help="programs to attack (default: gzip)")
    robustness.add_argument("--models", nargs="+", choices=MODEL_NAMES,
                            default=list(MODEL_NAMES), metavar="MODEL",
                            help=f"detector variants (default: all of "
                                 f"{', '.join(MODEL_NAMES)})")
    robustness.add_argument("--attacks", nargs="+", choices=ATTACK_FAMILIES,
                            default=list(ATTACK_FAMILIES), metavar="ATTACK",
                            help=f"attack families (default: all of "
                                 f"{', '.join(ATTACK_FAMILIES)})")
    robustness.add_argument("--severities", nargs="+", type=int,
                            default=list(DEFAULT_SEVERITIES), metavar="N",
                            help="severity ladder (default: "
                                 f"{' '.join(map(str, DEFAULT_SEVERITIES))})")
    robustness.add_argument("--kind", type=_kind, default=CallKind.SYSCALL)
    robustness.add_argument("--seed", type=int, default=0,
                            help="grid seed; every cell derives its own "
                                 "stream from it (default: 0)")
    robustness.add_argument("--resume", action=argparse.BooleanOptionalAction,
                            default=True,
                            help="load finished cells from --cache-dir "
                                 "instead of recomputing (default: on; "
                                 "--no-resume forces a full recompute)")
    robustness.add_argument("--corpus-out", type=Path, default=None,
                            metavar="PATH",
                            help="write the versioned measured-corpus JSON "
                                 "to PATH")
    robustness.add_argument("--report-out", type=Path, default=None,
                            metavar="PATH",
                            help="write the markdown report (bootstrap CIs "
                                 "per cell) to PATH")

    report = sub.add_parser(
        "report", help="fast end-to-end summary of every experiment family"
    )
    report.add_argument("--program", choices=ALL_PROGRAMS, default="gzip")
    report.add_argument("--markdown", type=Path, default=None,
                        help="write a full markdown report to this path")

    demo = sub.add_parser("demo", help="end-to-end detection demo")
    demo.add_argument("program", choices=("gzip", "proftpd"), default="gzip",
                      nargs="?")
    demo.add_argument("--seed", type=int, default=0)
    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def runtime_from_args(
    args: argparse.Namespace,
) -> tuple[ParallelExecutor, ArtifactCache | None]:
    """Resolve --jobs/--cache-dir/--no-cache (env vars as fallback)."""
    if args.jobs is not None:
        jobs = clamp_jobs(max(1, args.jobs), source="--jobs")
    else:
        jobs = default_jobs()  # REPRO_JOBS, already clamped
    executor = ParallelExecutor(jobs=jobs)
    cache: ArtifactCache | None = None
    if not args.no_cache:
        cache_dir = args.cache_dir
        if cache_dir is None:
            env_dir = os.environ.get("REPRO_CACHE_DIR", "").strip()
            cache_dir = Path(env_dir) if env_dir else None
        if cache_dir is not None:
            cache_dir = Path(cache_dir)
            if cache_dir.exists() and not cache_dir.is_dir():
                raise EvaluationError(
                    f"--cache-dir {cache_dir} exists and is not a directory"
                )
            cache = ArtifactCache(cache_dir)
    return executor, cache


def _cmd_corpus() -> int:
    rows = []
    for name in ALL_PROGRAMS:
        program = load_program(name)
        rows.append(
            [
                name,
                len(program.functions),
                program.total_blocks(),
                len(program.distinct_calls(CallKind.SYSCALL)),
                len(program.distinct_calls(CallKind.LIBCALL)),
                "server" if program.metadata.get("server") else "utility",
            ]
        )
    print(
        render_table(
            ["program", "functions", "blocks", "ctx syscalls", "ctx libcalls", "type"],
            rows,
        )
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    analysis = analyze_program(program, args.kind, context=not args.no_context)
    summary = analysis.program_summary
    print(
        f"{args.program}: {len(summary.space)} {args.kind.value} labels, "
        f"timings {dict((k, round(v, 4)) for k, v in analysis.timings_s.items())}"
    )
    flat = [
        (summary.trans[i, j], summary.space.labels[i], summary.space.labels[j])
        for i in range(len(summary.space))
        for j in range(len(summary.space))
        if summary.trans[i, j] > 0
    ]
    flat.sort(reverse=True)
    rows = [[src, dst, f"{p:.4f}"] for p, src, dst in flat[: args.top]]
    print(render_table(["from", "to", "probability"], rows,
                       title=f"top {args.top} statically-inferred transitions"))
    return 0


def _cmd_gadgets(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    image = layout_program(program)
    surface = gadget_surface(program, scan_gadgets(image))
    rows = [
        [
            f"L<={length}",
            surface.total_by_length[length],
            surface.compatible_by_length[length],
        ]
        for length in TABLE_III_LENGTHS
    ]
    print(render_table(["gadget length", "total", "context-compatible"], rows,
                       title=f"[SYSCALL...RET] gadgets in {args.program}"))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from .program import call_graph_to_dot, cfg_to_dot

    program = load_program(args.program)
    if args.function is None:
        print(call_graph_to_dot(program))
    else:
        print(cfg_to_dot(program.function(args.function)))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .core.crossval import trained_model_key
    from .core.registry import detector_spec

    _, cache = runtime_from_args(args)
    program = load_program(args.program)
    workload = run_workload(program, n_cases=args.cases, seed=args.seed)
    context = model_is_context_sensitive(args.model)
    segments = build_segment_set(workload.traces, args.kind, context)
    factory = detector_spec(args.model, program, args.kind)
    detector = factory()

    key = trained_model_key(factory, segments) if cache is not None else None
    cached = cache.get_model(key) if cache is not None and key else None
    if cached is not None:
        save_model(cached, args.output)
        print(
            f"loaded cached {args.model} for {args.program} "
            f"({cached.n_states} states, cache hit) -> {args.output}"
        )
        return 0

    fit = detector.fit(segments)
    save_model(detector.model, args.output)
    if cache is not None and key is not None:
        cache.put_model(key, detector.model)
    print(
        f"trained {args.model} on {args.program} "
        f"({fit.n_states} states, {fit.report.iterations} iterations, "
        f"{fit.train_seconds:.1f}s) -> {args.output}"
    )
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    model = load_model(args.model_file)
    lines = [
        line.split()
        for line in args.segments_file.read_text().splitlines()
        if line.strip()
    ]
    if not lines:
        print("no segments in input file", file=sys.stderr)
        return 1
    obs = model.encode(lines)
    scores = log_likelihood(model, obs) / obs.shape[1]
    for line, score in zip(lines, scores):
        print(f"{score:10.4f}  {' '.join(line)}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    image = layout_program(program)
    workload = run_workload(program, n_cases=50, seed=args.seed)
    segments = build_segment_set(workload.traces, CallKind.SYSCALL, context=True)
    detector = build_detector("cmarkov", program, CallKind.SYSCALL)
    train_part, holdout = segments.split([0.8, 0.2], seed=args.seed)
    detector.fit(train_part)
    threshold = threshold_for_fp_budget(detector.score(holdout.segments()), 0.01)
    print(f"trained CMarkov on {args.program}; threshold(FP=1%) = {threshold:.3f}")

    carrier = workload.traces[0].symbols(CallKind.SYSCALL, context=True)
    rows = []
    for spec in payloads_for(args.program):
        events = build_attack_events(spec, program, image, seed=args.seed)
        symbols = [e.symbol(True) for e in events]
        if len(symbols) < 15:
            symbols = carrier[-(15 - len(symbols)):] + symbols
        scores = detector.score(segment_symbols(symbols, length=15))
        rows.append(
            [
                spec.name,
                "DETECTED" if bool(np.any(scores < threshold)) else "missed",
                f"{scores.min():.2f}",
            ]
        )
    print(render_table(["payload", "verdict", "min score"], rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    workload = run_workload(program, n_cases=args.cases, seed=args.seed)
    count = write_traces(workload.traces, args.output)
    events = sum(len(t) for t in workload.traces)
    print(f"wrote {count} traces ({events} events) to {args.output}")
    return 0


def _cmd_score_trace(args: argparse.Namespace) -> int:
    model = load_model(args.model_file)
    traces = read_traces(args.trace_file)
    # Infer context mode from the model's alphabet.
    context = any("@" in symbol for symbol in model.symbols)
    lines = list(
        iter_segment_lines(traces, args.kind, context, length=args.length)
    )
    if not lines:
        print("trace log yields no full segments", file=sys.stderr)
        return 1
    segments = [line.split() for line in lines]
    obs = model.encode(segments)
    scores = log_likelihood(model, obs) / obs.shape[1]
    flagged = 0
    for line, score in zip(lines, scores):
        marker = ""
        if args.threshold is not None and score < args.threshold:
            marker = "  <-- ANOMALY"
            flagged += 1
        print(f"{score:10.4f}  {line}{marker}")
    if args.threshold is not None:
        print(f"\n{flagged}/{len(lines)} segments flagged at "
              f"threshold {args.threshold}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from .core.detector import PretrainedDetector
    from .errors import ServiceError
    from .service import (
        AdmissionPolicy,
        DetectionService,
        Failed,
        Overloaded,
        Scored,
        ServiceConfig,
        Streamed,
        resolve_model,
    )

    if args.mode == "monitor" and args.threshold is None:
        raise ServiceError("--mode monitor needs --threshold")
    _, cache = runtime_from_args(args)
    model = resolve_model(args.model_source, cache=cache)
    detector = PretrainedDetector(model, kind=args.kind, name="served")
    traces = read_traces(args.trace_file)
    if not traces:
        print("trace log holds no traces", file=sys.stderr)
        return 1

    config = ServiceConfig(
        max_batch=args.batch,
        max_queue_depth=args.queue_depth,
        admission_policy=AdmissionPolicy(args.policy),
        latency_budget_s=(
            args.latency_budget_ms / 1000.0
            if args.latency_budget_ms is not None
            else None
        ),
        default_window=args.length,
    )
    service = DetectionService(config)
    service.register("served", detector, threshold=args.threshold,
                     window=args.length)

    tickets = []

    def _submit(session: str, **kwargs) -> None:
        # Offline replay is producer-paced: drain whenever the bounded
        # queue fills so a long trace log never sheds as fake "overload"
        # (the admission limit is meant for live traffic, not replay size).
        if service.pending >= args.queue_depth:
            service.pump("served")
        tickets.append(service.submit("served", session, **kwargs))

    started = _time.perf_counter()
    for index, trace in enumerate(traces):
        session = f"trace-{index}"
        symbols = trace.symbols(detector.kind, detector.context)
        if args.mode == "window":
            for window in segment_symbols(symbols, length=args.length):
                _submit(session, window=window)
        else:
            service.open_session("served", session, args.mode)
            for symbol in symbols:
                _submit(session, symbol=symbol)
    service.close(drain=True)  # graceful drain scores the whole backlog
    elapsed = _time.perf_counter() - started

    outcomes = [ticket.result() for ticket in tickets]
    scored = [o for o in outcomes if isinstance(o, (Scored, Streamed))]
    shed = [o for o in outcomes if isinstance(o, Overloaded)]
    failed = [o for o in outcomes if isinstance(o, Failed)]
    alerts = sum(
        1 for o in outcomes if isinstance(o, Scored) and o.alert is not None
    )
    anomalous = sum(1 for o in scored if o.anomalous)
    stats = service.stats
    rows = [
        ["sessions", len(traces)],
        ["submitted", stats.submitted],
        ["scored", stats.scored + stats.streamed],
        ["absorbed (window warm-up)", stats.absorbed],
        ["shed", f"{stats.shed_total} (rate {stats.shed_rate:.2%})"],
        ["micro-batches", stats.batches],
        ["max batch size", stats.max_batch_size],
        ["max queue depth", stats.max_depth_seen],
        ["alerts" if args.mode == "monitor" else "anomalous",
         alerts if args.mode == "monitor" else anomalous],
        ["throughput", f"{len(scored) / max(elapsed, 1e-9):,.0f} outcomes/s"],
    ]
    print(render_table(["metric", "value"], rows,
                       title=f"service replay — {args.mode} mode"))
    if scored and args.mode != "stream":
        min_score = min(o.score for o in scored if isinstance(o, Scored))
        print(f"min window score: {min_score:.4f}"
              + (f" (threshold {args.threshold})" if args.threshold is not None
                 else ""))
    if shed:
        reasons = {}
        for outcome in shed:
            reasons[outcome.reason.value] = reasons.get(outcome.reason.value, 0) + 1
        print(f"shed by reason: {reasons}")
    if failed:
        print(f"failed to score: {len(failed)} "
              f"(first error: {failed[0].error})", file=sys.stderr)
        return 1
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    import threading as _threading

    from .core.detector import PretrainedDetector
    from .gateway import DetectionGateway, GatewayConfig
    from .runtime import ModelRegistry
    from .service import (
        AdmissionPolicy,
        DetectionService,
        ServiceConfig,
        resolve_model,
    )

    if not telemetry.enabled():
        telemetry.enable()  # /metrics wants gateway.*/service.* counters
    _, cache = runtime_from_args(args)
    model = resolve_model(args.model_source, cache=cache)
    detector = PretrainedDetector(model, kind=args.kind, name=args.name)
    config = ServiceConfig(
        max_batch=args.batch,
        max_queue_depth=args.queue_depth,
        admission_policy=AdmissionPolicy(args.policy),
        default_window=args.length,
    )
    service = DetectionService(config)
    service.register(args.name, detector, threshold=args.threshold,
                     window=args.length)
    registry = ModelRegistry(cache=cache)
    gateway = DetectionGateway(
        service,
        registry,
        GatewayConfig(
            host=args.host,
            port=args.port,
            result_timeout_s=args.result_timeout,
            call_kind=args.kind.value,
            pump=not args.no_pump,
        ),
    )
    # v1 of the lineage is the model we booted with; activating it warm-swaps
    # the (identical) weights in, which also proves the swap path at startup.
    registry.publish(
        args.name, model,
        metadata={"source": str(args.model_source)}, activate=True,
    )
    gateway.start()
    # SIGTERM (docker stop, CI `kill`) takes the same graceful path as
    # Ctrl-C, so the gateway stops and the service closes cleanly.
    import signal as _signal
    _signal.signal(_signal.SIGTERM, _signal.default_int_handler)
    print(f"gateway listening on http://{args.host}:{gateway.port}",
          flush=True)
    try:
        _threading.Event().wait()  # serve until interrupted/killed
    except KeyboardInterrupt:
        pass
    finally:
        gateway.stop()
        try:
            service.close(drain=False)
        except Exception:  # noqa: BLE001 - already closed via the admin route
            pass
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from .robustness import RobustnessConfig, open_robustness_grid
    from .robustness.corpus import write_corpus

    executor, cache = runtime_from_args(args)
    grid = open_robustness_grid(
        args.programs,
        models=args.models,
        attacks=args.attacks,
        severities=args.severities,
        config=RobustnessConfig(kind=args.kind.value),
        seed=args.seed,
        executor=executor,
        cache=cache,
    )
    if args.resume and cache is not None:
        cached = grid.cells_cached()
        if cached:
            print(f"resuming: {cached}/{grid.n_cells} cells cached "
                  f"in {cache.root}", flush=True)
    result = grid.run(resume=args.resume)
    corpus = grid.corpus()

    rows = [
        [
            row["attack"],
            row["model"],
            f"{row['detection']['estimate']:.2f} "
            f"[{row['detection']['low']:.2f}, {row['detection']['high']:.2f}]",
            f"{row['baseline_detection']['estimate']:.2f}",
            row["n_instances"],
        ]
        for row in corpus["summary"]["pooled"]
    ]
    print(render_table(
        ["attack", "model", "detection (95% CI)", "baseline", "instances"],
        rows,
        title=f"robustness grid — {result.computed} computed, "
              f"{result.resumed} resumed, {result.elapsed_s:.1f}s",
    ))
    claims = corpus["summary"]["claims"]
    print(f"mimicry lowers detection: {claims['mimicry_lowers_detection']}")
    print(f"regular-context >= regular-basic under attack: "
          f"{claims['regular_context_ge_basic']}")
    if args.corpus_out is not None:
        path = write_corpus(corpus, args.corpus_out)
        print(f"corpus -> {path}")
    if args.report_out is not None:
        args.report_out.parent.mkdir(parents=True, exist_ok=True)
        args.report_out.write_text(grid.report())
        print(f"report -> {args.report_out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _, cache = runtime_from_args(args)
    if args.markdown is not None:
        from .eval import FAST_CONFIG, ReportSpec, write_report

        spec = ReportSpec(accuracy_programs=(args.program,),
                          exploit_victims=(args.program,) if args.program in
                          ("gzip", "proftpd") else ())
        path = write_report(args.markdown, config=FAST_CONFIG, spec=spec)
        print(f"report written to {path}")
        return 0
    from .eval import (
        FAST_CONFIG,
        run_accuracy_comparison,
        run_clustering_reduction,
        run_coverage_survey,
        run_gadget_survey,
        run_runtime_table,
    )

    program = args.program
    print("== coverage (Table I role) ==")
    for row in run_coverage_survey(FAST_CONFIG, program_names=(program,)):
        print("  ", row.row())
    print("== accuracy, syscall models (Figures 3/5 role) ==")
    comparison = run_accuracy_comparison(
        program, CallKind.SYSCALL, FAST_CONFIG, cache=cache
    )
    for model_name, result in comparison.results.items():
        fn = result.fn_by_fp[FAST_CONFIG.fp_targets[-1]]
        print(f"   {model_name:16s} states={result.n_states:4d} "
              f"auc={result.auc:.4f} FN@{FAST_CONFIG.fp_targets[-1]}={fn:.4f}")
    print("== clustering (Table II role) ==")
    for row in run_clustering_reduction((program,), FAST_CONFIG, measure=False):
        print(f"   {row.n_distinct_calls} calls -> {row.n_states_after} states "
              f"(est. {row.estimated_time_reduction:.0%} training cut)")
    print("== gadgets (Table III role) ==")
    for surface in run_gadget_survey(program_names=(program,), include_libc=False):
        print(f"   total {surface.total_by_length} "
              f"compatible {surface.compatible_by_length}")
    print("== static-analysis runtime (Table V role) ==")
    for row in run_runtime_table(program_names=(program,), cache=cache):
        print(f"   {row.kind.value:8s} total {row.total_s:.3f}s")
    if cache is not None:
        print("== artifact cache ==")
        print(f"   {cache.root}: {cache.stats.as_dict()} "
              f"({cache.n_entries} entries on disk)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`~repro.errors.ReproError`) are rendered as
    one-line messages with exit code 2 instead of tracebacks.

    ``--metrics-out PATH`` (or ``REPRO_METRICS_OUT``) switches telemetry on
    for the whole invocation and writes the snapshot JSON on the way out —
    including on error exits, so a failed run still leaves its metrics.
    """
    from .errors import ReproError

    args = build_parser().parse_args(argv)
    metrics_out = metrics_out_from_args(args)
    if metrics_out is not None:
        telemetry.enable()
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if metrics_out is not None:
            telemetry.write_snapshot(metrics_out)
            telemetry.disable()
            print(f"telemetry snapshot -> {metrics_out}", file=sys.stderr)


def metrics_out_from_args(args: argparse.Namespace) -> Path | None:
    """Resolve --metrics-out (falling back to ``REPRO_METRICS_OUT``)."""
    if args.metrics_out is not None:
        return args.metrics_out
    env = os.environ.get("REPRO_METRICS_OUT", "").strip()
    return Path(env) if env else None


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "corpus":
        return _cmd_corpus()
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "gadgets":
        return _cmd_gadgets(args)
    if args.command == "dot":
        return _cmd_dot(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "score":
        return _cmd_score(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "score-trace":
        return _cmd_score_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "robustness":
        return _cmd_robustness(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "demo":
        return _cmd_demo(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
