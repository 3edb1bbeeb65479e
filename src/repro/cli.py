"""Command-line front end: ``hslb`` (or ``python -m repro``).

Subcommands:

* ``hslb optimize``   — run the HSLB pipeline on a CESM configuration and
  print the Table-III-style allocation report;
* ``hslb fmo``        — run HSLB and the baselines on a synthetic FMO system;
* ``hslb dynlb``      — online rebalancing: compare the frozen static plan
  against dynamic/hybrid strategies under drift, noise, and crashes;
* ``hslb serve``      — allocation service: JSONL requests on stdin, JSONL
  answers on stdout (cached + warm-started);
* ``hslb batch``      — answer a JSON file of allocation requests in one
  deduplicated, donor-ordered batch;
* ``hslb experiment`` — run any registered paper experiment by id;
* ``hslb list``       — list available experiments;
* ``hslb trace``      — run any subcommand under the span tracer and print
  an ASCII flamegraph of where the time went; ``hslb trace --id X --input
  dump.jsonl`` renders one request's tree from a ``--trace-out`` dump;
* ``hslb top``        — live terminal dashboard over a ``/metrics`` scrape
  (SLO burn rates, latency quantiles, traffic counters);
* ``hslb metrics``    — print the metrics registry in Prometheus text
  format (optionally running a subcommand first to populate it).

``optimize`` and ``fmo`` take ``--json`` for machine-readable output; exit
codes are identical either way.  Progress chatter goes to stderr through
:mod:`repro.obs.logging` (``-v``/``-q`` tune it), so stdout stays
machine-clean under ``--json`` and in pipelines.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.obs.logging import get_logger, set_verbosity
from repro.obs.trace import span
from repro.util.rng import default_rng

_log = get_logger("cli")


@contextlib.contextmanager
def _tracing(path: str | None):
    """Collect a span trace for the enclosed block and write it to ``path``.

    When the tracer is already live (running under ``hslb trace``), the
    block just joins the ongoing trace and the file still gets written.
    """
    if not path:
        yield
        return
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    owns = not tracer.enabled
    if owns:
        tracer.reset()
        tracer.enable()
    try:
        yield
    finally:
        if owns:
            tracer.disable()
        lines = tracer.write_jsonl(path)
        _log.info(f"trace written to {path}", spans=lines)


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fault injection (repro.faults)")
    group.add_argument(
        "--fail-rate",
        type=float,
        default=0.0,
        help="probability a benchmark run dies and must be retried",
    )
    group.add_argument(
        "--straggler-rate",
        type=float,
        default=0.0,
        help="probability a per-component timer is straggler-inflated",
    )
    group.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the deterministic fault plan (same seed, same faults)",
    )


def _fault_plan_from_args(args: argparse.Namespace, **crash: object):
    """Build a FaultPlan from CLI flags, or None when no fault was asked for."""
    crash = {k: v for k, v in crash.items() if v is not None}
    if not (args.fail_rate or args.straggler_rate or crash):
        return None
    from repro.faults.plan import FaultPlan

    return FaultPlan(
        seed=args.fault_seed,
        fail_rate=args.fail_rate,
        straggler_rate=args.straggler_rate,
        **crash,
    )


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("allocation service (repro.service)")
    group.add_argument(
        "--cache-capacity",
        type=int,
        default=256,
        help="LRU solution-cache capacity",
    )
    group.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="cache entry time-to-live in seconds (default: no expiry)",
    )
    group.add_argument(
        "--no-warm-start",
        action="store_true",
        help="disable warm-starting misses from cached neighbor solutions",
    )
    group.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request wall deadline in seconds",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("resilience (retry / breaker / degradation)")
    group.add_argument(
        "--resilient",
        action="store_true",
        help="enable the resilient request path (retries, circuit breaker, "
        "degradation ladder); implied by any --chaos-* rate",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=3,
        help="solve attempts per request before degrading (resilient mode)",
    )
    group.add_argument(
        "--hedge-after",
        type=float,
        default=None,
        help="seconds before a straggler dispatch gets a hedged duplicate",
    )
    group.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive system failures that open a family's breaker",
    )
    group.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        help="seconds an open breaker waits before half-open probes",
    )
    group.add_argument(
        "--max-stale",
        type=float,
        default=None,
        help="oldest cache age (s) the stale rung may serve (default: any)",
    )
    group.add_argument(
        "--no-stale",
        action="store_true",
        help="disable the stale-cache degradation rung",
    )
    group.add_argument(
        "--no-greedy",
        action="store_true",
        help="disable the greedy-approximate degradation rung",
    )
    group.add_argument(
        "--restart-budget",
        type=int,
        default=3,
        help="consecutive deaths a supervised worker survives before it "
        "retires (a completed task resets the count)",
    )
    group.add_argument(
        "--hang-timeout",
        type=float,
        default=30.0,
        help="seconds before an unresponsive worker dispatch counts as hung",
    )


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("chaos injection (repro.faults.chaos)")
    group.add_argument(
        "--chaos-crash-rate",
        type=float,
        default=0.0,
        help="probability a solve dies as a worker crash",
    )
    group.add_argument(
        "--chaos-hang-rate",
        type=float,
        default=0.0,
        help="probability a solve hangs until the harvest timeout",
    )
    group.add_argument(
        "--chaos-slow-rate",
        type=float,
        default=0.0,
        help="probability a solve is straggler-delayed",
    )
    group.add_argument(
        "--chaos-corrupt-rate",
        type=float,
        default=0.0,
        help="probability a solve returns a corrupted result",
    )
    group.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed of the deterministic chaos plan (same seed, same faults)",
    )
    group.add_argument(
        "--chaos-immune-after",
        type=int,
        default=2,
        help="attempt index from which a request runs fault-free "
        "(guarantees retries eventually land); negative = never immune",
    )
    group.add_argument(
        "--chaos-hang-seconds",
        type=float,
        default=2.0,
        help="how long an injected hang sleeps in a pool worker",
    )
    group.add_argument(
        "--chaos-slow-seconds",
        type=float,
        default=0.01,
        help="how long an injected straggler delay sleeps",
    )


def _chaos_from_args(args: argparse.Namespace):
    """Build a ChaosPlan from CLI flags, or None when no rate was asked for."""
    rates = (
        args.chaos_crash_rate,
        args.chaos_hang_rate,
        args.chaos_slow_rate,
        args.chaos_corrupt_rate,
    )
    if not any(rates):
        return None
    from repro.faults.chaos import ChaosPlan

    return ChaosPlan(
        seed=args.chaos_seed,
        crash_rate=args.chaos_crash_rate,
        hang_rate=args.chaos_hang_rate,
        slow_rate=args.chaos_slow_rate,
        corrupt_rate=args.chaos_corrupt_rate,
        immune_after=(
            None if args.chaos_immune_after < 0 else args.chaos_immune_after
        ),
        hang_seconds=args.chaos_hang_seconds,
        slow_seconds=args.chaos_slow_seconds,
    )


def _resilience_from_args(args: argparse.Namespace, *, forced: bool = False):
    chaos = _chaos_from_args(args)
    if not (forced or args.resilient or chaos is not None):
        return None, None
    from repro.service import BreakerPolicy, ResiliencePolicy, RetryPolicy

    policy = ResiliencePolicy(
        retry=RetryPolicy(
            max_attempts=max(1, args.retries), hedge_after=args.hedge_after
        ),
        breaker=BreakerPolicy(
            failure_threshold=args.breaker_threshold,
            reset_timeout=args.breaker_reset,
        ),
        max_stale=args.max_stale,
        allow_stale=not args.no_stale,
        allow_greedy=not args.no_greedy,
        restart_budget=args.restart_budget,
        hang_timeout=args.hang_timeout,
    )
    return policy, chaos


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hslb",
        description=(
            "Heuristic static load balancing via MINLP — reproduction of the "
            "HSLB papers (FMO, SC 2012; CESM, IPDPSW 2014)."
        ),
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more progress chatter on stderr (repeatable)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress progress chatter (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="run HSLB on a CESM configuration")
    opt.add_argument(
        "--resolution",
        choices=("1deg", "eighth"),
        default="1deg",
        help="CESM configuration",
    )
    opt.add_argument("--nodes", type=int, required=True, help="machine size")
    opt.add_argument(
        "--layout", type=int, choices=(1, 2, 3), default=1, help="Figure 1 layout"
    )
    opt.add_argument(
        "--free-ocean",
        action="store_true",
        help="drop the hard-coded ocean node-count list (1/8 degree only)",
    )
    opt.add_argument(
        "--tsync",
        type=float,
        default=None,
        help="ice/land synchronization tolerance in seconds (default: off)",
    )
    opt.add_argument(
        "--benchmarks",
        type=int,
        nargs="+",
        default=None,
        help="total node counts for the gather step",
    )
    opt.add_argument(
        "--auto-campaign",
        action="store_true",
        help="plan the gather node counts per §III-C (memory floor to "
        "machine cap, geometric spacing) instead of using the defaults",
    )
    opt.add_argument(
        "--compare-manual",
        action="store_true",
        help="also run the emulated manual expert and compare",
    )
    opt.add_argument(
        "--save-benchmarks",
        metavar="FILE",
        default=None,
        help="persist the gather campaign's timings as JSON",
    )
    opt.add_argument(
        "--load-benchmarks",
        metavar="FILE",
        default=None,
        help="skip the gather step and reuse a saved campaign (§III-F)",
    )
    opt.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of tables",
    )
    opt.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a JSONL span trace of the pipeline run",
    )
    _add_fault_args(opt)
    opt.add_argument(
        "--crash-component",
        choices=("lnd", "ice", "atm", "ocn"),
        default=None,
        help="lose this component's nodes mid-run and re-plan on survivors",
    )

    fmo = sub.add_parser("fmo", help="run HSLB and baselines on an FMO system")
    fmo.add_argument("--fragments", type=int, default=12)
    fmo.add_argument("--nodes", type=int, default=256)
    fmo.add_argument(
        "--system",
        choices=("protein", "water"),
        default="protein",
        help="synthetic molecular system kind",
    )
    fmo.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of tables",
    )
    fmo.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a JSONL span trace of the run",
    )
    _add_fault_args(fmo)
    fmo.add_argument(
        "--crash-group",
        type=int,
        default=None,
        help="lose this GDDI group mid-run and compare recovery strategies",
    )
    fmo.add_argument(
        "--crash-fraction",
        type=float,
        default=0.5,
        help="when the crash hits, as a fraction of the fault-free makespan",
    )

    dyn = sub.add_parser(
        "dynlb",
        help="online rebalancing: static vs dynamic strategies under drift",
    )
    dyn.add_argument(
        "--scenario",
        choices=("cesm", "fmo"),
        default="cesm",
        help="which simulator's ground truth feeds the dynamic run",
    )
    dyn.add_argument("--nodes", type=int, default=128, help="machine size")
    dyn.add_argument("--steps", type=int, default=120, help="run length in steps")
    dyn.add_argument(
        "--fragments", type=int, default=8, help="fragment count (fmo scenario)"
    )
    dyn.add_argument(
        "--strategies",
        default="static,hslb,diffusion,sweep,two-level",
        help="comma-separated strategy list to compare",
    )
    dyn.add_argument(
        "--interval", type=int, default=10, help="rebalance decision cadence"
    )
    dyn.add_argument(
        "--drift",
        choices=("none", "linear", "step", "walk"),
        default="linear",
        help="drift preset applied to the ground-truth curves",
    )
    dyn.add_argument(
        "--drift-rate",
        type=float,
        default=0.6,
        help="total fractional drift over the run (preset-dependent)",
    )
    dyn.add_argument(
        "--noise", type=float, default=0.02, help="log-normal timing noise sigma"
    )
    dyn.add_argument(
        "--imbalance",
        type=float,
        default=0.15,
        help="intra-component imbalance amplitude (static intra policy)",
    )
    dyn.add_argument(
        "--gain-factor",
        type=float,
        default=1.2,
        help="required predicted-gain / migration-cost ratio to migrate",
    )
    dyn.add_argument(
        "--migration-steps",
        type=int,
        default=1,
        help="steps a migration window spans before the move lands",
    )
    dyn.add_argument(
        "--crash-step",
        type=int,
        default=None,
        help="inject a node-group crash at the top of this step",
    )
    dyn.add_argument(
        "--crash-component",
        default=None,
        help="which component's group dies (default: the largest)",
    )
    dyn.add_argument(
        "--crash-fraction",
        type=float,
        default=0.5,
        help="fraction of the interrupted step's work the crash burns",
    )
    dyn.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of tables",
    )
    dyn.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a JSONL span trace of the comparison",
    )
    _add_fault_args(dyn)

    srv = sub.add_parser(
        "serve",
        help="allocation service: JSONL requests in, JSONL answers out",
    )
    _add_service_args(srv)
    _add_resilience_args(srv)
    _add_chaos_args(srv)
    srv.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a JSONL span trace of the serving session",
    )
    tier = srv.add_argument_group("async tier (hslb serve --async)")
    tier.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve through the sharded asyncio tier (consistent-hash "
        "cache shards, single-flight coalescing, tiered admission)",
    )
    tier.add_argument(
        "--shards",
        type=int,
        default=4,
        help="cache shards on the consistent-hash ring (async tier)",
    )
    tier.add_argument(
        "--worker-mode",
        choices=("auto", "thread", "process", "inline"),
        default="auto",
        help="how shards solve: 'process' forks one solver per shard "
        "(parallel on multi-core hosts), 'thread' keeps solves in-process "
        "(best on one core), 'inline' is deterministic but blocks the "
        "loop; 'auto' picks by host core count",
    )
    tier.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="tier-wide in-flight limit before admission starts degrading "
        "and shedding by priority class (async tier)",
    )
    tier.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable single-flight coalescing of identical in-flight "
        "requests (async tier)",
    )
    tier.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus /metrics + /healthz HTTP endpoint on "
        "this port for the lifetime of the session (0 = ephemeral; "
        "async tier)",
    )

    bat = sub.add_parser(
        "batch", help="answer a JSON file of allocation requests in one batch"
    )
    bat.add_argument("requests", help="path to a JSON array of request objects")
    _add_service_args(bat)
    bat.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool size for fan-out (0 = solve in-process)",
    )
    bat.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission limit; larger batches are refused (backpressure)",
    )
    bat.add_argument(
        "--metrics",
        action="store_true",
        help="append a final {'metrics': ...} JSONL line to stdout",
    )
    _add_resilience_args(bat)
    _add_chaos_args(bat)

    cha = sub.add_parser(
        "chaos",
        help="soak the resilient service under injected faults and report "
        "per-request provenance",
    )
    cha.add_argument(
        "--requests",
        type=int,
        default=200,
        help="how many requests the deterministic soak mix contains",
    )
    cha.add_argument(
        "--families",
        type=int,
        default=3,
        help="distinct request families (curve sets) in the mix",
    )
    cha.add_argument(
        "--workers",
        type=int,
        default=0,
        help="supervised-pool size (0 = deterministic in-process chaos)",
    )
    cha.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON report instead of tables",
    )
    cha.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the final metrics snapshot as JSON (CI artifact)",
    )
    _add_service_args(cha)
    _add_resilience_args(cha)
    _add_chaos_args(cha)

    exp = sub.add_parser("experiment", help="run a registered paper experiment")
    exp.add_argument("name", help="experiment id (see `hslb list`)")

    exp_ampl = sub.add_parser(
        "export", help="emit the allocation MINLP as an AMPL model"
    )
    exp_ampl.add_argument(
        "--resolution", choices=("1deg", "eighth"), default="1deg"
    )
    exp_ampl.add_argument("--nodes", type=int, required=True)
    exp_ampl.add_argument(
        "--layout", type=int, choices=(1, 2, 3), default=1
    )
    exp_ampl.add_argument(
        "-o", "--output", default=None, help="output file (default: stdout)"
    )

    sub.add_parser("list", help="list registered experiments")

    trc = sub.add_parser(
        "trace",
        help="run a subcommand under the span tracer, flamegraph on stderr; "
        "or render one request's tree from a trace dump with --id",
    )
    trc.add_argument(
        "--id",
        dest="trace_id",
        default=None,
        metavar="TRACE_ID",
        help="render the flamegraph/timeline of one request tree from a "
        "JSONL trace dump (requires --input)",
    )
    trc.add_argument(
        "--input",
        metavar="FILE",
        default=None,
        help="JSONL trace dump to read (written by --trace-out)",
    )
    trc.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="subcommand (and flags) to run traced, e.g. `optimize --nodes 64`",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a /metrics scrape (SLO burn, "
        "latency quantiles, traffic)",
    )
    top.add_argument(
        "--url",
        default=None,
        help="metrics endpoint to scrape, e.g. http://127.0.0.1:9100/metrics",
    )
    top.add_argument(
        "--input",
        metavar="FILE",
        default=None,
        help="read exposition text from a file instead of scraping",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between repaints (default: 2)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after this many repaints (default: run until ^C)",
    )

    met = sub.add_parser(
        "metrics",
        help="print the metrics registry in Prometheus text format",
    )
    met.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="optional subcommand to run first so the registry has data",
    )
    return parser


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.cesm.app import CESMApplication
    from repro.cesm.grids import eighth_degree, one_degree
    from repro.cesm.layouts import Layout
    from repro.cesm.manual import manual_optimization
    from repro.core.hslb import HSLBOptimizer
    from repro.core.report import allocation_table, comparison_table, speedup_summary
    from repro.experiments.paper_data import BENCHMARK_CAMPAIGN

    if args.nodes < 2:
        _log.error(f"--nodes must be >= 2, got {args.nodes}")
        return 2
    if args.resolution == "1deg":
        if args.free_ocean:
            _log.error("--free-ocean only applies to the 1/8-degree setup")
            return 2
        config = one_degree()
    else:
        config = eighth_degree(constrained_ocean=not args.free_ocean)
    layout = Layout(args.layout)
    try:
        plan = _fault_plan_from_args(args, crash_component=args.crash_component)
    except ValueError as exc:
        _log.error(str(exc))
        return 2
    # Chatter goes to stderr through the facade, so stdout carries exactly
    # the report (one JSON document under --json) and pipelines can parse it.
    if plan is not None:
        _log.info(f"fault plan: {plan.describe()}")
    app = CESMApplication(config, layout=layout, tsync=args.tsync, faults=plan)
    if args.auto_campaign:
        from repro.cesm.campaign import plan_campaign

        cap = max(args.nodes * 4, args.nodes + 1)
        bench = list(plan_campaign(config, max_nodes=min(cap, config.machine_nodes)))
        _log.info(f"planned gather campaign: {bench}")
    else:
        bench = args.benchmarks or list(BENCHMARK_CAMPAIGN[args.resolution])
    rng = default_rng(args.seed)

    optimizer = HSLBOptimizer(app)
    with _tracing(args.trace_out):
        with span("cli.optimize", config=config.name, nodes=int(args.nodes)):
            if args.load_benchmarks:
                from repro.perf.io import load_suite

                suite = load_suite(args.load_benchmarks)
                _log.debug(f"benchmark campaign loaded from {args.load_benchmarks}")
            else:
                suite = optimizer.gather(bench, rng)
            if args.save_benchmarks:
                from repro.perf.io import save_suite

                save_suite(suite, args.save_benchmarks)
                _log.info(f"benchmark campaign saved to {args.save_benchmarks}")
            fits = optimizer.fit(suite, rng)
            result = optimizer.run_from_fits(fits, args.nodes, rng)
    if args.json:
        import json

        stats = result.solution.stats
        doc = {
            "config": config.name,
            "nodes": int(args.nodes),
            "layout": int(args.layout),
            "allocation": {k: int(v) for k, v in result.allocation.items()},
            "predicted_times": {
                k: float(v) for k, v in result.predicted_times.items()
            },
            "predicted_total": float(result.predicted_total),
            "actual_total": (
                None if result.actual_total is None else float(result.actual_total)
            ),
            "prediction_error": (
                None
                if result.prediction_error is None
                else float(result.prediction_error)
            ),
            "degraded": result.degraded,
            "solver": {
                "status": result.solution.status.value,
                "tier": result.solver_tier,
                "nodes_explored": int(stats.nodes_explored),
                "nlp_solves": int(stats.nlp_solves),
                "cuts_added": int(stats.cuts_added),
                "wall_time": float(stats.wall_time),
            },
        }
        if plan is not None:
            doc["fault_plan"] = plan.describe()
        if args.compare_manual and layout is Layout.HYBRID:
            manual = manual_optimization(app.simulator, args.nodes, rng)
            summary = speedup_summary(manual.execution, result)
            doc["manual"] = {
                "allocation": {k: int(v) for k, v in manual.allocation.items()},
                "total": float(manual.execution.total_time),
                "executions_burned": int(manual.executions_burned),
                "improvement_pct": float(summary.get("improvement_pct", 0.0)),
            }
        print(json.dumps(doc, indent=2))
        return 0
    if args.compare_manual and layout is Layout.HYBRID:
        manual = manual_optimization(app.simulator, args.nodes, rng)
        print(
            comparison_table(
                manual.allocation,
                manual.execution,
                result,
                title=f"{config.name} @ {args.nodes} nodes (layout {args.layout})",
            )
        )
        summary = speedup_summary(manual.execution, result)
        print(
            f"\nHSLB improvement over manual: {summary.get('improvement_pct', 0.0):.1f}% "
            f"(manual burned {manual.executions_burned} trial executions)"
        )
    else:
        print(
            allocation_table(
                result,
                title=f"{config.name} @ {args.nodes} nodes (layout {args.layout})",
            )
        )
    stats = result.solution.stats
    print(
        f"\nsolver: {result.solution.status.value}, "
        f"{stats.nodes_explored} B&B nodes, {stats.nlp_solves} NLP solves, "
        f"{stats.cuts_added} OA cuts, {stats.wall_time:.2f}s"
    )
    if plan is not None:
        from repro.core.report import resilience_summary

        print("\n" + resilience_summary(result))
    return 0


def _cmd_fmo(args: argparse.Namespace) -> int:
    from repro.fmo.molecules import protein_like, water_cluster
    from repro.fmo.schedulers import (
        greedy_dynamic_schedule,
        hslb_schedule,
        uniform_static_schedule,
    )
    from repro.fmo.simulator import FMOSimulator
    from repro.util.tables import format_table

    if args.nodes < args.fragments:
        _log.error(
            f"--nodes must cover every fragment ({args.fragments}), "
            f"got {args.nodes}"
        )
        return 2
    rng = default_rng(args.seed)
    system = (
        protein_like(args.fragments, rng)
        if args.system == "protein"
        else water_cluster(args.fragments, rng)
    )
    try:
        plan = _fault_plan_from_args(
            args,
            crash_group=args.crash_group,
            crash_fraction=(
                args.crash_fraction if args.crash_group is not None else None
            ),
        )
    except ValueError as exc:
        _log.error(str(exc))
        return 2
    if plan is not None:
        _log.info(f"fault plan: {plan.describe()}")
    sim = FMOSimulator(system, faults=plan)
    recovery_rows = None
    with _tracing(args.trace_out):
        with span("cli.fmo", system=system.name, nodes=int(args.nodes)):
            hs, sol = hslb_schedule(system, args.nodes)
            rows = []
            for sched in (
                hs,
                greedy_dynamic_schedule(
                    system, args.nodes, max(2, args.fragments // 3)
                ),
                uniform_static_schedule(system, args.nodes, args.fragments),
            ):
                run = sim.execute(sched, default_rng(args.seed))
                rows.append([sched.label, run.makespan, run.load_imbalance])
            if plan is not None and plan.crash_group is not None:
                from repro.fmo.recovery import STRATEGIES, run_with_crash

                crashed = greedy_dynamic_schedule(
                    system, args.nodes, max(2, args.fragments // 3)
                )
                if not 0 <= plan.crash_group < crashed.n_groups:
                    _log.error(
                        f"--crash-group must be in [0, {crashed.n_groups}) "
                        "for this run"
                    )
                    return 2
                recovery_rows = []
                for strategy in STRATEGIES:
                    out = run_with_crash(
                        sim,
                        crashed,
                        crash_group=plan.crash_group,
                        crash_fraction=plan.crash_fraction,
                        strategy=strategy,
                        rng=default_rng(args.seed),
                    )
                    recovery_rows.append([strategy, out.makespan, out.degradation])
    if args.json:
        import json

        doc = {
            "system": system.name,
            "nodes": int(args.nodes),
            "fragments": int(args.fragments),
            "schedulers": [
                {
                    "label": label,
                    "makespan": float(makespan),
                    "load_imbalance": float(imbalance),
                }
                for label, makespan, imbalance in rows
            ],
            "hslb": {
                "group_sizes": [int(g) for g in hs.group_sizes],
                "predicted": float(sol.objective),
            },
        }
        if plan is not None:
            doc["fault_plan"] = plan.describe()
        if recovery_rows is not None:
            doc["recovery"] = [
                {
                    "strategy": strategy,
                    "makespan": float(makespan),
                    "degradation": float(degradation),
                }
                for strategy, makespan, degradation in recovery_rows
            ]
        print(json.dumps(doc, indent=2))
        return 0
    print(
        format_table(
            ["scheduler", "makespan s", "load imbalance"],
            rows,
            title=f"{system.name} on {args.nodes} nodes",
        )
    )
    print(f"\nHSLB group sizes: {hs.group_sizes} (predicted {sol.objective:.2f}s)")
    if recovery_rows is not None:
        print(
            "\n"
            + format_table(
                ["recovery", "makespan s", "vs fault-free"],
                [
                    [strategy, makespan, f"{degradation:+.1%}"]
                    for strategy, makespan, degradation in recovery_rows
                ],
                title=(
                    f"group {plan.crash_group} lost "
                    f"{100 * plan.crash_fraction:.0f}% into the run "
                    f"({crashed.n_groups} groups)"
                ),
            )
        )
    return 0


def _cmd_dynlb(args: argparse.Namespace) -> int:
    from repro.dynlb import (
        STRATEGIES,
        DynlbConfig,
        cesm_workload,
        compare_strategies,
        fmo_workload,
    )
    from repro.util.tables import format_table

    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        _log.error(
            f"unknown strategies {unknown}; expected a subset of {list(STRATEGIES)}"
        )
        return 2
    if not strategies:
        _log.error("--strategies must name at least one strategy")
        return 2
    plan = None
    if args.crash_step is not None or args.fail_rate or args.straggler_rate:
        from repro.faults.plan import FaultPlan

        try:
            plan = FaultPlan(
                seed=args.fault_seed,
                fail_rate=args.fail_rate,
                straggler_rate=args.straggler_rate,
                crash_step=args.crash_step,
                crash_component=(
                    args.crash_component if args.crash_step is not None else None
                ),
                crash_fraction=args.crash_fraction,
            )
        except ValueError as exc:
            _log.error(str(exc))
            return 2
        _log.info(f"fault plan: {plan.describe()}")
    seed = 0 if args.seed is None else args.seed
    common = dict(
        total_nodes=args.nodes,
        steps=args.steps,
        drift=args.drift,
        drift_rate=args.drift_rate,
        noise=args.noise,
        imbalance=args.imbalance,
        seed=seed,
        faults=plan,
    )
    try:
        if args.scenario == "cesm":
            workload = cesm_workload(**common)
        else:
            workload = fmo_workload(fragments=args.fragments, **common)
        config = DynlbConfig(
            interval=args.interval,
            gain_factor=args.gain_factor,
            migration_steps=args.migration_steps,
        )
    except ValueError as exc:
        _log.error(str(exc))
        return 2
    _log.info(workload.describe())
    with _tracing(args.trace_out):
        results = compare_strategies(workload, strategies, config, seed=seed)
    static_total = (
        results["static"].total_seconds if "static" in results else None
    )
    if args.json:
        import json

        doc = {
            "workload": workload.name,
            "seed": int(seed),
            "nodes": int(args.nodes),
            "steps": int(args.steps),
            "drift": args.drift,
            "drift_rate": float(args.drift_rate),
            "strategies": {name: r.to_dict() for name, r in results.items()},
        }
        if static_total is not None:
            doc["vs_static_pct"] = {
                name: 100.0 * (static_total - r.total_seconds) / static_total
                for name, r in results.items()
            }
        if plan is not None:
            doc["fault_plan"] = plan.describe()
        print(json.dumps(doc, indent=2))
        return 0
    rows = []
    for name, r in results.items():
        delta = (
            "-"
            if static_total is None or name == "static"
            else f"{100.0 * (static_total - r.total_seconds) / static_total:+.1f}%"
        )
        rows.append(
            [
                name,
                f"{r.total_seconds:.1f}",
                delta,
                r.migrations,
                r.gated,
                f"{r.migration_seconds:.1f}",
                r.refits_full,
            ]
        )
    print(
        format_table(
            [
                "strategy",
                "total s",
                "vs static",
                "migrations",
                "gated",
                "stall s",
                "refits",
            ],
            rows,
            title=workload.describe(),
        )
    )
    crashes = {n: r.crash for n, r in results.items() if r.crash is not None}
    if crashes:
        any_crash = next(iter(crashes.values()))
        print(
            f"\ncrash: {any_crash.component!r} lost {any_crash.lost_nodes} "
            f"node(s) at step {any_crash.step}; every strategy re-planned on "
            "the survivors"
        )
    return 0


def _service_from_args(
    args: argparse.Namespace, *, forced_resilience: bool = False
):
    from repro.service import AllocationService

    resilience, chaos = _resilience_from_args(args, forced=forced_resilience)
    if chaos is not None:
        _log.info(f"chaos plan: {chaos.describe()}")
    return AllocationService(
        cache_capacity=args.cache_capacity,
        ttl=args.ttl,
        warm_start=not args.no_warm_start,
        resilience=resilience,
        chaos=chaos,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve_loop

    if args.use_async:
        return _cmd_serve_async(args)
    try:
        service = _service_from_args(args)
    except ValueError as exc:
        _log.error(str(exc))
        return 2
    with _tracing(args.trace_out):
        served = serve_loop(
            service, sys.stdin, sys.stdout, deadline=args.deadline
        )
    _log.info(f"served {served} request(s)")
    print(service.metrics.render(), file=sys.stderr)
    return 0


def _cmd_serve_async(args: argparse.Namespace) -> int:
    import json

    from repro.service import (
        AdmissionPolicy,
        AsyncServingTier,
        TierConfig,
        serve_stdio,
    )

    try:
        resilience, chaos = _resilience_from_args(args)
        if chaos is not None:
            _log.warning("chaos injection is not wired into the async tier")
        common = dict(
            shards=args.shards,
            coalesce=not args.no_coalesce,
            admission=AdmissionPolicy(max_pending=args.max_pending),
            cache_capacity=args.cache_capacity,
            ttl=args.ttl,
            warm_start=not args.no_warm_start,
            resilience=resilience,
        )
        if args.worker_mode == "auto":
            config = TierConfig.for_host(**common)
        else:
            config = TierConfig(worker_mode=args.worker_mode, **common)
    except ValueError as exc:
        _log.error(str(exc))
        return 2
    tier = AsyncServingTier(config)
    with _tracing(args.trace_out):
        served = serve_stdio(
            tier,
            sys.stdin,
            sys.stdout,
            deadline=args.deadline,
            metrics_port=args.metrics_port,
        )
    _log.info(f"served {served} request(s)")
    print(json.dumps(tier.snapshot(), indent=2), file=sys.stderr)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.service import (
        BatchExecutor,
        ServiceOverloadError,
        ServiceRequestError,
        SolveRequest,
    )

    try:
        with open(args.requests) as fh:
            payloads = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _log.error(f"cannot read {args.requests}: {exc}")
        return 2
    if not isinstance(payloads, list):
        _log.error(f"{args.requests} must hold a JSON array of requests")
        return 2
    try:
        requests = [SolveRequest.from_dict(p) for p in payloads]
    except ServiceRequestError as exc:
        _log.error(str(exc))
        return 2
    try:
        service = _service_from_args(args)
    except ValueError as exc:
        _log.error(str(exc))
        return 2
    executor = BatchExecutor(
        service,
        max_workers=args.workers,
        deadline=args.deadline,
        max_pending=args.max_pending,
    )
    try:
        responses = executor.run(requests)
    except ServiceOverloadError as exc:
        _log.error(str(exc))
        return 3
    for response in responses:
        print(json.dumps(response.to_dict()))
    if args.metrics:
        print(json.dumps({"metrics": service.metrics.snapshot()}))
    print(service.metrics.render(), file=sys.stderr)
    return 0 if all(r.ok for r in responses) else 1


def _chaos_mix(count: int, families: int) -> list:
    """A deterministic request mix: ``families`` curve sets x a budget cycle.

    Repeats are intentional — they exercise the cache and dedup paths while
    the distinct (family, budget) pairs exercise solves and warm starts.
    """
    from repro.perf.model import PerformanceModel
    from repro.service import ComponentSpec, SolveRequest

    budgets = (32, 48, 64, 96)
    requests = []
    for i in range(count):
        scale = 1.0 + 0.25 * (i % families)
        components = {
            "atm": ComponentSpec(
                model=PerformanceModel(a=1200.0 * scale, b=0.5, c=1.1, d=2.0)
            ),
            "ocn": ComponentSpec(
                model=PerformanceModel(a=800.0 * scale, b=0.3, c=1.2, d=1.0)
            ),
            "ice": ComponentSpec(
                model=PerformanceModel(a=300.0 * scale, b=0.2, c=1.0, d=0.5)
            ),
        }
        requests.append(
            SolveRequest(
                components=components,
                total_nodes=budgets[(i // families) % len(budgets)],
            )
        )
    return requests


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    from collections import Counter

    from repro.service import BatchExecutor, ServiceError, ServiceResponse

    if args.requests < 1:
        _log.error("--requests must be >= 1")
        return 2
    if args.families < 1:
        _log.error("--families must be >= 1")
        return 2
    # A chaos soak with nothing injected proves nothing: default to a
    # meaningful fault mix unless the caller picked their own rates.
    if not (
        args.chaos_crash_rate
        or args.chaos_hang_rate
        or args.chaos_slow_rate
        or args.chaos_corrupt_rate
    ):
        args.chaos_crash_rate = 0.15
        args.chaos_hang_rate = 0.05
        args.chaos_slow_rate = 0.10
        args.chaos_corrupt_rate = 0.05
    try:
        service = _service_from_args(args, forced_resilience=True)
    except ValueError as exc:
        _log.error(str(exc))
        return 2
    requests = _chaos_mix(args.requests, args.families)
    responses: list[ServiceResponse] = []
    if args.workers:
        executor = BatchExecutor(
            service,
            max_workers=args.workers,
            deadline=args.deadline,
            max_pending=max(args.requests, 1024),
        )
        responses = executor.run(requests)
    else:
        for request in requests:
            try:
                responses.append(
                    service.submit(request, deadline=args.deadline)
                )
            except ServiceError as exc:
                responses.append(
                    ServiceResponse.from_error(
                        exc, fingerprint=request.fingerprint()
                    )
                )
    sources = Counter(r.source for r in responses)
    snapshot = service.metrics.snapshot()
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(snapshot, fh, indent=2)
        _log.info(f"metrics snapshot written to {args.metrics_out}")
    answered = len(responses)
    if args.json:
        print(
            json.dumps(
                {
                    "requests": len(requests),
                    "answered": answered,
                    "sources": dict(sources),
                    "responses": [r.to_dict() for r in responses],
                    "metrics": snapshot,
                },
                indent=2,
            )
        )
    else:
        for response in responses:
            note = ""
            if response.source == "stale":
                note = f" (age {response.staleness:.1f}s)"
            elif not response.ok:
                note = f" ({response.message})"
            print(
                f"{response.fingerprint[:12]}  {response.status:<11}"
                f"  source={response.source}{note}"
            )
        print(service.metrics.render(), file=sys.stderr)
    if answered != len(requests):
        _log.error(
            f"lost requests: {len(requests) - answered} of {len(requests)} "
            "got no response"
        )
        return 1
    _log.info(
        f"all {answered} request(s) answered; "
        f"sources: {dict(sorted(sources.items()))}"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment

    kwargs = {} if args.seed is None else {"seed": args.seed}
    try:
        result = run_experiment(args.name, **kwargs)
    except KeyError as exc:
        _log.error(exc.args[0])
        return 2
    print(result.render())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Benchmark, fit, and emit the Table-I MINLP as AMPL (the paper's
    production artifact, §V: 'The AMPL code in HSLB is executed remotely via
    Python script on NEOS server')."""
    from repro.cesm.app import CESMApplication
    from repro.cesm.grids import eighth_degree, one_degree
    from repro.cesm.layouts import Layout
    from repro.core.hslb import HSLBOptimizer
    from repro.experiments.paper_data import BENCHMARK_CAMPAIGN
    from repro.minlp.ampl_export import problem_to_ampl

    config = one_degree() if args.resolution == "1deg" else eighth_degree()
    app = CESMApplication(config, layout=Layout(args.layout))
    opt = HSLBOptimizer(app)
    rng = default_rng(args.seed)
    suite = opt.gather(BENCHMARK_CAMPAIGN[args.resolution], rng)
    fits = opt.fit(suite, rng)
    problem = app.formulate({k: f.model for k, f in fits.items()}, args.nodes)
    text = problem_to_ampl(problem)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"AMPL model written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_list() -> int:
    from repro.experiments import EXPERIMENTS

    for name in sorted(EXPERIMENTS):
        print(name)
    return 0


def _strip_separator(rest: list[str]) -> list[str]:
    """argparse.REMAINDER keeps a leading ``--``; drop it."""
    return rest[1:] if rest and rest[0] == "--" else rest


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import get_tracer

    if args.trace_id is not None:
        return _cmd_trace_by_id(args)
    rest = _strip_separator(args.rest)
    if not rest:
        _log.error("trace needs a subcommand, e.g. `hslb trace optimize ...`")
        return 2
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        code = main(rest)
    finally:
        tracer.disable()
    print(tracer.render_flamegraph(), file=sys.stderr)
    return code


def _cmd_trace_by_id(args: argparse.Namespace) -> int:
    """Render one request's span tree from a JSONL trace dump."""
    from repro.obs.export import (
        assemble_trace,
        parse_trace_jsonl,
        render_flamegraph,
        render_timeline,
    )

    if not args.input:
        _log.error("trace --id needs --input FILE (a --trace-out JSONL dump)")
        return 2
    with open(args.input) as fh:
        records = parse_trace_jsonl(fh.read())
    roots = assemble_trace(records, args.trace_id)
    if not roots:
        _log.error(f"no spans for trace {args.trace_id!r} in {args.input}")
        return 1
    print(f"trace {args.trace_id} ({sum(1 for r in roots for _ in r.walk())} spans)")
    print(render_flamegraph(roots))
    print()
    print(render_timeline(roots))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import fetch_url, top

    if args.input:
        def fetch() -> str:
            with open(args.input) as fh:
                return fh.read()
    elif args.url:
        def fetch() -> str:
            return fetch_url(args.url)
    else:
        _log.error("top needs --url or --input")
        return 2
    try:
        painted = top(fetch, interval=args.interval, iterations=args.iterations)
    except KeyboardInterrupt:
        return 0
    except ValueError as exc:
        _log.error(str(exc))
        return 2
    return 0 if painted else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import prometheus_exposition
    from repro.obs.metrics import REGISTRY
    from repro.obs.telemetry import ensure_registered

    rest = _strip_separator(args.rest)
    if rest:
        code = main(rest)
        if code != 0:
            return code
    ensure_registered()
    sys.stdout.write(prometheus_exposition(REGISTRY))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    set_verbosity(args.verbose, args.quiet)
    if args.command == "optimize":
        return _cmd_optimize(args)
    if args.command == "fmo":
        return _cmd_fmo(args)
    if args.command == "dynlb":
        return _cmd_dynlb(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    return _cmd_list()


if __name__ == "__main__":
    raise SystemExit(main())
