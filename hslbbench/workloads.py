"""The four workloads: setup, measured passes, answer checks, metrics.

Every workload returns a :class:`Measurement`.  Set-up covers what a
user pays before the first answer: imports (timed by ``run.py`` from
process start), input generation, worker start-up and one warm-up call
through every layer, on inputs the measured passes never use.  A traced
run measures each pass twice, untraced and traced, alternating which goes
first, so the tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from hslbbench import inputs, oracle
from hslbbench.layers import LayerTracer
from hslbbench.openloop import replay_open_loop
from hslbbench.stats import median, tail
from repro.cesm.app import CESMApplication
from repro.core.hslb import HSLBOptimizer
from repro.fmo.app import FMOApplication
from repro.fmo.molecules import protein_like
from repro.minlp.cutpool import OACutPool
from repro.minlp.linprog import IncrementalLPSolver
from repro.minlp.nlp import solve_nlp
from repro.minlp.nlpbb import solve_minlp_nlpbb
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.solution import Status
from repro.perf.fitting import fit_component
from repro.service.admission import AdmissionController
from repro.service.batch import BatchExecutor
from repro.service.cache import SolutionCache
from repro.service.frontend import AsyncServingTier, TierConfig
from repro.service.service import AllocationService
from repro.service.supervisor import SupervisedWorkerPool

#: Latency limits behind slo_attainment: per pipeline case, per served
#: request (from its due time) and per batch.
PIPELINE_LIMIT_S = 30.0
SERVE_LIMIT_S = 1.0
BATCH_LIMIT_S = 60.0

#: Nominal seconds per pass on a 2-core host; ``--seconds`` divided by it
#: fixes how many passes a run measures, so every run of a workload does
#: the same work and its percentiles rest on the same sample counts.
NOMINAL_PASS_S = {"cesm-table3": 2.5, "fmo-fragments": 4.5, "batch-sweep": 3.5}
#: An odd floor, so a median is a middle pass and not the mean of two.
MIN_PASSES = 5
#: Warm-up inputs are the same for every seed, so set-up does the same work.
WARMUP_SEED = 20120427

#: Every per-layer metric and its unit.
PER_LAYER_UNITS = {
    "minlp.root_nlp_s": "s",
    "minlp.nlp_s": "s",
    "minlp.nlp_solves": "count",
    "core.formulate_s": "s",
    "minlp.lp_s": "s",
    "minlp.lp_solves": "count",
    "minlp.cut_s": "s",
    "minlp.cuts_added": "count",
    "perf.fit_s": "s",
    "perf.fit_calls": "count",
    "minlp.solve_s": "s",
    "minlp.bnb_nodes": "count",
    "minlp.self_s": "s",
    "app.gather_s": "s",
    "app.execute_s": "s",
    "service.hit_rate": "ratio",
    "service.hit_p50_ms": "ms",
    "service.miss_p50_ms": "ms",
    "service.miss_p99_ms": "ms",
    "service.coalesce_rate": "ratio",
    "service.coalesce_riders": "count",
    "service.shed": "count",
    "service.degraded": "count",
    "loadgen.lag_p99_ms": "ms",
    "service.solves": "count",
    "service.warm_share": "ratio",
    "service.solve_iterations": "count",
    "service.worker_restarts": "count",
    "service.retries": "count",
    "latency_p99_ms": "ms",
    "prediction_error_pct": "%",
    "error_rate": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

#: Layers whose self times make up a pass, for trace.coverage.
_SELF_LAYERS = (
    "app.gather", "perf.fit", "core.formulate", "minlp.solve", "minlp.nlp",
    "minlp.lp", "minlp.cut", "app.execute",
    "service.pool_start", "service.fan_out",
    "service.admission", "service.cache", "service.admit",
)


def host_cores() -> int:
    """Cores this process may run on; the tier and the batch pool both use it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity
        return os.cpu_count() or 1


def tier_config() -> TierConfig:
    """``TierConfig.for_host()``, the ``hslb serve --async`` default, on ``host_cores()``."""
    return TierConfig.for_host(cores=host_cores())


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, math.ceil(seconds / NOMINAL_PASS_S[workload]))


@dataclass
class Measurement:
    """Everything one run measured and checked."""

    setup_done: float = 0.0  # perf_counter() when set-up finished
    pass_walls: list[float] = field(default_factory=list)
    # Per request, seconds.  A closed-loop workload's request is a whole
    # pass: its caller waits for every case (or every answer of a batch).
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    slo_met: int = 0  # correct answers within the latency limit
    # Correct answers per measured pass: exact, not degraded, and accepted
    # by the oracle.  batch_rps divides them by the pass's wall time.
    pass_correct: list[int] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)  # answers the oracle rejects
    # Requests answered without an exact answer: a lower tier or rung of the
    # program's own degradation ladder, or an error envelope.  They count
    # as failed, but the program did not claim an exact answer.
    degraded: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        return {
            "pipeline_s": median(self.pass_walls),
            "latency_p50_ms": 1e3 * median(self.latencies),
            "slo_attainment": self.slo_met / self.attempted,
            "batch_rps": median(
                [ok / wall for ok, wall in zip(self.pass_correct, self.pass_walls)]
            ),
        }


def _layer_metrics(tracer: LayerTracer, passes: int, pass_wall: float) -> dict[str, float]:
    """Per-pass layer times from a tracer, plus trace.coverage."""
    per = {name: tracer.wall[name] / passes for name in tracer.wall}
    nested = per.get("minlp.nlp", 0.0) + per.get("minlp.lp", 0.0) + per.get("minlp.cut", 0.0)
    self_sum = sum(tracer.self_time[name] for name in _SELF_LAYERS) / passes
    return {
        "minlp.root_nlp_s": per.get("minlp.root_nlp", 0.0),
        "minlp.nlp_s": per.get("minlp.nlp", 0.0),
        "core.formulate_s": per.get("core.formulate", 0.0),
        "minlp.lp_s": per.get("minlp.lp", 0.0),
        "minlp.cut_s": per.get("minlp.cut", 0.0),
        "perf.fit_s": per.get("perf.fit", 0.0),
        "perf.fit_calls": tracer.calls["perf.fit"] / passes,
        "minlp.solve_s": per.get("minlp.solve", 0.0),
        "minlp.self_s": max(0.0, per.get("minlp.solve", 0.0) - nested),
        "app.gather_s": per.get("app.gather", 0.0),
        "app.execute_s": per.get("app.execute", 0.0),
        "trace.coverage": self_sum / pass_wall if pass_wall > 0 else 0.0,
    }


def _trace_solver(tracer: LayerTracer) -> None:
    tracer.patch_function(solve_minlp_oa, "minlp.solve")
    tracer.patch_function(solve_minlp_nlpbb, "minlp.solve")
    tracer.patch_function(solve_nlp, "minlp.nlp")
    tracer.patch_method(IncrementalLPSolver, "solve", "minlp.lp")
    tracer.patch_method(OACutPool, "cut_for", "minlp.cut")


# -- cesm-table3 and fmo-fragments ------------------------------------------------


class PipelineWorkload:
    """Closed loop, one caller: ``HSLBOptimizer.run`` per case, cases per pass."""

    name = ""
    app_class: type  # the Application whose methods the traced run wraps

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.passes = passes_for(self.name, seconds)

    # Subclasses: the cases of pass k, an application per case, the check.
    def cases(self, k: int) -> list:
        raise NotImplementedError

    def app(self, case):
        raise NotImplementedError

    def check(self, case, result) -> str | None:
        raise NotImplementedError

    def warmup_case(self):
        raise NotImplementedError

    def _run_case(self, case, app):
        _, _, campaign, nodes, seed = case
        return HSLBOptimizer(app).run(campaign, nodes, np.random.default_rng(seed))

    def _pass(self, cases, apps) -> tuple[float, list[float], list]:
        latencies, results = [], []
        start = time.perf_counter()
        for case, app in zip(cases, apps):
            t0 = time.perf_counter()
            results.append(self._run_case(case, app))
            latencies.append(time.perf_counter() - t0)
        return time.perf_counter() - start, latencies, results

    def _install(self, tracer: LayerTracer) -> None:
        tracer.patch_method(self.app_class, "benchmark", "app.gather")
        tracer.patch_method(self.app_class, "formulate", "core.formulate")
        tracer.patch_method(self.app_class, "execute", "app.execute")
        tracer.patch_function(fit_component, "perf.fit")
        _trace_solver(tracer)

    def _account(self, m: Measurement, pass_label: str, cases, results, latencies) -> int:
        """Check one pass's answers into ``m``; return how many were correct."""
        correct = 0
        for case, result, latency in zip(cases, results, latencies):
            m.attempted += 1
            label = f"{case[0]} {pass_label}"
            status = result.solution.status
            degraded = result.solver_tier != "oa" or status is not Status.OPTIMAL
            problem = None if degraded else self.check(case, result)
            if degraded:
                attempts = "; ".join(
                    f"{a.tier} {a.status}: {a.reason}" for a in result.provenance.attempts
                )
                m.degraded.append(f"{label}: answered by {result.solver_tier} ({attempts})")
            elif problem is not None:
                m.wrong.append(f"{label}: {problem}")
            if degraded or problem is not None:
                m.failed += 1
                continue
            correct += 1
            if latency <= PIPELINE_LIMIT_S:
                m.slo_met += 1
        return correct

    def run(self, *, traced: bool = False, probe: bool = False) -> Measurement:
        m = Measurement()
        first = self.cases(0)
        warm = self.warmup_case()
        self._run_case(warm, self.app(warm))
        m.setup_done = time.perf_counter()
        if probe:
            return m
        tracer = LayerTracer() if traced else None
        traced_walls, stats, errors = [], Counter(), []
        for k in range(self.passes):
            cases = first if k == 0 else self.cases(k)
            apps = [self.app(case) for case in cases]
            order = (False, True) if k % 2 == 0 else (True, False)
            for with_trace in order if traced else (False,):
                if with_trace:
                    self._install(tracer)
                    with tracer:
                        wall, latencies, results = self._pass(cases, apps)
                    traced_walls.append(wall)
                    self._account(m, f"traced pass {k}", cases, results, latencies)
                    continue
                wall, latencies, results = self._pass(cases, apps)
                m.pass_walls.append(wall)
                m.latencies.append(wall)
                m.pass_correct.append(
                    self._account(m, f"pass {k}", cases, results, latencies)
                )
                m.details.setdefault("case_latencies", []).append(latencies)
                for result in results:
                    errors.append(result.prediction_error)
                    s = result.solution.stats
                    stats.update(
                        nlp=s.nlp_solves, lp=s.lp_solves, cuts=s.cuts_added,
                        nodes=s.nodes_explored,
                    )
        m.details["cases_per_pass"] = len(first)
        m.details["passes"] = self.passes
        if traced:
            m.layers.update(_layer_metrics(tracer, self.passes, sum(traced_walls) / self.passes))
            m.layers["trace.overhead_ratio"] = sum(traced_walls) / sum(m.pass_walls)
        m.layers.update(
            {
                "minlp.nlp_solves": stats["nlp"] / self.passes,
                "minlp.lp_solves": stats["lp"] / self.passes,
                "minlp.cuts_added": stats["cuts"] / self.passes,
                "minlp.bnb_nodes": stats["nodes"] / self.passes,
                "prediction_error_pct": 100.0 * float(np.mean(errors)),
            }
        )
        return m


class CesmTable3(PipelineWorkload):
    """The six Table III blocks, each through ``HSLBOptimizer.run``."""

    name = "cesm-table3"
    app_class = CESMApplication

    def cases(self, k: int) -> list:
        return inputs.cesm_cases(self.seed, k)

    def app(self, case):
        return CESMApplication(case[1])

    def warmup_case(self):
        # The smallest block on a seed no measured pass uses.
        key, config, campaign, nodes, _ = inputs.cesm_cases(self.seed, -1)[0]
        return (key, config, campaign, nodes, WARMUP_SEED)

    def check(self, case, result) -> str | None:
        config, nodes = case[1], case[3]
        models = {name: fit.model for name, fit in result.fits.items()}
        return oracle.check_cesm(
            models,
            dict(result.allocation.nodes),
            result.predicted_total,
            nodes,
            atm_allowed=config.atm_allowed.values,
            ocn_allowed=None if config.ocean_allowed is None else config.ocean_allowed.values,
            min_nodes={name: config.component_min_nodes(name) for name in models},
        )


class FmoFragments(PipelineWorkload):
    """Three fragmented systems through ``FMOApplication`` + ``HSLBOptimizer.run``."""

    name = "fmo-fragments"
    app_class = FMOApplication

    def cases(self, k: int) -> list:
        return inputs.fmo_cases(self.seed, k)

    def app(self, case):
        return FMOApplication(case[1])

    def warmup_case(self):
        system = protein_like(8, np.random.default_rng(WARMUP_SEED))
        return ("protein8", system, inputs.FMO_CAMPAIGN, 64, WARMUP_SEED)

    def check(self, case, result) -> str | None:
        nodes = case[3]
        models = {name: fit.model for name, fit in result.fits.items()}
        optimum = oracle.minmax_optimum(list(models.values()), nodes)
        return oracle.check_minmax(
            models, dict(result.allocation.nodes), result.predicted_total, nodes, optimum
        )


# -- service answer checks ----------------------------------------------------------


class ServiceOracle:
    """Brute-force optima per fingerprint, and one allocation per fingerprint."""

    def __init__(self) -> None:
        self._optimum: dict[str, float] = {}
        self._allocation: dict[str, dict] = {}

    def check(self, request, response) -> str | None:
        """``None`` when an exact or cached answer is optimal and consistent."""
        fp = request.fingerprint()
        if response.fingerprint != fp:
            return "response answers another request"
        models = {name: spec.model for name, spec in request.components.items()}
        if fp not in self._optimum:
            self._optimum[fp] = oracle.brute_force_minmax(
                [models[name] for name in sorted(models)], request.total_nodes
            )
        problem = oracle.check_minmax(
            models, response.allocation, response.objective, request.total_nodes,
            self._optimum[fp],
        )
        if problem is not None:
            return problem
        first = self._allocation.setdefault(fp, dict(response.allocation))
        if first != response.allocation:
            return f"allocation {response.allocation} differs from earlier {first}"
        return None


def _service_counts(metrics_list, passes: int = 1) -> dict[str, float]:
    """Service counters summed over ``metrics_list``, per pass."""
    solves = sum(m.cold_solves + m.warm_solves for m in metrics_list)
    warm = sum(m.warm_solves for m in metrics_list)
    return {
        "service.solves": solves / passes,
        "service.warm_share": warm / solves if solves else 0.0,
        "service.solve_iterations": sum(
            m.cold_iterations + m.warm_iterations for m in metrics_list
        ) / passes,
        "service.worker_restarts": sum(m.worker_restarts for m in metrics_list) / passes,
        "service.retries": sum(m.retries for m in metrics_list) / passes,
    }


# -- serve-zipf ------------------------------------------------------------------------


class ServeZipf:
    """Open-loop keyed Zipf/diurnal/flash trace through the async tier."""

    name = "serve-zipf"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.config = tier_config()

    def _warmup_requests(self, tier: AsyncServingTier) -> list:
        """One warm-up request per shard, from families the trace never uses."""
        picks: dict[str, object] = {}
        for request in inputs.warmup_requests(4 * len(tier.shards), (64,)):
            picks.setdefault(tier.route(request), request)
            if len(picks) == len(tier.shards):
                break
        return list(picks.values())

    async def _serve(self, trace, *, probe: bool, tracer: LayerTracer | None = None):
        tier = AsyncServingTier(self.config)
        async with tier:  # starts (pre-forks) the shard workers
            for request in self._warmup_requests(tier):
                await tier.submit(request)  # miss: one solve per worker
                await tier.submit(request)  # hit
            ready = time.perf_counter()
            if probe:
                return ready, None, None
            if tracer is not None:
                tracer.patch_method(AdmissionController, "decide", "service.admission")
                tracer.patch_method(SolutionCache, "get", "service.cache")
                tracer.patch_method(AllocationService, "admit", "service.admit")
            try:
                log = await replay_open_loop(tier, trace)
            finally:
                if tracer is not None:
                    tracer.restore()
            snapshot = tier.snapshot()
            snapshot["metrics"] = [s.service.metrics for s in tier.shards.values()]
        return ready, log, snapshot

    def run(self, *, traced: bool = False, probe: bool = False) -> Measurement:
        m = Measurement()
        trace = inputs.serve_trace(self.seed, self.seconds)
        ready, log, snapshot = asyncio.run(self._serve(trace, probe=probe))
        m.setup_done = ready
        if probe:
            return m
        m.pass_correct.append(self._account(m, "", trace, log))
        m.latencies.extend(outcome.latency for outcome in log.outcomes)
        m.pass_walls.append(log.wall)
        m.details.update(
            sent=log.sent,
            answered=log.count("answered"),
            shed=log.count("shed"),
            errors=log.count("error"),
            lost=log.lost,
            balanced=log.balanced,
            distinct=len({e.request.fingerprint() for e in trace}),
        )
        m.layers.update(self._service_layers(log, snapshot))
        if traced:
            tracer = LayerTracer()
            _, tlog, tsnap = asyncio.run(self._serve(trace, probe=False, tracer=tracer))
            self._account(m, "traced ", trace, tlog)
            # Per-layer numbers come from the traced replay.
            m.layers.update(self._service_layers(tlog, tsnap))
            m.layers.update(_layer_metrics(tracer, 1, tlog.wall))
            untraced = median([o.latency for o in log.outcomes])
            m.layers["trace.overhead_ratio"] = (
                median([o.latency for o in tlog.outcomes]) / untraced
            )
        return m

    @staticmethod
    def _account(m: Measurement, label: str, trace, log) -> int:
        """Check one replay's answers into ``m``; return how many were correct."""
        by_index = {event.index: event for event in trace}
        check = ServiceOracle()  # one tier, so one allocation per fingerprint
        correct = 0
        m.attempted += log.sent
        m.failed += log.lost
        for outcome in log.outcomes:
            if outcome.kind != "answered":
                m.failed += 1
                continue
            response = outcome.response
            if not response.ok or response.source not in ("exact", "cache"):
                m.failed += 1
                m.degraded.append(
                    f"{label}request {outcome.index}: {response.source} answer, "
                    f"status {response.status}"
                )
                continue
            problem = check.check(by_index[outcome.index].request, response)
            if problem is not None:
                m.failed += 1
                m.wrong.append(f"{label}request {outcome.index}: {problem}")
                continue
            correct += 1
            if outcome.latency <= SERVE_LIMIT_S:
                m.slo_met += 1
        if not log.balanced:
            m.wrong.append(f"{label}replay: sent != answered + shed + errors + lost")
        return correct

    @staticmethod
    def _service_layers(log, snapshot) -> dict[str, float]:
        sources = defaultdict(list)
        for outcome in log.outcomes:
            if outcome.kind == "answered":
                sources[outcome.response.source].append(outcome.latency)
        hits, misses = sources["cache"], sources["exact"]
        out = {
            "service.hit_rate": snapshot["hit_rate"],
            "service.hit_p50_ms": 1e3 * median(hits) if hits else 0.0,
            "service.miss_p50_ms": 1e3 * median(misses) if misses else 0.0,
            "service.miss_p99_ms": 1e3 * tail(misses).value if misses else 0.0,
            "service.coalesce_rate": snapshot["coalesce"]["coalesce_rate"],
            "service.coalesce_riders": float(snapshot["coalesce"]["riders"]),
            "service.shed": float(log.count("shed")),
            "service.degraded": float(
                snapshot["degraded_stale"] + snapshot["degraded_greedy"]
            ),
            "loadgen.lag_p99_ms": 1e3 * tail([o.lag for o in log.outcomes]).value,
        }
        out.update(_service_counts(snapshot["metrics"]))
        return out


# -- batch-sweep -------------------------------------------------------------------------


class BatchSweep:
    """Closed loop: one ``BatchExecutor.run`` of 96 distinct requests per pass."""

    name = "batch-sweep"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.passes = passes_for(self.name, seconds)
        self.workers = host_cores()

    def _executor(self) -> BatchExecutor:
        return BatchExecutor(AllocationService(), max_workers=self.workers)

    @staticmethod
    def _install(tracer: LayerTracer) -> None:
        _trace_solver(tracer)
        tracer.patch_method(SupervisedWorkerPool, "__init__", "service.pool_start")
        tracer.patch_method(SupervisedWorkerPool, "result", "service.fan_out")

    def run(self, *, traced: bool = False, probe: bool = False) -> Measurement:
        m = Measurement()
        first = inputs.batch_requests(self.seed, 0)
        # Warm-up: one family of three budgets (a donor in-process, two on the pool).
        self._executor().run(inputs.warmup_requests(1, (32, 64, 128)))
        m.setup_done = time.perf_counter()
        if probe:
            return m
        tracer = LayerTracer() if traced else None
        traced_walls, metrics = [], []
        for k in range(self.passes):
            requests = first if k == 0 else inputs.batch_requests(self.seed, k)
            order = (False, True) if k % 2 == 0 else (True, False)
            for with_trace in order if traced else (False,):
                executor = self._executor()
                if with_trace:
                    self._install(tracer)
                    with tracer:
                        start = time.perf_counter()
                        responses = executor.run(requests)
                        wall = time.perf_counter() - start
                    traced_walls.append(wall)
                    self._account(m, f"traced batch {k}", requests, responses, wall)
                    continue
                start = time.perf_counter()
                responses = executor.run(requests)
                wall = time.perf_counter() - start
                m.pass_walls.append(wall)
                m.latencies.append(wall)  # every answer of a batch arrives together
                metrics.append(executor.service.metrics)
                m.pass_correct.append(self._account(m, f"batch {k}", requests, responses, wall))
        m.details["passes"] = self.passes
        m.layers.update(_service_counts(metrics, self.passes))
        if traced:
            m.layers.update(_layer_metrics(tracer, self.passes, sum(traced_walls) / self.passes))
            m.layers["trace.overhead_ratio"] = sum(traced_walls) / sum(m.pass_walls)
        return m

    @staticmethod
    def _account(m: Measurement, label: str, requests, responses, wall: float) -> int:
        """Check one batch's answers into ``m``; return how many were correct."""
        check = ServiceOracle()
        correct = 0
        for request, response in zip(requests, responses):
            m.attempted += 1
            if not response.ok or response.source != "exact":
                m.failed += 1
                m.degraded.append(f"{label}: {response.source} answer, status {response.status}")
                continue
            problem = check.check(request, response)
            if problem is not None:
                m.failed += 1
                m.wrong.append(f"{label}: {problem}")
                continue
            correct += 1
            if wall <= BATCH_LIMIT_S:
                m.slo_met += 1
        return correct


WORKLOADS = {
    cls.name: cls for cls in (CesmTable3, FmoFragments, ServeZipf, BatchSweep)
}


def per_layer(m: Measurement) -> dict[str, float]:
    """Every per-layer metric; layers off this workload's path report 0."""
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    out.update({k: v for k, v in m.layers.items() if k in out})
    out["error_rate"] = m.failed / m.attempted
    p99 = tail(m.latencies, 0.99)
    m.details["latency_p99"] = p99.as_dict()
    out["latency_p99_ms"] = 1e3 * p99.value
    return out
