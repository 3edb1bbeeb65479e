"""The asyncio serving tier: sharded caches, coalescing, tiered admission.

This is the front end the ROADMAP's "millions of users" story needs — the
two-level split of the dynlb subsystem applied to serving instead of
compute.  **Coarse level**: a consistent-hash ring places every request's
*family* (curve set, budget removed) onto one of N shards, so all budgets
of a family share one shard's cache, warm-start donor pool, and OA cut
pool — family locality makes warm starts free instead of a cross-process
lottery.  **Fine level**: within a shard, requests are coalesced
(single-flight: N identical in-flight requests ride one solve) and solved
serially on the shard's worker, preserving the per-shard determinism the
cache depends on.

The layers, bottom-up::

    transport   serve_stream / serve_stdio — asyncio JSONL framing, one
                task per line, out-of-order completion, id passthrough
    scheduling  AsyncServingTier.submit — admission (accept / degrade /
                shed by priority), ring routing, single-flight coalescing
    solving     one AllocationService per shard — cache, donors, breaker,
                degradation ladder, the fingerprint-seeded solve

Worker modes: ``"thread"`` (default) and ``"process"`` both run the
shard's :meth:`AllocationService.submit` on a one-thread executor per
shard, so the event loop stays responsive and the shard's one thread
serializes donor lookup -> solve -> cache admission (a burst of one
family's budgets chains warm starts).  ``"process"`` additionally sends
the solve itself to a one-slot
:class:`~repro.service.supervisor.SupervisedWorkerPool` owned by the shard —
the parallel mode, since the branch-and-bound solve is GIL-bound Python.
The service's retry, validation, breaker and degradation-ladder loop covers
those out-of-process solves exactly as it covers the batch executor's: a
crashed or hung worker (``ResiliencePolicy.hang_timeout``) is killed,
replaced and retried, and a slot that retires on its restart budget hands
its requests to the ladder.  ``"inline"`` runs solves directly on the event
loop — fully deterministic, the mode the tests use.
"""

from __future__ import annotations

import asyncio
import contextvars
import io
import json
import os
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import IO

from repro.obs.metrics import REGISTRY
from repro.obs.slo import SLOTracker
from repro.obs.trace import span
from repro.service.admission import (
    DEFAULT_PRIORITY,
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.service.coalesce import SingleFlight
from repro.service.errors import ServiceError, ServiceOverloadError
from repro.service.metrics import LatencyHistogram
from repro.service.request import SolveRequest
from repro.service.response import ServiceResponse, error_envelope
from repro.service.service import AllocationService, ResiliencePolicy
from repro.service.sharding import DEFAULT_VNODES, HashRing
from repro.service.solver import greedy_outcome
from repro.service.supervisor import SupervisedWorkerPool

_WORKER_MODES = ("thread", "process", "inline")


@dataclass(frozen=True)
class TierConfig:
    """Everything the async tier needs, in one value object."""

    shards: int = 4
    vnodes: int = DEFAULT_VNODES
    worker_mode: str = "thread"
    coalesce: bool = True
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    cache_capacity: int = 256  # per shard
    ttl: float | None = None
    warm_start: bool = True
    share_cuts: bool = True
    resilience: ResiliencePolicy | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("the tier needs at least one shard")
        if self.worker_mode not in _WORKER_MODES:
            raise ValueError(
                f"unknown worker mode {self.worker_mode!r}; "
                f"expected one of {_WORKER_MODES}"
            )

    @classmethod
    def for_host(cls, cores: int | None = None, **overrides) -> "TierConfig":
        """A config matched to the host's CPU budget.

        Multi-core hosts get ``"process"`` workers (shards solve in
        parallel across cores); a single-core host gets ``"thread"``
        workers — out-of-process solving buys nothing there and forfeits
        the parent's cross-solve cut-pool reuse, so in-process is strictly
        better.  Explicit ``overrides`` win over the derived fields.
        """
        if cores is None:
            try:
                cores = len(os.sched_getaffinity(0))
            except AttributeError:  # platforms without affinity
                cores = os.cpu_count() or 1
        derived = {"worker_mode": "process" if cores > 1 else "thread"}
        derived.update(overrides)
        return cls(**derived)


class _Shard:
    """One shard: its service, its flight table, its (optional) workers."""

    def __init__(self, name: str, config: TierConfig) -> None:
        self.name = name
        self.mode = config.worker_mode
        budget = (config.resilience or ResiliencePolicy()).restart_budget
        self.pool: SupervisedWorkerPool | None = (
            SupervisedWorkerPool(1, restart_budget=budget)
            if self.mode == "process"
            else None
        )
        self.service = AllocationService(
            cache_capacity=config.cache_capacity,
            ttl=config.ttl,
            warm_start=config.warm_start,
            resilience=config.resilience,
            share_cuts=config.share_cuts,
            pool=self.pool,
        )
        self.flights = SingleFlight()
        self.requests = 0
        self.executor: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"hslb-{name}"
            )
            if self.mode != "inline"
            else None
        )

    async def solve(self, request: SolveRequest, deadline: float | None):
        """Run one (possibly warm-started) solve on this shard's worker."""
        call = partial(self.service.submit, request, deadline=deadline)
        if self.executor is None:
            with span("shard.solve", shard=self.name, mode="inline"):
                return call()
        with span("shard.solve", shard=self.name, mode=self.mode):
            # run_in_executor does NOT carry contextvars; copy the current
            # context so the thread-side spans nest under this one.
            ctx = contextvars.copy_context()
            return await asyncio.get_running_loop().run_in_executor(
                self.executor, ctx.run, self._dequeued, time.perf_counter(), call
            )

    def _dequeued(self, queued_at: float, call: Callable[[], ServiceResponse]):
        """Thread side: book the wait for this shard's thread, then solve."""
        with span("shard.queue", shard=self.name) as queue:
            pass
        if queue.trace_id:  # back-date the span to when the request queued
            queue.start = queue.end - (time.perf_counter() - queued_at)
        return call()

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True)
        if self.pool is not None:
            self.pool.shutdown()


class AsyncServingTier:
    """Consistent-hash sharded, coalescing, admission-controlled front end."""

    def __init__(
        self,
        config: TierConfig | None = None,
        *,
        slo: SLOTracker | None = None,
    ) -> None:
        self.config = config or TierConfig()
        self.shards: dict[str, _Shard] = {
            f"shard-{i}": _Shard(f"shard-{i}", self.config)
            for i in range(self.config.shards)
        }
        self.ring = HashRing(self.shards, vnodes=self.config.vnodes)
        self.admission = AdmissionController(self.config.admission)
        self.latency = LatencyHistogram()  # end-to-end, queue wait included
        self.slo = slo if slo is not None else SLOTracker()
        self.served = 0
        self.pending = 0
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut down shard workers (idempotent)."""
        if not self._closed:
            self._closed = True
            for shard in self.shards.values():
                shard.close()

    async def __aenter__(self) -> "AsyncServingTier":
        await self.warm_up()
        return self

    async def warm_up(self) -> None:
        """Pre-fork process-mode pool workers while the process is quiet.

        A ``ProcessPoolExecutor`` forks lazily at first submit — by which
        time a transport may have parked a thread in a blocking
        ``stdin.readline`` (see :func:`serve_stdio`).  A child forked while
        another thread holds ``sys.stdin``'s buffered-reader lock deadlocks
        in multiprocessing's ``_close_stdin`` bootstrap before it ever runs
        a task.  Forking every worker up front, before any transport
        thread exists, sidesteps that entirely — and moves the fork cost
        off the first request's latency.  All pools fork before any is
        waited on, so the workers start in parallel.
        """
        dispatches = [
            (s.pool, s.pool.submit(os.getpid))
            for s in self.shards.values()
            if s.pool is not None
        ]
        for pool, dispatch in dispatches:
            pool.result(dispatch)

    async def __aexit__(self, *exc) -> None:
        self.close()

    # -- the request path ----------------------------------------------------

    def route(self, request: SolveRequest) -> str:
        """The shard owning ``request``'s family."""
        return self.ring.lookup(request.family_key())

    async def submit(
        self,
        request: SolveRequest,
        *,
        priority: str = DEFAULT_PRIORITY,
        deadline: float | None = None,
    ) -> ServiceResponse:
        """Answer one request through admission, routing, and coalescing.

        Raises :class:`ServiceOverloadError` when the request is shed and
        whatever the shard's service raises when its ladder runs out —
        the same contract as :meth:`AllocationService.submit`.
        """
        start = time.perf_counter()
        shard = self.shards[self.route(request)]
        shard.requests += 1
        fingerprint = request.fingerprint()
        with span("tier.submit") as sp:
            sp.set_tag("shard", shard.name)
            sp.set_tag("priority", priority)
            with span("tier.admission") as adm:
                decision = self.admission.decide(priority, self.pending)
                adm.set_tag("decision", decision.value)
            sp.set_tag("admission", decision.value)
            if decision is AdmissionDecision.SHED:
                self._observe(start, trace_id=sp.trace_id)
                self.slo.record(priority, None, "shed")
                shard.service.metrics.record_overload()
                raise ServiceOverloadError(
                    pending=self.pending,
                    capacity=self.config.admission.max_pending,
                    retry_after=self._retry_after(),
                )

            # Fast path: a live cache hit never queues, whatever the verdict.
            cached = shard.service.cache.get(fingerprint)
            if cached is not None:
                latency = self._observe(start, trace_id=sp.trace_id)
                shard.service.metrics.record_hit(latency)
                self.slo.record(priority, latency, "ok")
                return self._stamp(
                    ServiceResponse.from_outcome(
                        cached, cached=True, latency=latency
                    ),
                    sp,
                )

            if decision is AdmissionDecision.DEGRADE:
                response = self._degrade(
                    shard, request, fingerprint, start, trace_id=sp.trace_id
                )
                self.slo.record(priority, response.latency, "degraded")
                return self._stamp(response, sp)

            self.pending += 1
            led = False

            async def _leader_solve():
                nonlocal led
                led = True
                return await shard.solve(request, deadline)

            try:
                if self.config.coalesce:
                    with span("tier.coalesce") as flight:
                        response = await shard.flights.run(
                            fingerprint, _leader_solve
                        )
                    flight.set_tag("role", "leader" if led else "rider")
                else:
                    response = await shard.solve(request, deadline)
            except ServiceError:
                self.slo.record(
                    priority, time.perf_counter() - start, "error"
                )
                raise
            finally:
                self.pending -= 1
            latency = self._observe(start, trace_id=sp.trace_id)
            self.slo.record(
                priority,
                latency,
                "ok" if response.ok
                else ("degraded" if response.degraded else "error"),
            )
            return self._stamp(response, sp)

    async def submit_dict(
        self, payload: dict, *, deadline: float | None = None
    ) -> dict:
        """Wire-format entry point: dict in, dict out (the JSONL schema).

        ``priority`` rides in the payload; ``id`` (opaque to the tier) is
        echoed back so out-of-order stream responses stay matchable.
        """
        request = SolveRequest.from_dict(payload)
        response = await self.submit(
            request,
            priority=str(payload.get("priority", DEFAULT_PRIORITY)),
            deadline=deadline,
        )
        out = response.to_dict()
        out["shard"] = self.route(request)
        if "id" in payload:
            out["id"] = payload["id"]
        return out

    # -- degraded serving ----------------------------------------------------

    def _degrade(
        self,
        shard: _Shard,
        request: SolveRequest,
        fingerprint: str,
        start: float,
        trace_id: str = "",
    ) -> ServiceResponse:
        """Answer without a solve: stale cache if present, else greedy.

        The admission layer's middle verdict.  Both rungs cost microseconds
        and reuse the degradation ladder's provenance conventions, so a
        scrape cannot mistake a load-shedding answer for an exact one.
        """
        hit = shard.service.cache.stale(fingerprint)
        if hit is not None:
            value, age = hit
            latency = self._observe(start, trace_id=trace_id)
            shard.service.metrics.record_degraded("stale", latency)
            return ServiceResponse.from_outcome(
                value, cached=True, latency=latency, source="stale",
                staleness=age,
            )
        outcome = greedy_outcome(request)
        latency = self._observe(start, trace_id=trace_id)
        shard.service.metrics.record_degraded("greedy", latency)
        return ServiceResponse.from_outcome(
            outcome, cached=False, latency=latency, source="greedy"
        )

    # -- accounting ----------------------------------------------------------

    @staticmethod
    def _stamp(response: ServiceResponse, sp) -> ServiceResponse:
        """Return the response carrying the request's trace id (if traced)."""
        if sp.trace_id and not response.trace_id:
            return replace(response, trace_id=sp.trace_id)
        return response

    def _observe(self, start: float, trace_id: str = "") -> float:
        latency = time.perf_counter() - start
        self.latency.observe(latency)
        self.served += 1
        REGISTRY.histogram("service_tier_request_seconds").observe(
            latency, exemplar=trace_id or None
        )
        return latency

    def _retry_after(self) -> float:
        """Drain-time hint for shed work, from the observed mean latency."""
        mean = self.latency.mean or 0.05
        headroom = max(1, self.pending - self.config.admission.max_pending // 2)
        return headroom * mean

    def snapshot(self) -> dict:
        """One structured view of the whole tier (JSON-ready)."""
        merged = {
            "requests": 0, "cache_hits": 0, "cold_solves": 0,
            "warm_solves": 0, "degraded_stale": 0, "degraded_greedy": 0,
            "rejections": 0, "overloads": 0,
        }
        per_shard = {}
        for name, shard in self.shards.items():
            snap = shard.service.metrics.snapshot()
            per_shard[name] = {
                "routed": shard.requests,
                "requests": snap["requests"],
                "hit_rate": snap["hit_rate"],
                "warm_start_speedup": snap["warm_start_speedup"],
                "coalesce": shard.flights.stats.as_dict(),
            }
            metrics = shard.service.metrics
            for key in merged:
                merged[key] += getattr(metrics, key)
        merged["hit_rate"] = (
            merged["cache_hits"] / merged["requests"] if merged["requests"] else 0.0
        )
        leaders = sum(s.flights.stats.leaders for s in self.shards.values())
        riders = sum(s.flights.stats.riders for s in self.shards.values())
        return {
            "shards": len(self.shards),
            "worker_mode": self.config.worker_mode,
            "served": self.served,
            "pending": self.pending,
            "admission": self.admission.as_dict(),
            "coalesce": {
                "leaders": leaders,
                "riders": riders,
                "coalesce_rate": riders / (leaders + riders)
                if (leaders + riders)
                else 0.0,
            },
            "latency": self.latency.snapshot(),
            "slo": self.slo.snapshot(),
            "per_shard": per_shard,
            **merged,
        }


# -- transport: asyncio JSONL framing -----------------------------------------


async def serve_stream(
    tier: AsyncServingTier,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    deadline: float | None = None,
) -> int:
    """Serve JSONL over an asyncio stream pair until EOF or ``quit``.

    Requests are handled concurrently (one task per line), so responses may
    arrive out of order; clients that care attach an ``id`` and match on
    its echo.  Returns the number of requests served.
    """
    lock = asyncio.Lock()

    async def emit(payload: dict) -> None:
        async with lock:
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()

    async def lines():
        while True:
            line = await reader.readline()
            if not line:
                return
            yield line.decode()

    return await _serve_lines(tier, lines(), emit, deadline=deadline)


def serve_stdio(
    tier: AsyncServingTier,
    stdin: IO[str],
    stdout: IO[str],
    *,
    deadline: float | None = None,
    metrics_port: int | None = None,
    metrics_host: str = "127.0.0.1",
) -> int:
    """The stdio flavor of :func:`serve_stream` (the ``hslb serve --async``
    transport); same JSONL schema as the synchronous ``serve_loop``.

    With ``metrics_port`` set, a :class:`repro.obs.http.MetricsServer`
    runs on the same loop for the lifetime of the serve: ``/metrics``
    scrapes the process registry (SLO gauges refreshed per scrape) and
    ``/healthz`` reports tier liveness.  Port 0 binds an ephemeral port.
    """

    async def _run() -> int:
        loop = asyncio.get_running_loop()
        lock = asyncio.Lock()

        async def emit(payload: dict) -> None:
            async with lock:
                stdout.write(json.dumps(payload) + "\n")
                stdout.flush()

        # Read from a private dup of stdin, not ``stdin`` itself: the
        # reader thread below holds its file's lock for the whole blocking
        # readline, and a process-pool worker forked meanwhile would
        # deadlock closing an inherited, locked ``sys.stdin`` in its
        # multiprocessing bootstrap.  Fake stdins without a real fd (tests)
        # fall back to being read directly — they never fork workers.
        try:
            source = os.fdopen(os.dup(stdin.fileno()), "r")
        except (OSError, ValueError, AttributeError, io.UnsupportedOperation):
            source = None

        async def lines():
            reader = source if source is not None else stdin
            while True:
                line = await loop.run_in_executor(None, reader.readline)
                if not line:
                    return
                yield line

        server = None
        if metrics_port is not None:
            from repro.obs.http import MetricsServer

            server = MetricsServer(
                slo=tier.slo,
                health=lambda: {
                    "served": tier.served,
                    "pending": tier.pending,
                    "shards": len(tier.shards),
                },
                host=metrics_host,
                port=metrics_port,
            )
            await server.start()
            from repro.obs.logging import get_logger

            get_logger("service.frontend").info(
                f"metrics endpoint live on {server.url}/metrics"
            )
        try:
            async with tier:
                return await _serve_lines(
                    tier, lines(), emit, deadline=deadline
                )
        finally:
            if server is not None:
                await server.stop()
            if source is not None:
                source.close()

    return asyncio.run(_run())


async def _serve_lines(
    tier: AsyncServingTier,
    lines,
    emit: Callable[[dict], object],
    *,
    deadline: float | None = None,
) -> int:
    """The transport-agnostic request loop: parse, dispatch, drain."""
    served = 0
    tasks: set[asyncio.Task] = set()

    async def handle(payload: dict) -> None:
        try:
            response = await tier.submit_dict(payload, deadline=deadline)
        except ServiceError as exc:
            response = error_envelope(exc)
        if "id" in payload and "id" not in response:
            response["id"] = payload["id"]
        await emit(response)

    async for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            await emit({"error": f"bad JSON: {exc}"})
            continue
        if not isinstance(payload, dict):
            await emit({"error": "each line must be a JSON object"})
            continue
        cmd = payload.get("cmd")
        if cmd == "quit":
            break
        if cmd == "metrics":
            await emit({"metrics": tier.snapshot()})
            continue
        if cmd is not None:
            await emit({"error": f"unknown command {cmd!r}"})
            continue
        served += 1
        task = asyncio.create_task(handle(payload))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*tasks)
    return served


def run_requests(
    tier: AsyncServingTier,
    requests: Iterable[SolveRequest],
    *,
    priority: str = DEFAULT_PRIORITY,
    deadline: float | None = None,
) -> list[ServiceResponse]:
    """Convenience: drive the tier from synchronous code, all-concurrent.

    Every request becomes one task on a fresh event loop; the list comes
    back in input order, one response per request.  Every
    :class:`ServiceError` (overload, timeout, rejection, worker death)
    surfaces as an error envelope, mirroring
    :class:`~repro.service.batch.BatchExecutor`.
    """

    async def _run() -> list[ServiceResponse]:
        async def one(req: SolveRequest) -> ServiceResponse:
            try:
                return await tier.submit(
                    req, priority=priority, deadline=deadline
                )
            except ServiceError as exc:
                return ServiceResponse.from_error(
                    exc, fingerprint=req.fingerprint()
                )

        async with tier:
            return list(await asyncio.gather(*(one(r) for r in requests)))

    return asyncio.run(_run())
