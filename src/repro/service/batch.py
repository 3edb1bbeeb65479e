"""Batched solves: dedup, donor ordering, supervised fan-out, backpressure.

A batch is answered in four moves:

1. **admission** — a batch larger than ``max_pending`` is refused outright
   with :class:`ServiceOverloadError` carrying a ``retry_after`` hint; the
   caller backs off and retries (classic queue backpressure, not silent
   truncation);
2. **dedup** — equal fingerprints collapse to one solve; duplicates are
   answered from cache afterwards;
3. **donor ordering** — misses are grouped into warm-start families
   (identical but for node budget); each family with no cached member gets
   its smallest-budget request solved first, in-process, so every other
   member of the family fans out with an ``x0`` seed;
4. **fan-out** — remaining misses run on a
   :class:`~repro.service.supervisor.SupervisedWorkerPool` of single-process
   executors (``max_workers > 0``), at most one dispatch per worker slot,
   or serially in-process (``max_workers == 0``, the deterministic mode
   tests use).  Each request walks the service's own attempt loop
   (:meth:`~repro.service.service.AllocationService.settle`): a worker
   crash or hang costs only the attempt that worker ran, and the request
   retries on its own after its deterministic backoff, drawing the same
   chaos fault key for attempt k as a serial submit would.  Requests that
   exhaust their retries walk the service's degradation ladder instead of
   failing the batch.

A request that cannot even be rejected cleanly does not exist: every slot
of the input gets a response or a typed error envelope.
"""

from __future__ import annotations

import math
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from functools import partial

from repro.obs.slo import SLOTracker
from repro.obs.trace import span
from repro.service.errors import ServiceError, ServiceOverloadError
from repro.service.request import SolveRequest
from repro.service.response import ServiceResponse
from repro.service.service import (
    WORKER_ERRORS,
    AllocationService,
    Attempt,
    harvest_timeout,
)
from repro.service.solver import SolveOutcome
from repro.service.supervisor import Dispatch, SupervisedWorkerPool


class BatchExecutor:
    """Answer a batch of requests through one :class:`AllocationService`."""

    def __init__(
        self,
        service: AllocationService,
        *,
        max_workers: int = 0,
        deadline: float | None = None,
        max_pending: int = 1024,
        slo: SLOTracker | None = None,
    ) -> None:
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0 (0 = in-process)")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.service = service
        self.max_workers = max_workers
        self.deadline = deadline
        self.max_pending = max_pending
        self.slo = slo  # optional: batch outcomes feed SLO burn rates

    def run(self, requests: Sequence[SolveRequest]) -> list[ServiceResponse]:
        """Answer every request, preserving input order.

        Failed requests (deadline, infeasible model, exhausted ladder) come
        back as error responses in their slot — one bad request never
        poisons the batch.
        """
        metrics = self.service.metrics
        if len(requests) > self.max_pending:
            metrics.record_batch(len(requests))
            metrics.record_overload()
            if self.slo is not None:
                for _ in requests:
                    self.slo.record("batch", None, "shed")
            raise ServiceOverloadError(
                pending=len(requests),
                capacity=self.max_pending,
                retry_after=self._retry_after(len(requests)),
            )

        fingerprints = [r.fingerprint() for r in requests]
        unique: dict[str, SolveRequest] = {}
        for fp, req in zip(fingerprints, requests):
            unique.setdefault(fp, req)
        metrics.record_batch(len(requests), deduped=len(requests) - len(unique))

        misses = {
            fp: req for fp, req in unique.items() if fp not in self.service.cache
        }
        answered: dict[str, ServiceResponse] = {}
        if misses:
            with span(
                "batch.solve", size=len(requests), misses=len(misses)
            ):
                remaining = self._solve_donors(misses, answered)
                if self.max_workers and len(remaining) > 1:
                    self._fan_out(remaining, answered)
                else:
                    for fp, req in remaining.items():
                        answered[fp] = self._submit_safe(fp, req)

        # Resolution pass: the first occurrence of each solved miss keeps its
        # solve response; duplicates and pre-cached requests go through the
        # service so hits are accounted where they happen.
        out: list[ServiceResponse] = []
        for fp, req in zip(fingerprints, requests):
            fresh = answered.pop(fp, None)
            if fresh is not None:
                out.append(fresh)
                # Duplicates of a failed or degraded solve reuse the first
                # envelope rather than re-running a request that just died.
                if not fresh.ok or fresh.degraded:
                    answered[fp] = fresh
            elif fp in self.service.cache:
                out.append(self.service.submit(req))
            else:  # failed earlier in this batch; envelope re-used above
                out.append(self._submit_safe(fp, req))
        if self.slo is not None:
            for resp in out:
                if resp.degraded:
                    kind = "degraded"
                else:
                    kind = "ok" if resp.ok else "error"
                self.slo.record("batch", resp.latency, kind)
        return out

    # -- internals ---------------------------------------------------------

    def _retry_after(self, pending: int) -> float:
        """Back-off hint for shed work: the time to drain the excess.

        Estimated from the observed mean request latency (falling back to
        the per-request deadline, then to a conservative constant when the
        service has answered nothing yet).
        """
        mean = self.service.metrics.request_latency.mean
        if mean <= 0:
            mean = self.deadline if self.deadline is not None else 0.1
        excess = max(1, pending - self.max_pending)
        return excess * mean

    def _solve_donors(
        self,
        misses: dict[str, SolveRequest],
        answered: dict[str, ServiceResponse],
    ) -> dict[str, SolveRequest]:
        """Solve one donor per uncovered family; return the remaining misses."""
        families: dict[str, list[str]] = {}
        for fp, req in misses.items():
            families.setdefault(req.family_key(), []).append(fp)
        remaining = dict(misses)
        for key, members in families.items():
            if len(members) < 2 or self.service._families.get(key):
                continue  # singleton, or the cache already holds a donor
            donor_fp = min(members, key=lambda fp: misses[fp].total_nodes)
            answered[donor_fp] = self._submit_safe(donor_fp, misses[donor_fp])
            del remaining[donor_fp]
        return remaining

    def _submit_safe(self, fp: str, request: SolveRequest) -> ServiceResponse:
        try:
            return self.service.submit(request, deadline=self.deadline)
        except ServiceError as exc:
            # One bad request (or a worker death without a resilience
            # policy) is a typed envelope, never a poisoned batch.
            return ServiceResponse.from_error(exc, fingerprint=fp)

    # -- supervised fan-out -------------------------------------------------

    def _fan_out(
        self,
        remaining: dict[str, SolveRequest],
        answered: dict[str, ServiceResponse],
    ) -> None:
        """Solve ``remaining`` on a supervised pool, one dispatch per slot.

        Each request walks the service's attempt loop on its own:
        :meth:`AllocationService.settle` books every harvested outcome or
        worker error, then answers the request or hands back its next try.
        """
        service = self.service
        policy = service.resilience
        queue: deque[Attempt] = deque()

        def advance(fp: str, step: Callable, *args) -> None:
            try:
                result = step(*args)
            except ServiceError as exc:
                result = ServiceResponse.from_error(exc, fingerprint=fp)
            if isinstance(result, Attempt):
                queue.append(result)
            else:
                answered[fp] = result

        # Donors are looked up before any fan-out answer lands, so a
        # request's warm start never depends on harvest order.
        for fp, req in remaining.items():
            advance(fp, partial(service.open_attempt, deadline=self.deadline), req, fp)
        pool = SupervisedWorkerPool(
            self.max_workers,
            restart_budget=policy.restart_budget if policy else 3,
            metrics=service.metrics,
        )
        # future -> (attempt, dispatch, time past which its worker is hung)
        running: dict[Future, tuple[Attempt, Dispatch, float]] = {}
        try:
            while queue or running:
                # One dispatch per live slot, so a worker death costs only
                # the attempt it ran.  Once every slot has retired, submit
                # raises RestartBudgetError and settle picks the ladder.
                while queue and len(running) < max(pool.capacity, 1):
                    attempt = queue.popleft()
                    if not attempt.number:
                        attempt.start = time.perf_counter()  # deadline clock
                    budget = attempt.budget()
                    try:
                        dispatch = pool.submit(*service.pool_task(
                            attempt.request, x0=attempt.x0, deadline=budget,
                            attempt=attempt.number,
                        ))
                    except WORKER_ERRORS as exc:
                        advance(attempt.fingerprint, service.settle, attempt, exc)
                        continue
                    grace = harvest_timeout(budget, policy)
                    hung_at = math.inf if grace is None else time.perf_counter() + grace
                    running[dispatch.future] = (attempt, dispatch, hung_at)
                if not running:
                    continue
                soonest = min(hung_at for *_, hung_at in running.values())
                wait(
                    running,
                    timeout=(
                        None if soonest == math.inf
                        else max(0.0, soonest - time.perf_counter())
                    ),
                    return_when=FIRST_COMPLETED,
                )
                now = time.perf_counter()
                for future, (attempt, dispatch, hung_at) in list(running.items()):
                    if not (future.done() or now >= hung_at):
                        continue
                    del running[future]
                    try:  # an overdue future raises WorkerHangError
                        result = SolveOutcome.from_dict(pool.result(dispatch, timeout=0))
                    except WORKER_ERRORS as exc:
                        result = exc
                    advance(attempt.fingerprint, service.settle, attempt, result)
        finally:
            pool.shutdown()
