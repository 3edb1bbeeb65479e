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
   executors (``max_workers > 0``) or serially in-process
   (``max_workers == 0``, the deterministic mode tests use).

The fan-out is **resilient** when the service carries a
:class:`~repro.service.service.ResiliencePolicy`: a worker crash or hang is
contained to its slot, booked against that worker's health, and the victim
request is re-dispatched (idempotent — solves are fingerprint-seeded) with
deterministic backoff between rounds; straggler dispatches optionally get a
hedged duplicate, first answer wins; requests that exhaust their retries
walk the service's degradation ladder instead of failing the batch.  A
request that cannot even be rejected cleanly does not exist: every slot of
the input gets a response or a typed error envelope.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.minlp.solution import Status
from repro.obs.slo import SLOTracker
from repro.obs.trace import span
from repro.service.errors import (
    RestartBudgetError,
    ServiceError,
    ServiceOverloadError,
    ServiceRejectedError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.service.request import SolveRequest
from repro.service.response import ServiceResponse
from repro.service.service import AllocationService, harvest_timeout
from repro.service.solver import SolveOutcome, validate_outcome, worker_solve
from repro.service.supervisor import Dispatch, SupervisedWorkerPool, wait_any


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
        service = self.service
        policy = service.resilience
        attempts = policy.retry.max_attempts if policy else 1
        restart_budget = policy.restart_budget if policy else 3
        pool = SupervisedWorkerPool(
            self.max_workers,
            restart_budget=restart_budget,
            metrics=service.metrics,
        )
        # Per-fingerprint context: (request, x0, donor, last failure reason).
        donors = {
            fp: service._find_donor(req, fp) for fp, req in remaining.items()
        }
        pending = dict(remaining)
        reasons: dict[str, str] = {}
        try:
            for attempt in range(attempts):
                if not pending:
                    break
                if attempt and policy:
                    service.sleeper(policy.retry.backoff("batch", attempt))
                pending = self._fan_round(
                    pool, pending, donors, answered, reasons, attempt
                )
        finally:
            pool.shutdown()
        # Retries exhausted (or unavailable): remaining requests walk the
        # service's degradation ladder; its bottom is a typed envelope.
        for fp, req in pending.items():
            answered[fp] = self._degrade_safe(
                fp, req, reasons.get(fp, "fan-out failed")
            )

    def _fan_round(
        self,
        pool: SupervisedWorkerPool,
        pending: dict[str, SolveRequest],
        donors: dict,
        answered: dict[str, ServiceResponse],
        reasons: dict[str, str],
        attempt: int,
    ) -> dict[str, SolveRequest]:
        """Dispatch every pending request once; returns next round's misses."""
        service = self.service
        policy = service.resilience
        metrics = service.metrics
        chaos = service.chaos
        failures: dict[str, SolveRequest] = {}
        dispatches: dict[str, Dispatch] = {}
        for fp, req in pending.items():
            if service.breaker is not None and not service.breaker.allow(
                req.family_key()
            ):
                metrics.record_breaker_block()
                failures[fp] = req
                reasons[fp] = (
                    f"circuit breaker open for family {req.family_key()[:12]}"
                )
                continue
            x0, _donor = donors[fp]
            try:
                dispatches[fp] = self._dispatch(pool, req, x0, chaos, attempt)
            except (RestartBudgetError, WorkerCrashError) as exc:
                failures[fp] = req
                reasons[fp] = str(exc)
        # Turns a hung worker into a typed, retryable failure instead of a
        # stuck batch.
        grace = harvest_timeout(self.deadline, policy)
        for fp, dispatch in dispatches.items():
            req = pending[fp]
            try:
                payload = self._harvest(pool, dispatch, grace, fp)
                outcome = SolveOutcome.from_dict(payload)
            except (WorkerCrashError, WorkerHangError, RestartBudgetError) as exc:
                metrics.record_worker_failure(
                    "hang" if isinstance(exc, WorkerHangError) else "crash"
                )
                failures[fp] = req
                reasons[fp] = str(exc)
                continue
            if policy is not None:
                corrupt = validate_outcome(req, outcome)
                if corrupt is not None:
                    metrics.record_corruption()
                    failures[fp] = req
                    reasons[fp] = f"corrupt result: {corrupt}"
                    continue
            self._book_outcome(fp, req, outcome, donors[fp][1], answered, reasons)
        # Count retries for requests that will ride another round.
        if attempt + 1 < (policy.retry.max_attempts if policy else 1):
            for _ in failures:
                metrics.record_retry()
        return failures

    def _dispatch(
        self,
        pool: SupervisedWorkerPool,
        req: SolveRequest,
        x0: dict | None,
        chaos,
        attempt: int,
    ) -> Dispatch:
        if chaos is not None:
            from repro.faults.chaos import chaos_pool_solve

            return pool.submit(
                chaos_pool_solve, req.to_dict(), x0, self.deadline,
                chaos.to_dict(), attempt,
            )
        return pool.submit(worker_solve, req.to_dict(), x0, self.deadline)

    def _harvest(
        self,
        pool: SupervisedWorkerPool,
        dispatch: Dispatch,
        grace: float | None,
        fp: str,
    ) -> dict:
        """Wait for one dispatch, hedging a straggler when policy allows."""
        policy = self.service.resilience
        hedge_after = policy.retry.hedge_after if policy else None
        if (
            hedge_after is None
            or grace is None
            or hedge_after >= grace
            or pool.capacity < 2
        ):
            return pool.result(dispatch, timeout=grace)
        done, _ = wait_any([dispatch.future], hedge_after)
        if done:
            return pool.result(dispatch, timeout=0)
        # Straggler: issue a duplicate dispatch; first answer wins.
        self.service.metrics.record_hedge()
        try:
            hedge = pool.submit(dispatch.fn, *dispatch.args)
        except (RestartBudgetError, WorkerCrashError):
            return pool.result(dispatch, timeout=max(0.0, grace - hedge_after))
        done, _ = wait_any(
            [dispatch.future, hedge.future], max(0.0, grace - hedge_after)
        )
        if dispatch.future.done():
            pool.forget(hedge)
            return pool.result(dispatch, timeout=0)
        if hedge.future.done():
            pool.forget(dispatch)
            return pool.result(hedge, timeout=0)
        # Both hung: reap the hedge's slot too, then surface the primary's
        # hang (result() kills and replaces the worker).
        pool.forget(hedge)
        return pool.result(dispatch, timeout=0)

    def _book_outcome(
        self,
        fp: str,
        req: SolveRequest,
        outcome: SolveOutcome,
        donor: str | None,
        answered: dict[str, ServiceResponse],
        reasons: dict[str, str],
    ) -> None:
        service = self.service
        metrics = service.metrics
        ok = outcome.status in (Status.OPTIMAL.value, Status.FEASIBLE.value)
        metrics.record_solve(
            outcome.wall_time,
            warm=outcome.warm_started,
            iterations=outcome.iterations,
            ok=ok,
        )
        if service.breaker is not None and (
            ok or outcome.status != Status.TIME_LIMIT.value
        ):
            service.breaker.record_success(req.family_key())
        if ok:
            service.admit(req, outcome)
        elif outcome.status == Status.TIME_LIMIT.value:
            metrics.record_timeout()
            if service.breaker is not None:
                service.breaker.record_failure(req.family_key())
            if service.resilience is not None:
                # A deadline miss with resilience installed still owes the
                # caller an answer: hand it to the ladder immediately.
                answered[fp] = self._degrade_safe(
                    fp, req, "worker solve exhausted its wall budget"
                )
                return
        answered[fp] = ServiceResponse.from_outcome(
            outcome, cached=False, latency=outcome.wall_time, donor=donor
        )

    def _degrade_safe(
        self, fp: str, req: SolveRequest, reason: str
    ) -> ServiceResponse:
        service = self.service
        if service.breaker is not None:
            service.breaker.record_failure(req.family_key())
        if service.resilience is None:
            return ServiceResponse.error(
                fingerprint=fp, status=Status.TIME_LIMIT.value, message=reason
            )
        try:
            return service.fallback(req, fp, reason=reason)
        except ServiceRejectedError as exc:
            return ServiceResponse.from_error(exc, fingerprint=fp)
