"""The allocation service: cached, warm-started solves behind one entry point.

Request lifecycle::

    submit(request)
      -> canonicalize + fingerprint            (request.py)
      -> cache lookup                          (cache.py; hit: done, ~µs)
      -> circuit breaker check                 (breaker.py; open: degrade)
      -> warm-start donor: nearest cached node
         budget in the same request family     (this module)
      -> solve, x0 threaded through the
         oa/nlpbb chain, retried on system
         failures with deterministic backoff   (solver.py, retry.py)
      -> result validation (corruption check)  (solver.py)
      -> cache insert + donor-pool registration
      -> metrics

Everything after the cache lookup is the attempt loop (``open_attempt``,
then ``settle`` per attempt); the batch fan-out runs the same loop per
request on its worker pool.

Cached answers are bit-identical to fresh solves: the solve RNG is seeded
from the fingerprint, so replaying the request in any process yields the
same allocation and objective the cache stored.

**The degradation ladder.**  With a :class:`ResiliencePolicy` installed, a
request that cannot get an exact answer — worker crashes/hangs exhausted
their retries, the solver blew its deadline, the family's circuit breaker
is open — walks down explicit rungs instead of failing:

1. **stale cache** — a TTL-expired entry within ``max_stale`` seconds of
   age, served with ``source="stale"`` and its age attached;
2. **greedy approximate** — the polynomial-time bounded greedy (the same
   final rung as the PR 1 oa -> nlpbb -> greedy chain), ``source="greedy"``;
3. **typed rejection** — :class:`ServiceRejectedError`, never a silent drop.

Every rung records ``service_degraded_total``/``service_rejections_total``
and a span tag, so degradation is always visible in the metrics scrape.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.minlp.cutpool import OACutPool
from repro.minlp.solution import Status
from repro.obs.trace import span
from repro.service.breaker import BreakerPolicy, CircuitBreaker
from repro.service.cache import SolutionCache
from repro.service.errors import (
    RestartBudgetError,
    ServiceError,
    ServiceRejectedError,
    ServiceTimeoutError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.request import SolveRequest
from repro.service.response import ServiceResponse
from repro.service.retry import RetryPolicy
from repro.service.solver import (
    SolveOutcome,
    greedy_outcome,
    solve_request,
    validate_outcome,
    worker_solve,
)
from repro.service.supervisor import SupervisedWorkerPool


@dataclass(frozen=True)
class ResiliencePolicy:
    """Every knob of the resilient request path, in one value object.

    ``retry`` / ``breaker``
        Re-dispatch and circuit-breaking policies (their own modules).
    ``max_stale``
        Oldest entry age (seconds since insert) the stale rung may serve;
        ``None`` serves any entry still physically cached.
    ``allow_stale`` / ``allow_greedy``
        Switch individual rungs off (a rejected request is still typed).
    ``restart_budget``
        Consecutive deaths (with no completed task between them) a
        supervised worker slot survives; one more and the slot retires.
    ``hang_timeout``
        Harvest timeout (seconds) for pool dispatches when no per-request
        deadline implies one; the backstop that turns a silent worker hang
        into a typed, retryable failure (see :func:`harvest_timeout`).
    ``min_attempt_budget``
        Do not start another attempt with less deadline than this left.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    max_stale: float | None = None
    allow_stale: bool = True
    allow_greedy: bool = True
    restart_budget: int = 3
    hang_timeout: float = 30.0
    min_attempt_budget: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_stale is not None and self.max_stale < 0:
            raise ValueError("max_stale must be >= 0 (or None)")
        if self.restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")
        if self.hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive")


def harvest_timeout(
    deadline: float | None, policy: ResiliencePolicy | None
) -> float | None:
    """How long to wait on a pool dispatch before its worker counts as hung.

    The solver's own wall budget enforces ``deadline``; the grace on top
    only covers process scheduling overhead, capped by the policy's
    ``hang_timeout``.  With no deadline, ``hang_timeout`` alone applies, and
    with no policy either, the wait is unbounded.
    """
    if deadline is None:
        return policy.hang_timeout if policy else None
    grace = 2.0 * deadline + 5.0
    return min(grace, deadline + policy.hang_timeout) if policy else grace


#: An attempt's system failures: worker death or hang, or a retired pool.
WORKER_ERRORS = (RestartBudgetError, WorkerCrashError, WorkerHangError)


@dataclass
class Attempt:
    """One cache miss in the attempt loop; ``number`` is the next attempt.

    ``(fingerprint, number)`` keys the retry backoff and the chaos fault
    draw, so attempt k is the same serially and on the batch fan-out.
    """

    request: SolveRequest
    fingerprint: str
    deadline: float | None
    x0: dict[str, float] | None
    donor: str | None
    start: float
    number: int = 0
    reason: str = ""  # why the last attempt failed; the ladder's reason

    def budget(self) -> float | None:
        """Deadline left for the next attempt (``None``: unbounded)."""
        if self.deadline is None:
            return None
        # Never negative: a pool's harvest timeout is derived from it.
        return max(0.0, self.deadline - (time.perf_counter() - self.start))


class AllocationService:
    """High-throughput query engine over the HSLB optimizer.

    With a ``pool``, every solve runs out of process as :meth:`pool_task`
    on that supervised pool, and the pool's worker restarts are booked into
    this service's metrics.  Without one, a ``chaos`` plan injects its
    faults in-process.
    """

    def __init__(
        self,
        *,
        cache_capacity: int = 256,
        ttl: float | None = None,
        warm_start: bool = True,
        clock: Callable[[], float] = time.monotonic,
        resilience: ResiliencePolicy | None = None,
        chaos=None,  # ChaosPlan | None; annotation-free to avoid an import cycle
        sleeper: Callable[[float], None] = time.sleep,
        share_cuts: bool = False,
        pool: SupervisedWorkerPool | None = None,
    ) -> None:
        self.cache: SolutionCache[SolveOutcome] = SolutionCache(
            capacity=cache_capacity, ttl=ttl, clock=clock
        )
        self.metrics = ServiceMetrics()
        self.warm_start = warm_start
        self.resilience = resilience
        self.chaos = chaos
        self.sleeper = sleeper
        self.breaker = (
            CircuitBreaker(resilience.breaker, clock=clock) if resilience else None
        )
        # Opt-in cross-solve OA cut sharing: one cut pool per model family,
        # threaded into in-process solves so a re-solve on a family starts
        # from its surviving linearizations.  Off by default — pooled cuts
        # make an answer depend on pool history, which trades away the
        # bit-identical-replay guarantee for latency.
        self.share_cuts = share_cuts
        self._cut_pools: dict[str, OACutPool] = defaultdict(OACutPool)
        if pool is not None:
            pool.metrics = self.metrics
            self._solve = partial(self._solve_on, pool)
        elif chaos is not None:
            from repro.faults.chaos import chaotic_solve

            self._solve = chaotic_solve(chaos, solve_request)
        else:
            self._solve = (
                lambda request, *, x0=None, deadline=None, attempt=0: solve_request(
                    request,
                    x0=x0,
                    deadline=deadline,
                    cut_pool=(
                        self._cut_pools[request.family_key()]
                        if self.share_cuts
                        else None
                    ),
                )
            )
        # family key -> {fingerprint: total_nodes}; entries go stale when the
        # cache evicts/expires them and are pruned lazily on donor lookups.
        self._families: dict[str, dict[str, int]] = defaultdict(dict)

    # -- the request path --------------------------------------------------

    def submit(
        self, request: SolveRequest, *, deadline: float | None = None
    ) -> ServiceResponse:
        """Answer one request from cache, a (warm-started) solve, or the ladder.

        Raises :class:`ServiceTimeoutError` when the per-request ``deadline``
        expires with no usable incumbent and no resilience policy is
        installed, and :class:`ServiceRejectedError` when the degradation
        ladder runs out of rungs; solver failures that are the *model's*
        fault (infeasible, error) come back as a response with ``ok=False``
        instead — the caller's retry policy differs.
        """
        with span("service.submit") as sp:
            response = self._submit(request, deadline=deadline)
            sp.set_tag("cached", response.cached)
            sp.set_tag("status", response.status)
            sp.set_tag("source", response.source)
        return response

    def _submit(
        self, request: SolveRequest, *, deadline: float | None
    ) -> ServiceResponse:
        start = time.perf_counter()
        fingerprint = request.fingerprint()
        cached = self.cache.get(fingerprint)
        if cached is not None:
            latency = time.perf_counter() - start
            self.metrics.record_hit(latency)
            return ServiceResponse.from_outcome(
                cached, cached=True, latency=latency
            )
        step = self.open_attempt(
            request, fingerprint, deadline=deadline, start=start
        )
        while isinstance(step, Attempt):
            try:
                result = self._solve(
                    request, x0=step.x0, deadline=step.budget(),
                    attempt=step.number,
                )
            except WORKER_ERRORS as exc:
                result = exc
            step = self.settle(step, result)
        return step

    # -- the attempt loop --------------------------------------------------

    def open_attempt(
        self,
        request: SolveRequest,
        fingerprint: str,
        *,
        deadline: float | None,
        start: float | None = None,
    ) -> Attempt | ServiceResponse:
        """Start the attempt loop for a cache miss.

        Returns the ladder's answer when the family's circuit breaker is
        open (no attempt runs), else the first :class:`Attempt`, carrying
        the warm-start donor.
        """
        start = time.perf_counter() if start is None else start
        family = request.family_key()
        if self.breaker is not None and not self.breaker.allow(family):
            self.metrics.record_breaker_block()
            return self.fallback(
                request,
                fingerprint,
                reason=f"circuit breaker open for family {family[:12]}",
                start=start,
            )
        x0, donor = self._find_donor(request, fingerprint)
        return Attempt(request, fingerprint, deadline, x0, donor, start)

    def settle(
        self, attempt: Attempt, result: SolveOutcome | ServiceError
    ) -> Attempt | ServiceResponse:
        """Book one attempt's outcome or worker error; answer or retry.

        Worker deaths and corrupt results retry after the request's own
        backoff; ``TIME_LIMIT``, a retired pool or exhausted retries go to
        the ladder.  Without a policy, worker errors re-raise and a give-up
        raises :class:`ServiceTimeoutError`.
        """
        policy = self.resilience
        request = attempt.request
        if isinstance(result, WORKER_ERRORS):
            if not isinstance(result, RestartBudgetError):
                self.metrics.record_worker_failure(
                    "hang" if isinstance(result, WorkerHangError) else "crash"
                )
            if policy is None:
                raise result
            attempt.reason = str(result)
            if isinstance(result, RestartBudgetError):
                return self._give_up(attempt)  # no slot left to retry on
            return self._retry(attempt)
        if policy is not None:
            corrupt = validate_outcome(request, result)
            if corrupt is not None:
                self.metrics.record_corruption()
                attempt.reason = f"corrupt result: {corrupt}"
                return self._retry(attempt)
        latency = time.perf_counter() - attempt.start
        ok = result.status in (Status.OPTIMAL.value, Status.FEASIBLE.value)
        self.metrics.record_solve(
            latency, warm=result.warm_started, iterations=result.iterations, ok=ok
        )
        if ok or result.status != Status.TIME_LIMIT.value:
            # A finished solve — optimal/feasible, or a *model*-fault
            # terminal status (infeasible, error) that no retry changes.
            if self.breaker is not None:
                # Any *completed* solve is a system success — even an
                # infeasible model proves the workers and solver ran.
                self.breaker.record_success(request.family_key())
            if ok:
                self.admit(request, result)
            return ServiceResponse.from_outcome(
                result, cached=False, latency=latency, donor=attempt.donor
            )
        # TIME_LIMIT: deterministic under a fixed budget, so spend the
        # remaining deadline on the ladder, not on an identical re-run.
        self.metrics.record_timeout()
        attempt.reason = "solver exhausted its wall budget"
        return self._give_up(attempt)

    def _retry(self, attempt: Attempt) -> Attempt | ServiceResponse:
        """Back off and hand back ``attempt`` for its next try, or give up."""
        retry = self.resilience.retry
        attempt.number += 1
        if attempt.number >= retry.max_attempts:
            return self._give_up(attempt)
        self.metrics.record_retry()
        self.sleeper(retry.backoff(attempt.fingerprint, attempt.number))
        budget = attempt.budget()
        if budget is not None and budget <= self.resilience.min_attempt_budget:
            attempt.reason = "deadline exhausted before another attempt"
            return self._give_up(attempt)
        return attempt

    def _give_up(self, attempt: Attempt) -> ServiceResponse:
        """No exact answer: count a breaker failure, then walk the ladder."""
        request, deadline = attempt.request, attempt.deadline
        if self.breaker is not None:
            self.breaker.record_failure(request.family_key())
        if self.resilience is None:
            raise ServiceTimeoutError(
                fingerprint=attempt.fingerprint,
                deadline=request.options.time_limit if deadline is None else deadline,
                elapsed=time.perf_counter() - attempt.start,
            )
        return self.fallback(
            request, attempt.fingerprint, reason=attempt.reason,
            start=attempt.start,
        )

    def pool_task(
        self, request: SolveRequest, *, x0: dict | None, deadline: float | None,
        attempt: int,
    ) -> tuple:
        """``(fn, *args)`` for one attempt on a pool: chaos-wrapped if planned."""
        args = (request.to_dict(), x0, deadline)
        if self.chaos is None:
            return (worker_solve, *args)
        from repro.faults.chaos import chaos_pool_solve

        return (chaos_pool_solve, *args, self.chaos.to_dict(), attempt)

    def _solve_on(
        self,
        pool: SupervisedWorkerPool,
        request: SolveRequest,
        *,
        x0: dict | None = None,
        deadline: float | None = None,
        attempt: int = 0,
    ) -> SolveOutcome:
        """One solve on a supervised worker; worker deaths raise typed errors."""
        dispatch = pool.submit(
            *self.pool_task(request, x0=x0, deadline=deadline, attempt=attempt)
        )
        return SolveOutcome.from_dict(
            pool.result(dispatch, timeout=harvest_timeout(deadline, self.resilience))
        )

    def submit_dict(self, payload: dict, *, deadline: float | None = None) -> dict:
        """Wire-format entry point: dict in, dict out (the JSONL schema)."""
        return self.submit(
            SolveRequest.from_dict(payload), deadline=deadline
        ).to_dict()

    # -- the degradation ladder --------------------------------------------

    def fallback(
        self,
        request: SolveRequest,
        fingerprint: str,
        *,
        reason: str,
        start: float | None = None,
    ) -> ServiceResponse:
        """Walk the ladder below exact: stale cache -> greedy -> rejection.

        Raises :class:`ServiceRejectedError` from the bottom rung; every
        other return carries explicit ``source`` provenance and metrics.
        """
        policy = self.resilience
        if policy is None:
            raise ServiceRejectedError(fingerprint=fingerprint, reason=reason)
        start = time.perf_counter() if start is None else start
        with span("service.fallback") as sp:
            sp.set_tag("reason", reason)
            if policy.allow_stale:
                hit = self.cache.stale(fingerprint, max_age=policy.max_stale)
                if hit is not None:
                    value, age = hit
                    latency = time.perf_counter() - start
                    self.metrics.record_degraded("stale", latency)
                    sp.set_tag("source", "stale")
                    return ServiceResponse.from_outcome(
                        value,
                        cached=True,
                        latency=latency,
                        source="stale",
                        staleness=age,
                    )
            if policy.allow_greedy:
                outcome = greedy_outcome(request)
                latency = time.perf_counter() - start
                self.metrics.record_degraded("greedy", latency)
                sp.set_tag("source", "greedy")
                # Greedy answers are NOT admitted to the cache: they must
                # never shadow an exact answer for the same fingerprint.
                return ServiceResponse.from_outcome(
                    outcome, cached=False, latency=latency, source="greedy"
                )
            sp.set_tag("source", "rejected")
            self.metrics.record_rejection(time.perf_counter() - start)
            raise ServiceRejectedError(fingerprint=fingerprint, reason=reason)

    # -- cache/donor bookkeeping -------------------------------------------

    def admit(self, request: SolveRequest, outcome: SolveOutcome) -> None:
        """Install a finished solve into the cache and the donor pool."""
        fingerprint = outcome.fingerprint
        with span("cache.admit", fingerprint=fingerprint[:12]):
            self.cache.put(fingerprint, outcome)
            self._families[request.family_key()][fingerprint] = request.total_nodes

    def _find_donor(
        self, request: SolveRequest, fingerprint: str
    ) -> tuple[dict[str, float] | None, str | None]:
        """Nearest cached node budget in the request's family, as an x0."""
        if not self.warm_start:
            return None, None
        family = self._families.get(request.family_key())
        if not family:
            return None, None
        best: tuple[int, str] | None = None
        for fp, nodes in list(family.items()):
            if fp == fingerprint or self.cache.peek(fp) is None:
                if self.cache.peek(fp) is None:
                    del family[fp]  # evicted/expired underneath us
                continue
            gap = abs(nodes - request.total_nodes)
            if best is None or gap < best[0]:
                best = (gap, fp)
        if best is None:
            return None, None
        donor = self.cache.peek(best[1])
        return dict(donor.values), best[1]
