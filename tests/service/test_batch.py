"""Batch executor: dedup, donor ordering, backpressure, deadlines, order."""

from __future__ import annotations

import pytest

from repro.faults import ChaosPlan
from repro.minlp.bnb import BnBOptions
from repro.service import (
    AllocationService,
    BatchExecutor,
    BreakerPolicy,
    ResiliencePolicy,
    ServiceOverloadError,
)

from tests.service.conftest import CURVES, make_request


def _executor(**kwargs) -> BatchExecutor:
    return BatchExecutor(AllocationService(), **kwargs)


def test_batch_preserves_input_order_and_dedups(request64):
    executor = _executor()
    batch = [request64, make_request(96), request64, request64]
    responses = executor.run(batch)
    assert [r.fingerprint for r in responses] == [
        r.fingerprint() for r in batch
    ]
    # One solve per distinct fingerprint; duplicates answered from cache.
    assert [r.cached for r in responses] == [False, False, True, True]
    metrics = executor.service.metrics
    assert metrics.batch_requests == 4
    assert metrics.batch_deduped == 2
    assert metrics.misses == 2 and metrics.cache_hits == 2


def test_duplicate_answers_are_bit_identical(request64):
    responses = _executor().run([request64, request64])
    assert responses[0].allocation == responses[1].allocation
    assert responses[0].objective == responses[1].objective


def test_donor_first_ordering_warms_the_family():
    executor = _executor()
    responses = executor.run([make_request(n) for n in (96, 64, 128)])
    # The smallest budget in the family is solved first as the donor; every
    # other member fans out warm-started from it.
    by_nodes = {64: responses[1], 96: responses[0], 128: responses[2]}
    assert not by_nodes[64].warm_started
    assert by_nodes[96].warm_started and by_nodes[128].warm_started
    assert executor.service.metrics.warm_solves == 2


def test_backpressure_refuses_oversized_batches(request64):
    executor = _executor(max_pending=2)
    with pytest.raises(ServiceOverloadError) as err:
        executor.run([request64] * 3)
    assert err.value.pending == 3 and err.value.capacity == 2
    assert executor.service.metrics.overloads == 1


def test_deadline_miss_is_an_error_envelope_not_a_crash():
    # An enormous instance with a sub-microsecond budget cannot finish; its
    # slot carries a typed error while the rest of the batch succeeds.
    executor = _executor(deadline=1e-9)
    doomed = make_request(4096, options=BnBOptions(time_limit=1e-9))
    responses = executor.run([doomed])
    assert not responses[0].ok
    assert responses[0].status == "time_limit"
    assert executor.service.metrics.timeouts >= 1


def test_failed_duplicates_reuse_the_error_envelope():
    executor = _executor(deadline=1e-9)
    doomed = make_request(4096, options=BnBOptions(time_limit=1e-9))
    responses = executor.run([doomed, doomed])
    assert [r.ok for r in responses] == [False, False]
    # The duplicate shares the first envelope instead of re-solving.
    assert responses[0].fingerprint == responses[1].fingerprint
    assert executor.service.metrics.cold_solves + executor.service.metrics.warm_solves <= 1


def test_precached_requests_hit_without_resolving(request64):
    service = AllocationService()
    service.submit(request64)
    executor = BatchExecutor(service)
    responses = executor.run([request64, request64])
    assert all(r.cached for r in responses)
    assert service.metrics.cold_solves == 1  # only the priming solve


def test_process_pool_fan_out_matches_serial(request64):
    # Two distinct families, so neither is the other's donor and both truly
    # fan out to worker processes in the pooled run.
    other = {name: dict(p, a=p["a"] * 2.0) for name, p in CURVES.items()}
    batch = [request64, make_request(96, curves=other)]
    serial = _executor().run(batch)
    pooled = BatchExecutor(AllocationService(), max_workers=2).run(batch)
    for a, b in zip(serial, pooled):
        assert a.allocation == b.allocation
        assert a.objective == b.objective  # fingerprint-seeded: bit-identical


def _family(k: int) -> dict:
    """Curves of the ``k``-th distinct request family."""
    return {name: dict(p, a=p["a"] * (1.0 + 0.5 * k)) for name, p in CURVES.items()}


def test_breaker_blocked_family_goes_straight_to_the_ladder():
    sleeps: list[float] = []
    service = AllocationService(
        resilience=ResiliencePolicy(
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=600.0)
        ),
        sleeper=sleeps.append,
    )
    blocked = make_request(64)
    service.breaker.record_failure(blocked.family_key())  # opens it
    responses = BatchExecutor(service, max_workers=2).run(
        [blocked, make_request(96, curves=_family(1))]
    )
    assert [r.source for r in responses] == ["greedy", "exact"]
    # Blocked once, before any dispatch: no retry, no backoff.
    assert service.metrics.breaker_blocks == 1
    assert service.metrics.retries == 0
    assert sleeps == []


def test_retired_pool_sends_the_rest_to_the_ladder_without_retries():
    plan = ChaosPlan(seed=7, crash_rate=0.99)
    requests = [make_request(64, curves=_family(k)) for k in range(5)]
    assert all(plan.fault(r.fingerprint(), 0) == "crash" for r in requests)
    service = AllocationService(
        resilience=ResiliencePolicy(restart_budget=0),
        chaos=plan,
        sleeper=lambda _s: None,
    )
    responses = BatchExecutor(service, max_workers=2, deadline=30.0).run(requests)
    assert [r.source for r in responses] == ["greedy"] * len(requests)
    m = service.metrics
    # One crash per slot retires both; only those two requests booked a
    # retry, which found no slot, like the three never dispatched.
    assert m.worker_crashes == 2
    assert m.worker_restarts == 0
    assert m.retries == 2


def test_constructor_validation():
    service = AllocationService()
    with pytest.raises(ValueError):
        BatchExecutor(service, max_workers=-1)
    with pytest.raises(ValueError):
        BatchExecutor(service, deadline=0.0)
    with pytest.raises(ValueError):
        BatchExecutor(service, max_pending=0)
