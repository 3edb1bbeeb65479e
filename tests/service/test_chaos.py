"""Chaos harness invariants: every request answered, bit-identical replays.

The deterministic suite drives the *in-process* chaos mode (faults arrive
as typed exceptions, no real processes), so the invariants are exact:

* **no lost requests** — every submit returns an envelope or raises a
  typed service error, under any injected fault mix;
* **determinism** — two services with the same chaos seed answer an
  identical request stream with bit-identical (status, source, allocation,
  objective) sequences;
* **accounting** — the metrics ledger adds up: answered requests equal
  hits + solves + degraded + rejected.

One end-to-end case runs the *in-worker* mode: real ``os._exit`` crashes
inside a supervised pool, recovered without restarting the service.
"""

from __future__ import annotations

import pytest

from repro.faults import ChaosPlan
from repro.service import (
    AllocationService,
    BatchExecutor,
    ResiliencePolicy,
    RetryPolicy,
    ServiceError,
    ServiceRejectedError,
    ServiceTimeoutError,
)
from tests.service.conftest import CURVES, make_request

#: A hostile but recoverable mix: ~45% of attempts are faulted.
MIX = dict(crash_rate=0.2, hang_rate=0.1, slow_rate=0.05, corrupt_rate=0.1)


def chaos_service(seed: int = 42, **plan_kwargs) -> AllocationService:
    plan_kwargs = {**MIX, "slow_seconds": 0.0, **plan_kwargs}
    return AllocationService(
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        ),
        chaos=ChaosPlan(seed=seed, **plan_kwargs),
        sleeper=lambda _s: None,
    )


def request_stream(count: int = 60) -> list:
    """Deterministic mix of families x budgets with deliberate repeats."""
    budgets = (24, 32, 48, 64)
    out = []
    for i in range(count):
        scale = 1.0 + 0.5 * (i % 3)
        curves = {
            name: {**params, "a": params["a"] * scale}
            for name, params in CURVES.items()
        }
        out.append(make_request(budgets[(i // 3) % 4], curves=curves))
    return out


def drive(service: AllocationService, requests) -> list[tuple]:
    """Submit every request; typed failures become tuples too (never lost)."""
    results = []
    for request in requests:
        try:
            r = service.submit(request, deadline=30.0)
            results.append(
                (r.fingerprint, r.status, r.source,
                 tuple(sorted(r.allocation.items())), r.objective)
            )
        except (ServiceRejectedError, ServiceTimeoutError) as exc:
            results.append((request.fingerprint(), type(exc).__name__,
                            "rejected", (), None))
    return results


def test_no_request_is_lost_under_chaos():
    service = chaos_service()
    requests = request_stream()
    results = drive(service, requests)
    assert len(results) == len(requests)
    # Under this recoverable mix with retries, everything gets an answer.
    assert all(source != "rejected" for *_, source, _a, _o in
               [(r[0], r[1], r[2], r[3], r[4]) for r in results])
    assert service.metrics.worker_crashes + service.metrics.worker_hangs > 0


def test_seeded_chaos_replays_bit_identically():
    requests = request_stream()
    first = drive(chaos_service(seed=42), requests)
    second = drive(chaos_service(seed=42), requests)
    assert first == second
    third = drive(chaos_service(seed=43), requests)
    assert third != first  # a different seed injects a different storm


def test_unrecoverable_chaos_still_answers_every_request():
    """Rungs below exact absorb even a non-recovering fault storm."""
    service = chaos_service(crash_rate=0.95, hang_rate=0.0, slow_rate=0.0,
                            corrupt_rate=0.0)
    requests = request_stream(24)
    results = drive(service, requests)
    assert len(results) == len(requests)
    sources = {source for _fp, _st, source, _a, _o in results}
    assert "greedy" in sources  # the ladder carried the load


def test_metrics_ledger_adds_up_under_chaos():
    service = chaos_service()
    requests = request_stream()
    drive(service, requests)
    m = service.metrics
    answered = (
        m.cache_hits + m.cold_solves + m.warm_solves + m.solve_errors
        + m.degraded_stale + m.degraded_greedy + m.rejections
    )
    assert m.requests == answered
    assert m.requests == len(requests)
    snap = m.snapshot()["resilience"]
    assert snap["worker_crashes"] == m.worker_crashes
    assert snap["retries"] == m.retries


def test_typed_errors_only_under_deadline():
    """A deadline run never hangs and never dies on an untyped exception."""
    service = chaos_service()
    for request in request_stream(24):
        try:
            response = service.submit(request, deadline=5.0)
            assert response.fingerprint == request.fingerprint()
        except ServiceError:
            pass  # typed: the contract allows refusal, not silence


def test_batch_fan_out_soak_matches_the_serial_run():
    """The ``hslb chaos`` soak: a worker death costs only its own attempt.

    CLI default fault mix, seed 20260808, 60 requests: through two
    supervised workers every answer is exact or cached, with the same two
    crash draws and the same sources as the in-process run.
    """
    from collections import Counter

    from repro import cli

    def soak(workers: int):
        args = cli._build_parser().parse_args(["chaos", "--chaos-seed", "20260808"])
        vars(args).update(cli._CHAOS_DEFAULT_RATES)
        service = cli._service_from_args(args, forced_resilience=True)
        executor = BatchExecutor(service, max_workers=workers, deadline=10)
        responses = executor.run(cli._chaos_mix(60, 3))
        return Counter(r.source for r in responses), service.metrics

    serial_sources, serial = soak(0)
    sources, pooled = soak(2)
    assert set(sources) <= {"exact", "cache"}
    assert sources == serial_sources
    assert pooled.worker_crashes == serial.worker_crashes == 2


@pytest.mark.slow
def test_end_to_end_pool_crash_recovery():
    """Real worker deaths (``os._exit``) inside the supervised fan-out.

    First attempts on every unique request crash physically; retries are
    immune, so the batch must recover every answer exactly — without the
    service process restarting.
    """
    service = AllocationService(
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
            restart_budget=16,
            hang_timeout=60.0,
        ),
        chaos=ChaosPlan(seed=1, crash_rate=0.97, immune_after=1),
    )
    requests = request_stream(8)
    executor = BatchExecutor(service, max_workers=2, deadline=30.0)
    responses = executor.run(requests)
    assert len(responses) == len(requests)
    assert all(r.ok for r in responses)
    assert all(r.source in ("exact", "cache") for r in responses)
    assert service.metrics.worker_crashes > 0
    assert service.metrics.worker_restarts > 0
