"""Process-mode tier shards: poison requests and hung workers are contained.

Faults are injected by swapping the service's worker entry point for a
module-level (picklable) stand-in before ``async with tier`` forks the
workers; the stand-in misbehaves on one node budget and solves every other
request normally.  Everything else is the production path: a one-slot
supervised pool per shard under the service's retry and ladder loop.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.obs.trace import get_tracer
from repro.service import (
    AsyncServingTier,
    ResiliencePolicy,
    RetryPolicy,
    TierConfig,
    run_requests,
)
from repro.service import service as service_module
from repro.service.solver import worker_solve

from tests.service.conftest import make_request

#: The node budget the stand-in entry points misbehave on.
POISON_NODES = 96


def _dies_on_poison(payload, x0, deadline):
    if payload["total_nodes"] == POISON_NODES:
        os._exit(3)
    return worker_solve(payload, x0, deadline)


def _hangs_on_poison(payload, x0, deadline):
    if payload["total_nodes"] == POISON_NODES:
        time.sleep(60.0)
    return worker_solve(payload, x0, deadline)


@pytest.fixture
def tracer():
    t = get_tracer()
    t.reset()
    t.enable()
    try:
        yield t
    finally:
        t.disable()
        t.reset()


def _process_tier(resilience: ResiliencePolicy | None) -> AsyncServingTier:
    return AsyncServingTier(
        TierConfig(shards=1, worker_mode="process", resilience=resilience)
    )


def _worker_pids(tracer) -> list[int]:
    return [
        span.tags["pid"]
        for root in tracer.roots
        for span, _ in root.walk()
        if span.name == "worker.solve"
    ]


def test_poison_request_falls_to_the_ladder_and_the_shard_recovers(
    monkeypatch, tracer
):
    monkeypatch.setattr(service_module, "worker_solve", _dies_on_poison)
    policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=2, base_delay=0.0))
    tier = _process_tier(policy)
    (shard,) = tier.shards.values()
    reference = run_requests(
        AsyncServingTier(TierConfig(shards=1, worker_mode="inline")),
        [make_request(64)],
    )[0]

    poisoned, healthy = run_requests(
        tier, [make_request(POISON_NODES), make_request(64)]
    )

    assert poisoned.source == "greedy" and poisoned.ok
    deaths = shard.pool.snapshot()["workers"][0]["crashes"]
    assert 1 <= deaths <= policy.retry.max_attempts
    assert shard.service.metrics.worker_crashes == deaths
    assert shard.service.metrics.worker_restarts == deaths
    # The replacement worker answers the next request exactly.
    assert healthy.source == "exact" and healthy.ok
    assert healthy.objective == pytest.approx(reference.objective, rel=1e-9)
    pids = _worker_pids(tracer)
    assert pids, "the healthy solve must be traced in its worker"
    assert os.getpid() not in pids  # no solve ever ran in the server


def test_poison_request_without_a_policy_gets_a_typed_envelope(monkeypatch):
    monkeypatch.setattr(service_module, "worker_solve", _dies_on_poison)
    requests = [make_request(48), make_request(POISON_NODES), make_request(64)]

    responses = run_requests(_process_tier(None), requests)

    # One envelope per input: the worker death must not swallow siblings.
    assert len(responses) == len(requests)
    first, poisoned, last = responses
    assert poisoned.status == "error" and not poisoned.ok
    assert "crashed" in poisoned.message
    assert poisoned.fingerprint == requests[1].fingerprint()
    assert first.ok and last.ok


def test_hung_worker_is_killed_replaced_and_its_request_degraded(monkeypatch):
    monkeypatch.setattr(service_module, "worker_solve", _hangs_on_poison)
    policy = ResiliencePolicy(retry=RetryPolicy(max_attempts=1), hang_timeout=0.5)
    tier = _process_tier(policy)
    (shard,) = tier.shards.values()

    start = time.perf_counter()
    hung, healthy = run_requests(
        tier, [make_request(POISON_NODES), make_request(64)]
    )

    assert time.perf_counter() - start < 30.0  # killed, not waited out
    assert hung.source == "greedy" and hung.ok
    assert shard.pool.snapshot()["workers"][0]["hangs"] == 1
    assert shard.service.metrics.worker_hangs == 1
    assert healthy.source == "exact" and healthy.ok
