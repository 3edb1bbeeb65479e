"""Tests of the benchmark's own code: inputs, statistics, oracles, replay.

Run from the root of a checkout::

    python3 -m pytest hslbbench/tests -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import time

import numpy as np
import pytest

from hslbbench import inputs, oracle
from hslbbench.openloop import replay_open_loop
from hslbbench.stats import MIN_BEYOND, tail
from repro.perf.model import PerformanceModel
from repro.service.errors import ServiceOverloadError, ServiceRequestError
from repro.service.loadgen import TraceEvent
from hslbbench.workloads import BatchSweep, Measurement
from repro.service.request import ComponentSpec, SolveRequest
from repro.service.service import AllocationService
from repro.service.solver import solve_request

# -- inputs --------------------------------------------------------------------


def _fingerprints(requests) -> list[str]:
    return [r.fingerprint() for r in requests]


def test_cesm_inputs_follow_the_seed():
    assert inputs.cesm_cases(1, 0) == inputs.cesm_cases(1, 0)
    seeds = lambda s, k: [case[-1] for case in inputs.cesm_cases(s, k)]  # noqa: E731
    assert seeds(1, 0) != seeds(2, 0)
    assert seeds(1, 0) != seeds(1, 1)  # each pass draws its own instances


def test_fmo_inputs_follow_the_seed():
    sizes = lambda s: [  # noqa: E731
        [f.n_atoms for f in case[1].fragments] for case in inputs.fmo_cases(s, 0)
    ]
    assert sizes(3) == sizes(3)
    assert sizes(3) != sizes(4)


def test_service_inputs_follow_the_seed():
    trace = lambda s: [(e.time, e.priority) + (e.request.fingerprint(),)  # noqa: E731
                       for e in inputs.serve_trace(s, 10.0)]
    assert trace(5) == trace(5)
    assert trace(5) != trace(6)
    assert len(trace(5)) >= inputs.SERVE_MIN_REQUESTS
    batch = _fingerprints(inputs.batch_requests(5, 0))
    assert batch == _fingerprints(inputs.batch_requests(5, 0))
    assert batch != _fingerprints(inputs.batch_requests(6, 0))
    assert len(set(batch)) == len(batch) == 96  # every request a miss


def test_warmup_requests_share_no_family_with_measured_inputs():
    warm = {r.family_key() for r in inputs.warmup_requests(16, (64,))}
    measured = {e.request.family_key() for e in inputs.serve_trace(5, 10.0)}
    measured |= {r.family_key() for r in inputs.batch_requests(5, 0)}
    assert not warm & measured


# -- percentiles -------------------------------------------------------------------


def test_tail_reports_p99_only_with_ten_samples_beyond():
    samples = list(range(1, 1001))
    t = tail(samples, 0.99)
    assert t.label == "p99"
    assert t.value == 990.0
    assert t.count == 1000
    assert t.beyond == 10 >= MIN_BEYOND


def test_tail_falls_back_to_the_maximum_and_says_so():
    t = tail(list(range(1, 500)), 0.99)
    assert t.label == "max"
    assert t.value == 499.0
    assert (t.count, t.beyond) == (499, 0)
    with pytest.raises(ValueError):
        tail([], 0.99)


# -- oracles -------------------------------------------------------------------------


def _models(rng: np.random.Generator, names) -> dict[str, PerformanceModel]:
    return {
        name: PerformanceModel(
            a=float(rng.uniform(50, 500)),
            b=float(rng.uniform(0.0, 0.05)),
            c=float(rng.uniform(1.0, 1.5)),
            d=float(rng.uniform(0.1, 2.0)),
        )
        for name in names
    }


def test_minmax_oracles_agree_with_enumeration():
    rng = np.random.default_rng(7)
    for budget in (5, 17, 40):
        models = list(_models(rng, "xyz").values())
        best = min(
            max(float(m.time(k)) for m, k in zip(models, split))
            for split in itertools.product(range(1, budget + 1), repeat=3)
            if sum(split) <= budget
        )
        assert oracle.brute_force_minmax(models, budget) == pytest.approx(best)
        assert oracle.minmax_optimum(models, budget) == pytest.approx(best)


def test_minmax_check_rejects_a_perturbed_allocation():
    rng = np.random.default_rng(11)
    models = _models(rng, ("atm", "ice", "ocn"))
    request = SolveRequest(
        components={n: ComponentSpec(model=m) for n, m in models.items()},
        total_nodes=64,
    )
    answer = solve_request(request)
    optimum = oracle.brute_force_minmax([models[n] for n in sorted(models)], 64)
    assert oracle.check_minmax(models, answer.allocation, answer.objective, 64, optimum) is None
    # Take a node from the component on the critical path.
    slowest = max(answer.allocation, key=lambda n: float(models[n].time(answer.allocation[n])))
    worse = dict(answer.allocation, **{slowest: answer.allocation[slowest] - 1})
    worse_obj = max(float(models[n].time(k)) for n, k in worse.items())
    assert oracle.check_minmax(models, worse, worse_obj, 64, optimum) is not None
    # Over budget, or an objective that does not match the allocation.
    over = dict(answer.allocation, **{slowest: 64})
    assert oracle.check_minmax(models, over, answer.objective, 64, optimum) is not None
    assert oracle.check_minmax(models, answer.allocation, answer.objective * 0.9, 64, optimum)


def test_batch_rps_counts_only_correct_answers():
    rng = np.random.default_rng(13)
    request = SolveRequest(
        components={n: ComponentSpec(model=m) for n, m in _models(rng, "xyz").items()},
        total_nodes=48,
    )
    good = AllocationService().submit(request)
    slowest = max(good.allocation, key=good.allocation.get)
    wrong = dataclasses.replace(
        good, allocation=dict(good.allocation, **{slowest: good.allocation[slowest] - 1})
    )
    greedy = dataclasses.replace(good, source="greedy")
    m = Measurement()
    m.pass_walls.append(2.0)
    m.latencies.append(2.0)
    m.pass_correct.append(
        BatchSweep._account(m, "batch 0", [request] * 3, [good, wrong, greedy], 2.0)
    )
    assert (m.attempted, m.failed, len(m.wrong), len(m.degraded)) == (3, 2, 1, 1)
    assert m.end_to_end()["batch_rps"] == pytest.approx(0.5)  # 1 correct in 2 s


def _cesm_enumerate(models, N, atm_allowed, ocn_allowed):
    best, where = np.inf, None
    for na in atm_allowed:
        for no in ocn_allowed:
            if na + no > N:
                continue
            for ni in range(1, na):
                for nl in range(1, na - ni + 1):
                    alloc = {"atm": na, "ocn": no, "ice": ni, "lnd": nl}
                    value = oracle.layout1_makespan(models, alloc)
                    if value < best:
                        best, where = value, alloc
    return best, where


def test_cesm_oracle_matches_enumeration_and_rejects_perturbations():
    rng = np.random.default_rng(3)
    models = _models(rng, ("atm", "ocn", "ice", "lnd"))
    N, atm_allowed, ocn_allowed = 40, tuple(range(2, 31)) + (34,), (2, 4, 8, 16, 24)
    mins = {"atm": 1, "ocn": 2, "ice": 1, "lnd": 1}
    best, alloc = _cesm_enumerate(models, N, atm_allowed, ocn_allowed)
    kwargs = dict(atm_allowed=atm_allowed, ocn_allowed=ocn_allowed, min_nodes=mins)
    assert oracle.cesm_optimum(models, N, **kwargs) == pytest.approx(best)
    assert oracle.check_cesm(models, alloc, best, N, **kwargs) is None
    # Infeasible moves: under a minimum, off the ocean set, off the
    # atmosphere set, ice+lnd beyond the atmosphere's nodes.
    for change in ({"ice": 0}, {"ocn": 3}, {"atm": 35}, {"lnd": alloc["atm"]}):
        perturbed = dict(alloc, **change)
        assert oracle.check_cesm(models, perturbed, best, N, **kwargs) is not None
    # Feasible one-node moves that lengthen the makespan.
    worse = 0
    for name, delta in itertools.product(alloc, (-1, 1)):
        perturbed = dict(alloc, **{name: alloc[name] + delta})
        value = oracle.layout1_makespan(models, perturbed)
        if value > best * (1 + 1e-4):
            worse += 1
            assert oracle.check_cesm(models, perturbed, value, N, **kwargs) is not None
    assert worse
    # A predicted total the allocation does not attain.
    assert oracle.check_cesm(models, alloc, best * 1.01, N, **kwargs) is not None


# -- open-loop replay ----------------------------------------------------------------


class _StubTier:
    """Answers, sheds, errors or dies by request budget; one call stalls the loop."""

    async def submit(self, request, *, priority="interactive"):
        kind = request.total_nodes % 4
        if kind == 1:
            raise ServiceOverloadError(pending=1, capacity=1, retry_after=0.0)
        if kind == 2:
            raise ServiceRequestError("bad request")
        if kind == 3:
            raise RuntimeError("the task died")
        if request.total_nodes == 8:
            time.sleep(0.05)  # blocks the event loop: later sends go out late
        await asyncio.sleep(0.001)
        return object()


def test_replay_accounts_for_every_request_and_times_from_due():
    component = ComponentSpec(model=PerformanceModel(a=10.0))
    events = [
        TraceEvent(i, 0.002 * i, SolveRequest({"x": component}, total_nodes=4 + i), "batch")
        for i in range(40)
    ]
    log = asyncio.run(replay_open_loop(_StubTier(), events))
    assert log.sent == 40
    assert (log.count("answered"), log.count("shed"), log.count("error"), log.lost) == (
        10, 10, 10, 10,
    )
    assert log.balanced
    stalled = [o for o in log.outcomes if o.index > 4 and o.kind == "answered"]
    # Requests due during the 50 ms stall were sent late and charged for it.
    assert max(o.lag for o in stalled) > 0.02
    assert all(o.latency >= o.lag for o in log.outcomes)
