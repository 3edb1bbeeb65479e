"""The service's answer envelope: allocation plus provenance.

``cached``/``warm_started``/``donor`` tell the caller *how* the answer was
produced — the service analogue of :class:`repro.core.hslb.SolverProvenance`
— and ``source`` records which rung of the degradation ladder answered:

* ``"exact"``  — a fresh solve finished normally;
* ``"cache"``  — a live cache hit (bit-identical to the exact answer);
* ``"stale"``  — a cache entry past its TTL, served under bounded
  staleness (``staleness`` carries its age in seconds);
* ``"greedy"`` — the polynomial-time approximate fallback;
* ``"rejected"`` — no rung could answer; a typed refusal envelope.

Every response is explicit about its rung, so a caller (or a metrics
scrape) can always distinguish a first-class answer from a degraded one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.minlp.solution import Status
from repro.service.errors import (
    RestartBudgetError,
    ServiceError,
    ServiceOverloadError,
    ServiceRejectedError,
    ServiceTimeoutError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.service.solver import SolveOutcome

#: Degradation rungs, best to worst.
SOURCES = ("exact", "cache", "stale", "greedy", "rejected")


def error_envelope(exc: ServiceError) -> dict:
    """The JSONL answer for a request that failed with ``exc``.

    The one mapping from typed service failures to wire statuses: every
    transport and every in-process driver answers a failure through it.
    """
    envelope: dict = {"error": str(exc)}
    if isinstance(exc, ServiceOverloadError):
        envelope.update(status="overload", retry_after=exc.retry_after)
    elif isinstance(exc, ServiceTimeoutError):
        envelope.update(
            status=Status.TIME_LIMIT.value, fingerprint=exc.fingerprint
        )
    elif isinstance(exc, ServiceRejectedError):
        envelope.update(status="rejected", fingerprint=exc.fingerprint)
    elif isinstance(exc, (WorkerCrashError, WorkerHangError, RestartBudgetError)):
        envelope["status"] = Status.ERROR.value
    return envelope


@dataclass(frozen=True)
class ServiceResponse:
    """One answered request, with full provenance."""

    fingerprint: str
    allocation: dict[str, int]
    objective: float
    status: str
    cached: bool
    warm_started: bool
    donor: str | None  # fingerprint of the warm-start donor, if any
    iterations: int
    latency: float  # seconds spent answering, queue to response
    message: str = ""
    source: str = "exact"  # which ladder rung answered (see SOURCES)
    staleness: float = 0.0  # age in seconds of a stale-served answer
    trace_id: str = ""  # the request's trace, when tracing was enabled

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ValueError(f"unknown response source {self.source!r}")

    @property
    def ok(self) -> bool:
        return self.status in (Status.OPTIMAL.value, Status.FEASIBLE.value)

    @property
    def degraded(self) -> bool:
        """True when any rung below exact/cache produced this answer."""
        return self.source in ("stale", "greedy", "rejected")

    @classmethod
    def from_outcome(
        cls,
        outcome: SolveOutcome,
        *,
        cached: bool,
        latency: float,
        donor: str | None = None,
        source: str | None = None,
        staleness: float = 0.0,
    ) -> "ServiceResponse":
        return cls(
            fingerprint=outcome.fingerprint,
            allocation=dict(outcome.allocation),
            objective=outcome.objective,
            status=outcome.status,
            cached=cached,
            warm_started=outcome.warm_started,
            donor=donor,
            iterations=outcome.iterations,
            latency=latency,
            message=outcome.message,
            source=source or ("cache" if cached else "exact"),
            staleness=staleness,
        )

    @classmethod
    def error(
        cls,
        *,
        fingerprint: str,
        status: str,
        message: str,
        source: str = "exact",
        latency: float = 0.0,
    ) -> "ServiceResponse":
        """A failed request (timeout, overload, rejection) as an envelope."""
        return cls(
            fingerprint=fingerprint,
            allocation={},
            objective=float("nan"),
            status=status,
            cached=False,
            warm_started=False,
            donor=None,
            iterations=0,
            latency=latency,
            message=message,
            source=source,
        )

    @classmethod
    def from_error(
        cls, exc: ServiceError, *, fingerprint: str
    ) -> "ServiceResponse":
        """``exc`` as a failed-request envelope (see :func:`error_envelope`)."""
        status = error_envelope(exc).get("status", Status.ERROR.value)
        return cls.error(
            fingerprint=getattr(exc, "fingerprint", "") or fingerprint,
            status=status,
            message=str(exc),
            source="rejected" if status in ("overload", "rejected") else "exact",
        )

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "allocation": dict(self.allocation),
            "objective": self.objective,
            "status": self.status,
            "cached": self.cached,
            "warm_started": self.warm_started,
            "donor": self.donor,
            "iterations": self.iterations,
            "latency": self.latency,
            "message": self.message,
            "source": self.source,
            "staleness": self.staleness,
            "trace_id": self.trace_id,
        }
