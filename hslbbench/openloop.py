"""Open-loop replay: requests go out on schedule, whatever the tier does.

Each request is timed from its *due* time, not from when the generator
got round to sending it, so a stalled event loop charges its delay to every
request that should have gone out meanwhile.  How late each send was is
recorded too: a run with a large send lag measured the generator, not the
tier.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.service.errors import ServiceError, ServiceOverloadError
from repro.service.frontend import AsyncServingTier
from repro.service.loadgen import TraceEvent
from repro.service.response import ServiceResponse

#: Seconds between starting the clock and the first due time.
LEAD = 0.05


@dataclass
class Outcome:
    """What happened to one request."""

    index: int
    kind: str  # "answered" | "shed" | "error"
    latency: float = 0.0  # completion minus due time, seconds
    lag: float = 0.0  # send time minus due time, seconds
    response: ServiceResponse | None = None


@dataclass
class ReplayLog:
    """Every request's outcome plus the accounting totals."""

    sent: int = 0
    outcomes: list[Outcome] = field(default_factory=list)
    lost: int = 0
    wall: float = 0.0

    def count(self, kind: str) -> int:
        return sum(1 for o in self.outcomes if o.kind == kind)

    @property
    def balanced(self) -> bool:
        """sent == answered + shed + errors + lost."""
        return self.sent == (
            self.count("answered") + self.count("shed") + self.count("error") + self.lost
        )


async def replay_open_loop(tier: AsyncServingTier, events: list[TraceEvent]) -> ReplayLog:
    """Send ``events`` at ``event.time`` and account for every one."""
    loop = asyncio.get_running_loop()
    log = ReplayLog()
    start = loop.time() + LEAD

    async def one(event: TraceEvent, due: float, sent: float) -> Outcome:
        try:
            response = await tier.submit(event.request, priority=event.priority)
        except ServiceOverloadError:
            return Outcome(event.index, "shed", loop.time() - due, sent - due)
        except ServiceError:
            return Outcome(event.index, "error", loop.time() - due, sent - due)
        return Outcome(event.index, "answered", loop.time() - due, sent - due, response)

    tasks = []
    for event in events:
        due = start + event.time
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(event, due, loop.time())))
        log.sent += 1
    results = await asyncio.gather(*tasks, return_exceptions=True)
    log.wall = loop.time() - start
    for result in results:
        if isinstance(result, Outcome):
            log.outcomes.append(result)
        else:
            log.lost += 1
    return log
