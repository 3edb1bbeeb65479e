"""The ``repro serve`` request loop: JSONL in, JSONL out.

One request object per line on stdin, one response object per line on
stdout — the lingua franca of shell pipelines and load generators alike::

    $ echo '{"components": {"atm": {"a": 1200}, "ocn": {"a": 800}},
             "total_nodes": 64}' | hslb serve

Control lines (``{"cmd": ...}``) are answered inline:

* ``{"cmd": "metrics"}`` — the structured metrics snapshot;
* ``{"cmd": "quit"}``    — stop reading (EOF works too).

Malformed lines produce an ``{"error": ...}`` response and the loop keeps
going; a broken client must not take the service down.
"""

from __future__ import annotations

import json
from typing import IO

from repro.service.errors import ServiceError
from repro.service.response import error_envelope
from repro.service.service import AllocationService


def serve_loop(
    service: AllocationService,
    stdin: IO[str],
    stdout: IO[str],
    *,
    deadline: float | None = None,
) -> int:
    """Run the request loop until EOF/quit; returns the number served."""
    served = 0
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            _emit(stdout, {"error": f"bad JSON: {exc}"})
            continue
        if not isinstance(payload, dict):
            _emit(stdout, {"error": "each line must be a JSON object"})
            continue
        cmd = payload.get("cmd")
        if cmd == "quit":
            break
        if cmd == "metrics":
            _emit(stdout, {"metrics": service.metrics.snapshot()})
            continue
        if cmd is not None:
            _emit(stdout, {"error": f"unknown command {cmd!r}"})
            continue
        try:
            response = service.submit_dict(payload, deadline=deadline)
        except ServiceError as exc:
            response = error_envelope(exc)
        _emit(stdout, response)
        served += 1
    return served


def _emit(stdout: IO[str], payload: dict) -> None:
    stdout.write(json.dumps(payload) + "\n")
    stdout.flush()
