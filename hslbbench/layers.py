"""Per-layer timing from wrappers around the library's public calls.

The traced run patches the functions and methods each layer is entered
through (every ``repro`` module binding of a function is patched, so calls
through ``from x import f`` names are seen too), and keeps, per layer, the
wall time, the self time (wall time minus the time of wrapped calls nested
inside it) and the call count.  Nothing inside the library is changed; the
patches are undone by :meth:`LayerTracer.restore`.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from functools import wraps

#: The first NLP solved directly inside a MINLP solve is its root relaxation.
ROOT_PARENT, NLP_LAYER, ROOT_LAYER = "minlp.solve", "minlp.nlp", "minlp.root_nlp"


class LayerTracer:
    """Wall, self time and calls per layer, with thread-local call stacks."""

    def __init__(self) -> None:
        self.wall: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped to book its time under ``layer``."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [layer, 0.0, 0]  # layer, time in wrapped children, NLPs seen
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.wall[layer] += elapsed
                self.self_time[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    if layer == NLP_LAYER and parent[0] == ROOT_PARENT:
                        if parent[2] == 0:
                            self.wall[ROOT_LAYER] += elapsed
                            self.calls[ROOT_LAYER] += 1
                        parent[2] += 1

        return wrapper

    def patch_method(self, cls: type, name: str, layer: str) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, self.timed(layer, original))

    def patch_function(self, fn: Callable, layer: str) -> None:
        """Patch every ``repro`` module attribute bound to ``fn``."""
        wrapped = self.timed(layer, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
