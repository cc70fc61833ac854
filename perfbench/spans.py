"""In-memory spans around the public functions of each wdmplan layer.

`Tracer.install` replaces a function by a recording wrapper under every
module attribute that names it, because `wdmplan.cli` binds the layer
functions by name at import time and `solve_exact` reaches
`solve_heuristic`, `route_flows` and `check_feasibility` through module
globals. Spans nest by call order (the program is single-threaded), stay in
memory, and are written out once as JSON lines.

A layer's self time is its span time minus the time its child spans cover.
Counters are taken at the same boundaries from the wrapped call's result.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[dict] = []

    def install(self, modules, qualname: str, count=None) -> None:
        """Wrap `qualname` ("module.function") wherever `modules` bind it."""
        owner, fname = qualname.split(".")
        original = getattr(next(m for m in modules if m.__name__.endswith("." + owner)),
                           fname)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = {"id": len(self.spans), "parent": parent and parent["id"],
                    "name": qualname, "start": time.perf_counter(), "end": None,
                    "child_s": 0.0}
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent["child_s"] += span["end"] - span["start"]
            self.counts[qualname + ".calls"] += 1
            if count is not None:
                count(self, result, args, kwargs)
            return result

        for mod in modules:
            if getattr(mod, fname, None) is original:
                setattr(mod, fname, wrapper)

    def inside(self, qualname: str) -> bool:
        return any(s["name"] == qualname for s in self._stack)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"] + ".self_s"] += (s["end"] - s["start"]) - s["child_s"]
        return out

    def dump(self, path, tag: str) -> None:
        """Append this pass's spans to a JSON-lines file."""
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps({"pass": tag, "id": s["id"], "parent": s["parent"],
                                    "name": s["name"], "start": s["start"],
                                    "end": s["end"]}) + "\n")
