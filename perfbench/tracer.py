"""Span tracing of the obslab package, installed from outside the package.

`install()` replaces every public function of every obslab module with a
wrapper that records one span per call: name, parent span, start and end.
The replacement is made in every obslab namespace that binds the function
(module globals, `from x import f` copies, and module-level dicts such as
`suites.SUITES`), so nested calls land on the right span whichever name
they were reached through.  `Graph.bfs_dist` is wrapped at class level.

Spans stay in memory, in flat arrays, and are written out once at exit by
`Tracer.finish()`.  Per-function self time (span minus the time its child
spans cover) is computed from the spans at that point, outside any timed
region.  The package runs in one thread and no layer waits on another, so
there is no wait time to record: a span's time is either its own work or
the work of its children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

MODULES = (
    "graph_core",
    "generators",
    "detectors",
    "treewidth",
    "structures",
    "extractors",
    "suites",
    "cli",
)

# Bitset primitives that every layer calls in its innermost loops.  A span
# per call would measure the tracer rather than the layer.
EXCLUDED = frozenset({"graph_core.bits", "graph_core.mask_of"})

FINDERS = frozenset(
    {
        "detectors.find_even_hole",
        "detectors.find_theta",
        "detectors.find_prism",
        "detectors.find_even_wheel",
    }
)

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.failed: list[int] = []
        self.found: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        # treewidth_exact span -> [tw_lower result, tw_upper width]
        self._bounds: dict[int, list] = {}
        self.sandwich_fired = 0
        self.sandwich_base = 0

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.failed.append(0)
        self.found.append(0)
        return len(self.names) - 1

    def _open(self, idx: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(_now())
        self.span_end.append(0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = _now()
        self.stack.pop()

    def wrap(self, name: str, fn):
        idx = self._register(name)
        is_finder = name in FINDERS
        scale_limit = sys.modules["obslab.errors"].ScaleLimit
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(idx, fn, scale_limit)
        bound_slot = {"treewidth.tw_lower": 0, "treewidth.tw_upper": 1}.get(name)
        is_exact = name == "treewidth.treewidth_exact"
        calls, failed, found = self.calls, self.failed, self.found
        stack, bounds = self.stack, self._bounds

        def traced(*args, **kwargs):
            calls[idx] += 1
            sid = self._open(idx)
            if is_exact:
                bounds[sid] = [None, None]
            try:
                out = fn(*args, **kwargs)
            except scale_limit:
                failed[idx] += 1
                raise
            finally:
                self._close(sid)
                if is_exact:
                    self._tally_sandwich(*bounds.pop(sid))
            if is_finder and out is not None:
                found[idx] += 1
            if bound_slot is not None and stack and stack[-1] in bounds:
                bounds[stack[-1]][bound_slot] = out if bound_slot == 0 else out[0]
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _tally_sandwich(self, lower, upper) -> None:
        if lower is not None and upper is not None:
            self.sandwich_base += 1
            self.sandwich_fired += lower >= upper

    def _wrap_generator(self, idx: int, fn, scale_limit):
        # one call per generator created; one span per resumption, so the
        # consumer's work between items is not charged to the generator
        def traced(*args, **kwargs):
            self.calls[idx] += 1
            it = fn(*args, **kwargs)
            while True:
                sid = self._open(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                except scale_limit:
                    self.failed[idx] += 1
                    raise
                finally:
                    self._close(sid)
                yield item

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- results --------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-function calls, failed, found and self seconds, from the spans."""
        n = len(self.span_name)
        child = [0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        self_ns = [0] * len(self.names)
        span_name = self.span_name
        for sid in range(n):
            self_ns[span_name[sid]] += end[sid] - start[sid] - child[sid]
        out = {}
        for i, name in enumerate(self.names):
            if self.calls[i] == 0:
                continue
            out[name] = {
                "calls": self.calls[i],
                "failed": self.failed[i],
                "found": self.found[i],
                "self_s": self_ns[i] / 1e9,
            }
        return {
            "functions": out,
            "sandwich": [self.sandwich_fired, self.sandwich_base],
            "spans": n,
        }

    def finish(self, spans_path: str) -> dict:
        """Write the spans out and return the aggregate."""
        with open(spans_path, "wb") as fh:
            header = json.dumps({"names": self.names, "count": len(self.span_name)})
            fh.write(header.encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        return self.aggregate()


def install() -> Tracer:
    """Wrap every public obslab function; the package must be imported."""
    tracer = Tracer()
    modules = {m: sys.modules[f"obslab.{m}"] for m in MODULES}
    replaced: dict[int, object] = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or f"{short}.{attr}" in EXCLUDED
            ):
                continue
            replaced[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    graph = modules["graph_core"].Graph
    bfs = graph.bfs_dist
    replaced[id(bfs)] = tracer.wrap("graph_core.bfs_dist", bfs)
    graph.bfs_dist = replaced[id(bfs)]
    for name, mod in list(sys.modules.items()):
        if name != "obslab" and not name.startswith("obslab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in list(obj.items()):
                    if id(val) in replaced:
                        obj[key] = replaced[id(val)]
    return tracer
