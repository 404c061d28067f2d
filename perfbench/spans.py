"""In-memory span recorder for the traced benchmark run.

Spans are opened and closed around calls into the program by wrappers that
the benchmark installs over the program's public functions; nothing inside
the program is changed. The run is single threaded, so spans nest strictly
and a span's children never overlap: its self time is its duration minus
the summed duration of its direct children.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Recorder:
    """Spans with parent links, per-name totals and free-form counters.

    Every span updates the per-name totals (calls, total and self seconds)
    and the parent -> child call counts. Raw spans are kept only up to
    ``keep``; the rest are counted in ``dropped``, since hot helpers open
    hundreds of thousands of spans in one pass.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = 20000) -> None:
        self.clock = clock
        self.keep = keep
        self.op_id: Optional[str] = None
        self.stats: Dict[str, List[float]] = {}          # name -> [calls, total_s, self_s]
        self.edges: Dict[Tuple[Optional[str], str], int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_top_s: Dict[Tuple[Optional[str], str], float] = defaultdict(float)
        self.top_s = 0.0                                 # summed duration of root spans
        self.spans: List[tuple] = []                     # (id, parent_id, op_id, name, start, end)
        self.dropped = 0
        self._seen: set = set()
        self._stack: List[list] = []                     # [id, name, start, child_s]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        span_id, name, start, child_s = self._stack.pop()
        dur = end - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent_id, parent_name = parent[0], parent[1]
        else:
            self.top_s += dur
            self.op_top_s[(self.op_id, name)] += dur
            parent_id, parent_name = None, None
        self.edges[(parent_name, name)] += 1
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent_id, self.op_id, name, start, end))
        else:
            self.dropped += 1

    def first(self, key) -> bool:
        """True the first time ``key`` is seen by this recorder."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def wrap(self, fn: Callable, name: str,
             probe: Optional[Callable] = None) -> Callable:
        """fn recorded as span ``name``; probe(recorder, *args) runs first."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(self, *args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def to_dict(self) -> dict:
        return {
            "stats": {k: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": n}
                      for (p, c), n in sorted(self.edges.items(), key=str)],
            "counts": dict(sorted(self.counts.items())),
            "spans_dropped": self.dropped,
            "spans": [dict(zip(("id", "parent", "op", "name", "start", "end"), s))
                      for s in self.spans],
        }


def install(rec: Recorder, namespaces: Iterable, layers: Iterable[str],
            methods: Iterable[Tuple[type, str, str]] = (),
            probes: Optional[Dict[str, Callable]] = None) -> Callable[[], None]:
    """Wrap every public function defined in a ``layers`` module, under
    every namespace that binds it, plus the given (class, attribute, layer)
    methods. One wrapper per function, so a call is recorded once however
    it was reached. Returns a function that restores the originals."""
    layers = set(layers)
    probes = probes or {}
    wrappers: Dict[Callable, Callable] = {}
    undo: List[Tuple[object, str, object]] = []

    for ns in namespaces:
        for attr, val in list(vars(ns).items()):
            if attr.startswith("_") or not inspect.isfunction(val):
                continue
            layer = val.__module__.rpartition(".")[2]
            if layer not in layers:
                continue
            if val not in wrappers:
                name = f"{layer}.{val.__name__}"
                wrappers[val] = rec.wrap(val, name, probes.get(name))
            undo.append((ns, attr, val))
            setattr(ns, attr, wrappers[val])

    for cls, attr, layer in methods:
        val = vars(cls)[attr]
        name = f"{layer}.{attr}"
        undo.append((cls, attr, val))
        setattr(cls, attr, rec.wrap(val, name, probes.get(name)))

    def restore() -> None:
        for ns, attr, val in reversed(undo):
            setattr(ns, attr, val)

    return restore
