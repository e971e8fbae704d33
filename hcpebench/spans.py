"""Spans around calls into the program's layers, with Spark jobs per span.

Every span carries its own Spark job tag (``SparkContext.addJobTag``), so a
job is counted in each span open when it was submitted.  Tags survive the
``setJobGroup`` calls a program may make internally, which a job group set
here would not.  Job ids are read from the JVM status tracker after the
listener bus has drained, once per operation.

Tracing is installed by patching public functions where the program looks
them up (``repro.core.optimizer.full_estimate``,
``repro.core.enumerate.expand``, ...).  ``build_index_edges`` / ``build_barrier_edges`` return
lazy frames whose jobs run inside ``build_context``; their wrappers only
mark where one context phase ends and the next begins.
"""
from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import repro.core.context as context_mod
import repro.core.enumerate as enumerate_mod
import repro.core.optimizer as optimizer_mod


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    jobs: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def tag(self) -> str:
        return f"hcpebench-span-{self.id}"

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of one operation at a time.

    With ``detail`` off only the operation's root span exists, which is
    enough to count the operation's Spark jobs.
    """

    def __init__(self, sc, detail: bool):
        self.sc = sc
        self.detail = detail
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()  # never reused: a tag names one span
        self._op = -1

    def begin(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(next(self._ids), name, self._op, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        self.sc.addJobTag(sp.tag)
        return sp

    def end(self, sp: Span) -> None:
        """Close ``sp`` and any span still open inside it."""
        while self._stack:
            top = self._stack.pop()
            top.end = time.perf_counter()
            self.sc.removeJobTag(top.tag)
            if top is sp:
                return

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.detail:
            yield None
            return
        sp = self.begin(name, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    @contextmanager
    def operation(self, op: int):
        """Root span of one operation; job counts resolve when it closes."""
        self._op = op
        first = len(self.spans)
        root = self.begin("op")
        try:
            yield root
        finally:
            self.end(root)
            jsc = self.sc._jsc.sc()
            jsc.listenerBus().waitUntilEmpty()
            tracker = jsc.statusTracker()
            for sp in self.spans[first:]:
                sp.jobs = len(tracker.getJobIdsForTag(sp.tag))

    def op_spans(self, op: int) -> list[Span]:
        return [sp for sp in self.spans if sp.op == op]

    def records(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def _result_attrs(name: str, out) -> dict:
    """Counters a layer returns, copied so no DataFrame is kept alive."""
    if name == "expand":
        return {"depths": [asdict(d) for d in out[2].depth_stats]}
    if name == "full_est":
        return {"walks": out.walks, "i_star": out.i_star}
    if name in ("idx_dfs", "idx_join", "bc_dfs", "bc_join"):
        d = out.detail
        return {
            "n_results": out.n_results,
            "timed_out": out.timed_out,
            "rows_in": d.get("n_ra", 0) + d.get("n_rb", 0),
            "rows_out": d.get("n_joined", 0),
        }
    return {}


def call(tracer: Tracer, name: str, fn, *args, **kwargs):
    """Run ``fn`` inside a span named ``name`` and record what it returned."""
    with tracer.span(name) as sp:
        out = fn(*args, **kwargs)
        if sp is not None:
            sp.attrs.update(_result_attrs(name, out))
        return out


def install(tracer: Tracer) -> None:
    """Patch the program's internal call sites to open spans."""

    def wrap(module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        setattr(module, attr, lambda *a, **kw: call(tracer, name, fn, *a, **kw))

    def phase(module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        def marked(*a, **kw):
            top = tracer._stack[-1]
            if top.name in ("bfs", "index"):
                tracer.end(top)
            tracer.begin(name)
            return fn(*a, **kw)

        setattr(module, attr, marked)

    phase(context_mod, "distance_table", "bfs")
    phase(context_mod, "build_index_edges", "index")
    phase(context_mod, "build_barrier_edges", "barrier")
    wrap(optimizer_mod, "preliminary_estimate", "prelim_est")
    wrap(optimizer_mod, "full_estimate", "full_est")
    wrap(optimizer_mod, "idx_dfs", "idx_dfs")
    wrap(optimizer_mod, "idx_join", "idx_join")
    wrap(enumerate_mod, "expand", "expand")
