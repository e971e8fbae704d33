"""Frontier-at-a-time path expansion — the shared engine of all four
enumerators (IDX-DFS, IDX-JOIN, BC-DFS, BC-JOIN).

One call expands a frontier of partial results from position
``start_pos`` to ``end_pos`` over an edge DataFrame.  A *partial result*
row is ``(path: array<long>, last: long [, acc, state])`` — the dataflow
image of the paper's ``M``.  Each loop iteration performs exactly one
recursion level of Algorithm 1/4:

* **index mode** (``pre=True``) — the per-step budget filter
  ``dt(dst) <= k - pos`` is pushed into the join against the pre-bucketed
  index edges, so only qualifying neighbours are ever touched: the
  dataflow analogue of the O(1) ``I_t(v,b)`` slice.
* **barrier mode** (``pre=False``) — the join runs against the coarser
  barrier-pruned edge set and the distance check happens *after*
  candidate materialisation, reproducing the baseline's higher per-step
  cost α (Appendix D).  ``accessed`` counts candidates before the check.

Rows reaching ``t`` are emitted and never extended (Definition 2.1 bans
interior s/t); the simple-path check is ``NOT array_contains(path,dst)``.
A :class:`Deadline` stops the loop: it is checked before each level, and a
level whose job it cancels is dropped, so the results are those of the
levels that finished.
Each level joins the frontier against the broadcast edge set (the per-query
pruned one, small by the paper's design) and materialises one eagerly
localCheckpoint-ed candidate frame classified by a ``_cls`` column (emit /
continue / pruned); the per-depth counters the paper's timeout,
response-time and Figure-6/Table-7 metrics need are observed on that
checkpoint, so a level is two Spark jobs: the broadcast's and its own.
"""
from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from functools import reduce

import pyspark.sql.functions as F
from py4j.protocol import Py4JJavaError
from pyspark.sql import DataFrame, Observation, SparkSession

from repro.core.constraints import NO_CONSTRAINTS, Constraints

#: in-memory bytes per path cell (one vertex id) for Table-7 accounting.
CELL_BYTES = 8

_PRUNED, _EMIT, _CONTINUE = 0, 1, 2

#: how often an expired deadline repeats its cancel until the call returns.
_RECANCEL_S = 0.1


class Deadline:
    """The time limit of one public call, enforced by cancelling Spark jobs.

    Inside ``with Deadline(spark, timeout_s)`` every job the calling thread
    submits carries the deadline's job tag; job tags are additive, so a
    caller's own tags and job group are left alone.  Once the limit passes, a
    background thread cancels the tagged jobs, interrupting their tasks, and
    repeats the cancel until the block exits: a cancel issued while no tagged
    job runs is lost, and the caller may be about to submit one.  Callers
    check :attr:`expired` before launching a job and turn a job cancelled by
    the deadline (:meth:`cancelled`) into a flagged partial answer.
    ``timeout_s=None`` means no limit: no tag and no thread.
    """

    _ids = itertools.count()

    def __init__(self, spark: SparkSession | None, timeout_s: float | None):
        self._sc = None if spark is None else spark.sparkContext
        self._end = None if timeout_s is None else time.perf_counter() + timeout_s
        self._tag = f"repro-deadline-{next(self._ids)}"
        self._closed = threading.Event()

    @property
    def expired(self) -> bool:
        return self._end is not None and time.perf_counter() >= self._end

    @property
    def remaining(self) -> float | None:
        """Seconds left (negative once expired); ``None`` without a limit."""
        return None if self._end is None else self._end - time.perf_counter()

    def cancelled(self, err: Exception) -> bool:
        """Whether ``err`` is a Spark job cancelled because the limit passed."""
        return self.expired and "SPARK_JOB_CANCELLED" in str(err)

    def __enter__(self) -> Deadline:
        if self._end is not None:
            self._interrupt = self._sc.getLocalProperty("spark.job.interruptOnCancel")
            self._sc.addJobTag(self._tag)
            self._sc.setInterruptOnCancel(True)
            self._canceller = threading.Thread(target=self._cancel_when_due, daemon=True)
            self._canceller.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._end is not None:
            self._closed.set()
            self._canceller.join()
            self._sc.removeJobTag(self._tag)
            self._sc.setLocalProperty("spark.job.interruptOnCancel", self._interrupt)

    def _cancel_when_due(self) -> None:
        if self._closed.wait(self._end - time.perf_counter()):
            return
        while True:
            self._sc.cancelJobsWithTag(self._tag)
            if self._closed.wait(_RECANCEL_S):
                return


NO_DEADLINE = Deadline(None, None)


@dataclass
class DepthStat:
    """Counters for one expansion level (extension to position ``pos``)."""

    pos: int
    accessed: int      # candidate edges touched (paper's "#Edges")
    emitted: int       # results completed at this level
    frontier: int      # surviving partial results
    elapsed_s: float


@dataclass
class ExpandStats:
    depth_stats: list[DepthStat] = field(default_factory=list)
    timed_out: bool = False
    response_s: float | None = None   # time to first ``response_bar`` results
    elapsed_s: float = 0.0

    @property
    def total_accessed(self) -> int:
        return sum(d.accessed for d in self.depth_stats)

    @property
    def total_emitted(self) -> int:
        return sum(d.emitted for d in self.depth_stats)

    @property
    def max_frontier_cells(self) -> int:
        return max((d.frontier * (d.pos + 1) for d in self.depth_stats), default=0)


def make_frontier(
    spark: SparkSession,
    vertices: list[int],
    constraints: Constraints = NO_CONSTRAINTS,
) -> DataFrame:
    """Initial frontier: one single-vertex partial result per vertex."""
    df = spark.createDataFrame([(int(v),) for v in vertices], schema="last long").select(
        F.array(F.col("last")).alias("path"), "last"
    )
    return constraints.init_frontier(df)


def empty_results(spark: SparkSession, constraints: Constraints = NO_CONSTRAINTS) -> DataFrame:
    schema = "path array<long>"
    if constraints.accumulative:
        schema += ", acc double"
    if constraints.automaton:
        schema += ", state string"
    return spark.createDataFrame([], schema=schema)


def expand(
    spark: SparkSession,
    frontier: DataFrame,
    edges: DataFrame,
    *,
    t: int,
    k: int,
    start_pos: int,
    end_pos: int,
    budget_col: str | None,
    pre: bool = True,
    forbid: int | None = None,
    deadline: Deadline = NO_DEADLINE,
    response_bar: int | None = None,
    constraints: Constraints = NO_CONSTRAINTS,
) -> tuple[DataFrame, DataFrame, ExpandStats]:
    """Expand ``frontier`` (at ``start_pos``) through ``end_pos``.

    Returns ``(results, final_frontier, stats)``: ``results`` are paths
    that reached ``t`` (with constraint columns if any), ``final_frontier``
    the un-emitted partial results at ``end_pos`` (the join methods' R_a).
    When ``deadline`` passes, ``stats.timed_out`` is set and the results of
    the finished levels are returned, as the paper reports the results
    found by its 120 s limit.
    """
    t_lit = F.lit(int(t))
    stats = ExpandStats()
    t_start = time.perf_counter()
    acc_c = constraints.accumulative
    aut_c = constraints.automaton
    trans = F.broadcast(aut_c.transition_df(spark)) if aut_c else None

    results: list[DataFrame] = []
    cum_emitted = 0
    extra_cols = constraints.frontier_cols

    for pos in range(start_pos + 1, end_pos + 1):
        if deadline.expired:
            stats.timed_out = True
            break
        t_depth = time.perf_counter()
        budget = k - pos

        e = edges
        if pre and budget_col is not None:
            e = e.where(F.col(budget_col) <= budget)
        cand = frontier.join(F.broadcast(e), frontier["last"] == e["src"], "inner")
        if aut_c:
            cand = cand.join(
                trans,
                (cand["state"] == trans["a_state"]) & (cand[aut_c.label_col] == trans["a_label"]),
                "inner",
            )

        # Step 1: new partial-result columns + raw flags from parent cols.
        flags = [
            (e["dst"] == t_lit).alias("_is_t"),
            (
                (F.col(budget_col) <= budget) if (not pre and budget_col is not None) else F.lit(True)
            ).alias("_valid"),
            (~F.array_contains(cand["path"], e["dst"])).alias("_fresh"),
            (
                (e["dst"] != F.lit(int(forbid))) if forbid is not None else F.lit(True)
            ).alias("_allowed"),
        ]
        proj = [
            F.concat(cand["path"], F.array(e["dst"])).alias("path"),
            e["dst"].alias("last"),
        ]
        if acc_c:
            proj.append((cand["acc"] + F.col(acc_c.weight_col)).alias("acc"))
        if aut_c:
            proj.append(trans["a_next"].alias("state"))
        cand = cand.select(*proj, *flags)

        # Step 2: classify (may reference the new acc/state columns).
        emit_ok = F.col("_is_t") & F.col("_valid")
        if acc_c:
            emit_ok = emit_ok & F.expr(acc_c.emit_pred)
        if aut_c:
            emit_ok = emit_ok & F.col("state").isin(list(aut_c.accepts))
        cont_ok = (
            ~F.col("_is_t") & F.col("_valid") & F.col("_fresh") & F.col("_allowed")
        )
        if acc_c and acc_c.prune_pred:
            cont_ok = cont_ok & F.expr(acc_c.prune_pred)
        cand = cand.withColumn(
            "_cls",
            F.when(emit_ok, F.lit(_EMIT))
            .when(cont_ok, F.lit(_CONTINUE))
            .otherwise(F.lit(_PRUNED)),
        ).drop("_is_t", "_valid", "_fresh", "_allowed")
        by_cls = F.array(*(F.count_if(F.col("_cls") == c) for c in (_PRUNED, _EMIT, _CONTINUE)))
        level = Observation()
        try:
            cand = cand.observe(level, by_cls.alias("n")).localCheckpoint(eager=True)
        except Py4JJavaError as err:
            if not deadline.cancelled(err):
                raise
            stats.timed_out = True
            break
        n_pruned, n_emit, n_frontier = level.get["n"]
        accessed = n_pruned + n_emit + n_frontier

        if n_emit:
            results.append(
                cand.where(F.col("_cls") == _EMIT).select("path", *extra_cols)
            )
        cum_emitted += n_emit
        if (
            response_bar is not None
            and stats.response_s is None
            and cum_emitted >= response_bar
        ):
            stats.response_s = time.perf_counter() - t_start

        frontier = cand.where(F.col("_cls") == _CONTINUE).drop("_cls")
        stats.depth_stats.append(
            DepthStat(pos, accessed, n_emit, n_frontier, time.perf_counter() - t_depth)
        )
        if n_frontier == 0:
            break

    stats.elapsed_s = time.perf_counter() - t_start
    if (
        response_bar is not None
        and stats.response_s is None
        and not stats.timed_out
    ):
        # fewer than ``bar`` results exist; first-bar time = completion time.
        stats.response_s = stats.elapsed_s

    out = reduce(DataFrame.unionByName, results) if results else empty_results(spark, constraints)
    return out, frontier, stats
