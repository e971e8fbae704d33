"""Unit tests for the shared expansion engine (deadline, response bar,
metrics) and the deadline's cancellation of running Spark jobs."""
from __future__ import annotations

import time

import pyspark.sql.functions as F
import pytest
from py4j.protocol import Py4JJavaError

from repro import pathoracle as po
from repro.core.expand import Deadline, expand, make_frontier
from tests.helpers import CYCLE6, DIAMOND, PAPER_EDGES, cached_ctx, count_jobs


@pytest.fixture(scope="module")
def ctx(spark):
    return cached_ctx(spark, PAPER_EDGES, 0, 1, 4)


def _run(ctx, **kw):
    frontier = make_frontier(ctx.spark, [ctx.s])
    defaults = dict(
        t=ctx.t,
        k=ctx.k,
        start_pos=0,
        end_pos=ctx.k,
        budget_col="dt_dst",
        pre=True,
    )
    defaults.update(kw)
    return expand(ctx.spark, frontier, ctx.index_edges, **defaults)


def test_results_match_reference(ctx):
    res, _, stats = _run(ctx)
    got = {po.path_str(r["path"]) for r in res.collect()}
    assert got == po.python_paths(PAPER_EDGES, 0, 1, 4)
    assert stats.total_emitted == len(got)


def test_depth_stats_shape(ctx):
    _, _, stats = _run(ctx)
    assert [d.pos for d in stats.depth_stats] == list(range(1, len(stats.depth_stats) + 1))
    assert all(d.accessed >= d.emitted + d.frontier for d in stats.depth_stats)
    assert stats.elapsed_s > 0
    assert not stats.timed_out


def test_emitted_per_depth_matches_length_histogram(ctx):
    _, _, stats = _run(ctx)
    by_len = {}
    for p in po.python_paths(PAPER_EDGES, 0, 1, 4):
        by_len[p.count("-")] = by_len.get(p.count("-"), 0) + 1
    for d in stats.depth_stats:
        assert d.emitted == by_len.get(d.pos, 0)


def test_at_most_two_jobs_per_depth(ctx):
    """A level joins the broadcast index and observes its counters on the
    checkpoint that materialises it: the broadcast's job plus that one."""
    stats = []
    jobs = count_jobs(ctx.spark, lambda: stats.append(_run(ctx)[2]))
    depths = len(stats[0].depth_stats)
    assert depths == ctx.k
    assert jobs <= 2 * depths


def test_timeout_flag(ctx):
    with Deadline(ctx.spark, 0.0) as deadline:
        _, _, stats = _run(ctx, deadline=deadline)
    assert stats.timed_out
    assert stats.depth_stats == []


def test_deadline_cancels_running_job(spark):
    # ~1e12 rows: far more than 2 s of work on any machine.
    slow = spark.range(0, 10**12, numPartitions=8).select(F.max(F.xxhash64("id")))
    t0 = time.perf_counter()
    with Deadline(spark, 2.0) as deadline:
        with pytest.raises(Py4JJavaError) as err:
            slow.collect()
        assert deadline.cancelled(err.value)
    assert time.perf_counter() - t0 <= 3.0
    assert deadline.expired
    # the deadline's tag is gone: a later job outlives the re-cancel period.
    later = spark.range(0, 10**8, numPartitions=8).select(F.max(F.xxhash64("id")))
    assert later.collect()[0][0] is not None


def test_response_bar_hit(ctx):
    _, _, stats = _run(ctx, response_bar=1)
    assert stats.response_s is not None
    assert stats.response_s <= stats.elapsed_s


def test_response_bar_larger_than_total(ctx):
    _, _, stats = _run(ctx, response_bar=10**9)
    # fewer results than the bar: response = completion time
    assert stats.response_s == stats.elapsed_s


def test_forbid_vertex(spark):
    ctx = cached_ctx(spark, DIAMOND, 0, 3, 2)
    frontier = make_frontier(spark, [0])
    res, _, _ = expand(
        spark,
        frontier,
        ctx.index_edges,
        t=3,
        k=2,
        start_pos=0,
        end_pos=2,
        budget_col="dt_dst",
        forbid=1,
    )
    got = {po.path_str(r["path"]) for r in res.collect()}
    assert got == {"0-2-3"}


def test_partial_frontier_returned(spark):
    ctx = cached_ctx(spark, CYCLE6, 0, 3, 6)
    frontier = make_frontier(spark, [0])
    res, final, stats = expand(
        spark,
        frontier,
        ctx.index_edges,
        t=3,
        k=6,
        start_pos=0,
        end_pos=2,
        budget_col="dt_dst",
    )
    rows = final.collect()
    assert [list(r["path"]) for r in rows] == [[0, 1, 2]]
    assert res.count() == 0  # path needs 3 hops, none emitted by pos 2


def test_empty_frontier_empty_results(spark):
    ctx = cached_ctx(spark, DIAMOND, 0, 3, 2)
    frontier = make_frontier(spark, [3])  # start at t: no expansion from t? pos loop runs
    res, final, stats = expand(
        spark,
        frontier,
        ctx.index_edges,
        t=3,
        k=2,
        start_pos=0,
        end_pos=2,
        budget_col="dt_dst",
    )
    # vertex 3 = t has no outgoing index edges
    assert res.count() == 0
    assert stats.total_emitted == 0


def test_max_frontier_cells(ctx):
    _, _, stats = _run(ctx)
    want = max((d.frontier * (d.pos + 1) for d in stats.depth_stats), default=0)
    assert stats.max_frontier_cells == want
