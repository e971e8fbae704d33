"""BC-DFS / BC-JOIN baselines: correctness vs. the oracle, and the
paper's key comparative claim — the index touches fewer edges than the
barrier-pruned search (Figure 6's #Edges metric, asserted as ordering)."""
from __future__ import annotations

import time

import pytest

from repro import pathoracle as po
from repro.core.baselines import bc_dfs, bc_join
from repro.core.context import build_context
from repro.core.enumerate import idx_dfs, idx_join, paths_to_strings
from repro.graphs import generators as G
from repro.graphs.queries import generate_queries
from repro.oracle import assert_equivalent
from tests.helpers import cached_ctx, edges_pdf, random_graph
from tests.test_enumerate import ALL_CASES


@pytest.mark.parametrize("name,edges,s,t,k", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_bc_dfs_matches_oracle(spark, name, edges, s, t, k):
    ctx = cached_ctx(spark, edges, s, t, k)
    res = bc_dfs(ctx)
    assert_equivalent(
        paths_to_strings(res.paths), po.duckdb_path_sql(s, t, k), edges=edges_pdf(edges)
    )
    assert res.n_results == len(po.python_paths(edges, s, t, k))


@pytest.mark.parametrize("name,edges,s,t,k", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_bc_join_matches_oracle(spark, name, edges, s, t, k):
    ctx = cached_ctx(spark, edges, s, t, k)
    res = bc_join(ctx)
    assert_equivalent(
        paths_to_strings(res.paths), po.duckdb_path_sql(s, t, k), edges=edges_pdf(edges)
    )
    assert res.n_results == len(po.python_paths(edges, s, t, k))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_index_accesses_no_more_edges_than_barrier(spark, seed):
    """The central claim: IDX-DFS touches <= the candidate edges BC-DFS
    touches, because budget filters are pushed into the index lookup."""
    pdf = random_graph(60, 4.0, seed)
    edges = list(pdf.itertuples(index=False, name=None))
    s, t = int(pdf.src.iloc[0]), int(pdf.dst.iloc[len(pdf) // 3])
    if s == t:
        pytest.skip("degenerate")
    ctx = cached_ctx(spark, edges, s, t, 4)
    a = idx_dfs(ctx).edges_accessed
    b = bc_dfs(ctx).edges_accessed
    assert a <= b


def test_bc_join_uses_mid_cut(spark):
    from tests.helpers import PAPER_EDGES

    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    res = bc_join(ctx)
    assert res.detail["cut"] == 2  # ceil(4/2)


def test_bc_dfs_timeout(spark):
    from tests.helpers import PAPER_EDGES

    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    assert bc_dfs(ctx, timeout_s=0.0).timed_out


@pytest.fixture(scope="module")
def ep_s_hub_query(spark):
    """The first hub-hub ep_s query at k=5 (732,480 paths) and its context."""
    cfg = G.suite_by_name("ep_s")
    pdf = cfg.build_pdf()
    q = generate_queries(pdf, k=5, n_queries=1, setting="hh", seed=cfg.seed)[0]
    ctx = build_context(spark, G.to_spark(spark, pdf), q.s, q.t, q.k)
    yield set(zip(pdf.src.tolist(), pdf.dst.tolist())), ctx
    ctx.unpersist()


def _assert_valid_partial(res, edges: set, ctx) -> None:
    """A flagged answer holds only simple s->t paths of <= k input edges."""
    paths = [list(r["path"]) for r in res.paths.collect()]
    assert len(paths) == res.n_results
    for p in paths:
        assert p[0] == ctx.s and p[-1] == ctx.t and len(p) - 1 <= ctx.k
        assert len(set(p)) == len(p)
        assert all((u, v) in edges for u, v in zip(p, p[1:]))


def test_bc_dfs_cancelled_at_time_limit(ep_s_hub_query):
    """The first hub-hub ep_s query at k=5 runs past 30 s under BC-DFS
    (depth 4 alone touches ~6e6 candidates, depth 5 far more); a 3 s limit
    must cancel it and keep the results of the depths that finished."""
    edges, ctx = ep_s_hub_query
    t0 = time.perf_counter()
    res = bc_dfs(ctx, timeout_s=3)
    assert time.perf_counter() - t0 <= 4.0
    assert res.timed_out
    _assert_valid_partial(res, edges, ctx)


def test_idx_join_cancelled_at_time_limit(ep_s_hub_query):
    """Limits aimed at the middle of IDX-JOIN's prefix, suffix and final-join
    phases (timed on an unlimited run) cancel its broadcast and shuffle
    jobs: each call returns within 1.5 s of its limit, flagged with valid
    paths, or complete if it finished first."""
    edges, ctx = ep_s_hub_query
    idx_join(ctx, 2)  # warm-up, so the timed run is not the first
    full = idx_join(ctx, 2)
    assert not full.timed_out
    a_s, b_s = (full.detail[key].elapsed_s for key in ("stats_a", "stats_b"))
    flagged = 0
    for limit in (a_s / 2, a_s + b_s / 2, (a_s + b_s + full.enum_s) / 2):
        t0 = time.perf_counter()
        res = idx_join(ctx, 2, timeout_s=limit)
        assert time.perf_counter() - t0 <= limit + 1.5
        if res.timed_out:
            flagged += 1
            _assert_valid_partial(res, edges, ctx)
        else:
            assert res.n_results == full.n_results
    assert flagged
