"""Distributed distance table vs. the pure-Python reference BFS."""
from __future__ import annotations

import pytest

from repro.graphs.bfs import distance_table
from tests.helpers import (
    CYCLE6,
    LINE,
    PAPER_EDGES,
    count_jobs,
    edges_df,
    py_bfs,
    random_graph,
)


def _columns(spark, edges, s: int, t: int, k: int) -> dict[str, dict[int, int]]:
    """Each distance column of q(s,t,k) as ``{v: dist}``, NULLs left out."""
    rows = distance_table(spark, edges_df(spark, edges), s, t, k).collect()
    return {
        c: {r["v"]: r[c] for r in rows if r[c] is not None} for c in ("ds", "dt", "dsf", "dtf")
    }


def _reference(edges, s: int, t: int, k: int) -> dict[str, dict[int, int]]:
    return {
        "ds": py_bfs(edges, s, excluded=t, max_depth=k),
        "dt": py_bfs(edges, t, excluded=s, reverse=True, max_depth=k),
        "dsf": py_bfs(edges, s, max_depth=k),
        "dtf": py_bfs(edges, t, reverse=True, max_depth=k),
    }


def test_line_forward(spark):
    d = _columns(spark, LINE, 0, 4, 10)["dsf"]
    assert d == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_line_reverse(spark):
    d = _columns(spark, LINE, 0, 4, 10)["dtf"]
    assert d == {4: 0, 3: 1, 2: 2, 1: 3, 0: 4}


def test_depth_bound(spark):
    d = _columns(spark, LINE, 0, 4, 2)["dsf"]
    assert d == {0: 0, 1: 1, 2: 2}


def test_cycle(spark):
    d = _columns(spark, CYCLE6, 0, 3, 10)["dsf"]
    assert d == {i: i for i in range(6)}


def test_excluded_reach_but_not_expand(spark):
    # 0->1->2 and 0->3->2; with t=1, ds must still reach 1 (dist 1) but 2
    # only via 3 (dist 2).
    edges = [(0, 1), (1, 2), (0, 3), (3, 2)]
    d = _columns(spark, edges, 0, 1, 5)["ds"]
    assert d == {0: 0, 1: 1, 3: 1, 2: 2}
    # now with t=3: 2 is reached through 1 (same dist here)
    edges2 = [(0, 1), (1, 4), (4, 2), (0, 3), (3, 2)]
    d2 = _columns(spark, edges2, 0, 3, 5)["ds"]
    assert d2 == {0: 0, 1: 1, 3: 1, 4: 2, 2: 3}


def test_unreachable_absent(spark):
    edges = [(0, 1), (2, 3)]
    d = _columns(spark, edges, 0, 3, 5)["dsf"]
    assert d == {0: 0, 1: 1}


def test_multi_tag_independent(spark):
    edges = [(0, 1), (1, 2), (2, 0)]
    got = _columns(spark, edges, 0, 2, 5)
    assert got == {
        "ds": {0: 0, 1: 1, 2: 2},
        "dt": {2: 0, 1: 1, 0: 2},
        "dsf": {0: 0, 1: 1, 2: 2},
        "dtf": {2: 0, 1: 1, 0: 2},
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("reverse", [False, True])
def test_random_graph_matches_reference(spark, seed, reverse):
    """``reverse`` roots the query's t, not its s, at the first edge's source."""
    pdf = random_graph(60, 3.0, seed)
    edges = list(pdf.itertuples(index=False, name=None))
    root = int(pdf.src.iloc[0])
    other = int(pdf.dst[pdf.dst != root].iloc[0])
    s, t = (other, root) if reverse else (root, other)
    assert _columns(spark, edges, s, t, 4) == _reference(edges, s, t, 4)


@pytest.mark.parametrize("seed", [3, 4])
def test_random_graph_excluded_matches_reference(spark, seed):
    pdf = random_graph(50, 3.0, seed)
    edges = list(pdf.itertuples(index=False, name=None))
    s, t = int(pdf.src.iloc[0]), int(pdf.dst.iloc[0])
    assert _columns(spark, edges, s, t, 4) == _reference(edges, s, t, 4)


def test_distance_table_columns_and_semantics(spark):
    dt = distance_table(spark, edges_df(spark, PAPER_EDGES), 0, 1, 4)
    rows = {r["v"]: r for r in dt.collect()}
    assert set(dt.columns) == {"v", "ds", "dt", "dsf", "dtf"}
    # reference: ds excludes expanding through t=1, dt reverse excludes s=0
    ds_ref = py_bfs(PAPER_EDGES, 0, excluded=1, max_depth=4)
    dt_ref = py_bfs(PAPER_EDGES, 1, excluded=0, reverse=True, max_depth=4)
    for v, r in rows.items():
        assert r["ds"] == ds_ref.get(v)
        assert r["dt"] == dt_ref.get(v)
    assert rows[0]["ds"] == 0 and rows[1]["dt"] == 0


def test_distance_table_full_vs_restricted(spark):
    # with the exclusion, some distances can only grow
    edges = [(0, 2), (2, 1), (0, 1), (1, 3), (3, 2)]
    dt = distance_table(spark, edges_df(spark, edges), 0, 1, 4)
    rows = {r["v"]: r for r in dt.collect()}
    for v, r in rows.items():
        if r["ds"] is not None and r["dsf"] is not None:
            assert r["ds"] >= r["dsf"]
        if r["dt"] is not None and r["dtf"] is not None:
            assert r["dt"] >= r["dtf"]


def test_stops_once_a_level_adds_nothing(spark):
    """On LINE level 5 is empty for every tag, so k=10 launches no more
    Spark jobs than k=5: the loop ends on the level's observed row count."""
    edges = edges_df(spark, LINE)

    def jobs(k: int) -> int:
        return count_jobs(spark, lambda: distance_table(spark, edges, 0, 4, k).collect())

    assert jobs(10) == jobs(5)
