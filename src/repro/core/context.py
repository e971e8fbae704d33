"""Per-query context: distances, index edges and barrier edges for q(s,t,k).

Every enumerator (IDX-DFS, IDX-JOIN, BC-DFS, BC-JOIN, PathEnum) consumes a
:class:`QueryContext`.  The four BFS distance fields are computed once in
a single multi-tag loop and shared; the experiment harness charges each
algorithm the measured preprocessing wall-time it would have paid on its
own (``bfs_s`` for everyone, plus ``index_s`` for IDX-* / ``barrier_s``
for BC-*) — see DESIGN.md §7.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Observation, SparkSession

from repro.core.index import build_index_edges, endpoint_join, eq5_counts
from repro.graphs.bfs import distance_table


@dataclass
class QueryContext:
    """Everything downstream operators need for one HcPE query."""

    spark: SparkSession
    s: int
    t: int
    k: int
    dist: DataFrame           # (v, ds, dt, dsf, dtf) — NULL = beyond k hops
    index_edges: DataFrame    # Algorithm 3's H as edges (see core.index)
    barrier_edges: DataFrame  # BC-* pruned edges (full-graph distances)
    n_index_edges: int
    n_barrier_edges: int
    bfs_s: float              # wall time of the shared 4-tag BFS
    index_s: float            # wall time to materialise index edges
    barrier_s: float          # wall time to materialise barrier edges
    gamma: list[float]        # Eq. 5 branching factors gamma_j, j < k

    def unpersist(self) -> None:
        for df in (self.dist, self.index_edges, self.barrier_edges):
            try:
                df.unpersist()
            except Exception:
                pass


def build_barrier_edges(edges: DataFrame, dist: DataFrame, k: int) -> DataFrame:
    """Baseline pruning (Peng et al., Appendix D): keep edges whose both
    endpoints satisfy S(s,v|G) + S(v,t|G) <= k.  Coarser than the index:
    no per-budget bucketing, and full-graph distances ignore the interior
    s/t exclusion, so BC-* touches strictly more candidates per step."""
    return endpoint_join(edges, dist, "dsf", "dtf").where(
        (F.col("dsf_src") + F.col("dtf_src") <= k)
        & (F.col("dsf_dst") + F.col("dtf_dst") <= k)
    )


def build_context(
    spark: SparkSession,
    edges: DataFrame,
    s: int,
    t: int,
    k: int,
) -> QueryContext:
    """Run the BFS phase and materialise both pruned edge sets.

    Eq. 5's statistics are observed on the jobs that materialise the
    distance table and the index edges.  Raises ``ValueError`` for a query
    outside Definition 2.1 (``s == t`` or ``k < 1``) before any Spark job
    runs.
    """
    if s == t:
        raise ValueError(f"s and t must differ, got s = t = {s}")
    if k < 1:
        raise ValueError(f"hop bound k must be at least 1, got {k}")
    sizes, branches = Observation(), Observation()
    size_n, branch_n = eq5_counts(k)
    t0 = time.perf_counter()
    dist = distance_table(spark, edges, s, t, k).observe(sizes, size_n).persist()
    dist.count()
    bfs_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    idx = build_index_edges(edges, dist, s, t, k).observe(branches, branch_n).persist()
    n_idx = idx.count()
    index_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    bar = build_barrier_edges(edges, dist, k).persist()
    n_bar = bar.count()
    barrier_s = time.perf_counter() - t0

    return QueryContext(
        spark=spark,
        s=s,
        t=t,
        k=k,
        dist=dist,
        index_edges=idx,
        barrier_edges=bar,
        n_index_edges=n_idx,
        n_barrier_edges=n_bar,
        bfs_s=bfs_s,
        index_s=index_s,
        barrier_s=barrier_s,
        gamma=[n / c if c else 0.0 for n, c in zip(branches.get["n"], sizes.get["n"])],
    )
