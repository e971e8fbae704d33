"""Light-weight per-query index (paper §4.2, Algorithm 3) as DataFrames.

The sequential implementation stores, per vertex, a neighbor array sorted
by distance-to-t with per-budget offsets so ``I_t(v, b)`` is an O(1)
slice.  The relational equivalent is one **index-edge DataFrame**

    (src, dst, ds_src, dt_src, ds_dst, dt_dst)

holding exactly the edges Algorithm 3 would keep in ``H``:

* ``src`` is in the partition table X:  ``ds_src + dt_src <= k``;
* the neighbor passes the budget screen:  ``ds_src + 1 + dt_dst <= k``;
* edges out of ``t`` and into ``s`` are dropped — mirroring the relation
  construction of §3.1 (``R_i`` over ``E(G - {s})`` with ``v != t``): no
  s-t path re-enters s or leaves t.

``I_t(v, b)`` then becomes an equi-join on ``src`` with the pushed-down
filter ``dt_dst <= b`` — same pruning, Catalyst-native.  The vertex
partitions ``C_i`` (paper ``I(i)``) come from the distance table.

Eq. 5's statistics (:func:`eq5_counts`) are aggregates over both frames.
"""
from __future__ import annotations

import pyspark.sql.functions as F
from pyspark.sql import Column, DataFrame

#: estimated in-memory row width of an index edge (6 numeric fields).
INDEX_EDGE_BYTES = 6 * 8


def endpoint_join(edges: DataFrame, dist: DataFrame, a: str, b: str) -> DataFrame:
    """The distinct edges with distance columns ``a``, ``b`` of both endpoints.

    Returns ``(src, dst, a_src, b_src, a_dst, b_dst, *extras)``, where
    ``extras`` are any further edge columns.  Only edges with both
    endpoints in the distance table survive; duplicate input rows are
    removed, since the answer to a query is a set of paths.
    """

    def end(name: str) -> DataFrame:
        return dist.select(
            F.col("v").alias(name), F.col(a).alias(f"{a}_{name}"), F.col(b).alias(f"{b}_{name}")
        )

    extras = [c for c in edges.columns if c not in ("src", "dst")]
    return (
        edges.join(end("src"), "src")
        .join(end("dst"), "dst")
        .select("src", "dst", f"{a}_src", f"{b}_src", f"{a}_dst", f"{b}_dst", *extras)
        .distinct()
    )


def build_index_edges(edges: DataFrame, dist: DataFrame, s: int, t: int, k: int) -> DataFrame:
    """Join the edge list with the distance table and keep index edges.

    ``dist`` is the output of :func:`repro.graphs.bfs.distance_table`;
    NULL distances mean "not within k hops" and fail every comparison, so
    unreachable vertices drop out exactly as in the paper.
    """
    return endpoint_join(edges, dist, "ds", "dt").where(
        (F.col("ds_src") + F.col("dt_src") <= k)
        & (F.col("ds_src") + 1 + F.col("dt_dst") <= k)
        & (F.col("src") != F.lit(t))
        & (F.col("dst") != F.lit(s))
    )


def eq5_counts(k: int) -> tuple[Column, Column]:
    """Eq. 5's ``|C_j|`` over the distance table and ``sum_{v in C_j}
    |I_t(v, k-j-1)|`` over the index edges, each an array over j < k."""
    sizes = [F.count_if((F.col("ds") <= j) & (F.col("dt") <= k - j)) for j in range(k)]
    branches = [
        F.count_if(
            (F.col("ds_src") <= j) & (F.col("dt_src") <= k - j) & (F.col("dt_dst") <= k - j - 1)
        )
        for j in range(k)
    ]
    return F.array(*sizes).alias("n"), F.array(*branches).alias("n")
