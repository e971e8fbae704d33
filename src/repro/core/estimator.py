"""Cardinality estimation and join-order optimisation (paper §6, Alg. 5).

Two estimators with different cost/accuracy trade-offs:

* :func:`preliminary_estimate` (Eq. 5) — per-position average branching
  factors ``gamma_j`` over the index, multiplied out on the driver; no
  Spark job.  Used to gate the expensive path.
* :func:`full_estimate` (Eq. 6/7, Algorithm 5) — exact *walk*-count
  dynamic programming on the index: forward counts ``f_i(v)`` (walks
  s->v arriving at position i) and backward counts ``w_i(v)`` (walks
  v->t within budget k-i).  From these: per-cut sizes ``A[i]=|Q[0:i]|``
  and ``B[i]=|Q[i:k]|``, the optimal cut ``i* = argmin(A[i]+B[i])`` and
  the plan costs ``T_DFS`` / ``T_JOIN`` of the Eq. 1 cost model.

Counts follow the (t,t)-padded join model: a walk that reaches t early
keeps counting as a padded tuple, which equals exactly what the join
method materialises (early results + R_a) — see DESIGN.md §2.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import pyspark.sql.functions as F
from pyspark.sql import Observation

from repro.core.context import QueryContext


def preliminary_estimate(ctx: QueryContext) -> float:
    """Eq. 5: rough search-space size from per-position branching stats.

    gamma_j = (1/|C_j|) * sum_{v in C_j} |I_t(v, k-j-1)|;
    T_hat   = sum_{i<k} prod_{j<=i} gamma_j.
    The gamma_j are observed while the index is built, as in the paper.
    """
    t_hat, prod = 0.0, 1.0
    for g in ctx.gamma:
        prod *= g
        t_hat += prod
    return t_hat


@dataclass
class FullEstimate:
    """Outcome of Algorithm 5 over the index."""

    a: list[float]        # A[i] = |Q[0:i]|, i = 0..k (padded prefix counts)
    b: list[float]        # B[i] = |Q[i:k]|, i = 0..k (suffix walk counts)
    ended: list[float]    # walks s->t finishing exactly at position i
    walks: float          # |Q| = total walks within k
    i_star: int           # argmin_i (A[i] + B[i])
    t_dfs: float          # Eq. 1 cost of the left-deep plan
    t_join: float         # Eq. 1 cost of the bushy plan cut at i_star
    opt_s: float          # wall time of the optimisation


def full_estimate(ctx: QueryContext) -> FullEstimate:
    """Run the forward/backward walk-count DP and pick the cut position.

    A level joins its budget-filtered index as a broadcast and observes its
    sums on its checkpoint.  The loops stay apart: a fused level would need
    both broadcasts and save almost nothing."""
    t0 = time.perf_counter()
    spark, s, t, k = ctx.spark, ctx.s, ctx.t, ctx.k
    idx = ctx.index_edges

    # Forward: f_i(v) = #walks s->v arriving exactly at position i (t stops).
    f = spark.createDataFrame([(s, 1.0)], schema="v long, c double")
    ended: list[float] = [0.0] * (k + 1)
    a_sums: list[float] = [0.0] * (k + 1)
    a_sums[0] = 1.0  # Q[0:0] is the single tuple (s)
    cum_ended = 0.0
    at_t = F.sum(F.when(F.col("v") == t, F.col("c"))).alias("at_t")
    for i in range(1, k + 1):
        sums = Observation()
        f = (
            f.withColumnRenamed("v", "src")
            .join(F.broadcast(idx.where(F.col("dt_dst") <= k - i)), "src")
            .groupBy(F.col("dst").alias("v"))
            .agg(F.sum("c").alias("c"))
            .observe(sums, F.sum("c").alias("total"), at_t)
            .localCheckpoint(eager=True)
        )
        total, ended[i] = (float(sums.get[c] or 0.0) for c in ("total", "at_t"))
        cum_ended += ended[i]
        a_sums[i] = (total - ended[i]) + cum_ended
        f = f.where(F.col("v") != t)

    # ds(t) is the length of the shortest walk s->t through the index (a
    # shortest path in G-{t}); None when there is none within k.
    ds_t = next((i for i in range(1, k + 1) if ended[i]), None)

    # Backward: w_i(v) = #walks v->t of length <= k-i through the index;
    # B[i] sums it over the vertices with ds(v) <= i.
    w = t_row = spark.createDataFrame([(t, ds_t, 1.0)], schema="v long, ds int, c double")
    b_sums: list[float] = [0.0] * (k + 1)
    b_sums[k] = float(ds_t is not None)
    for i in range(k - 1, -1, -1):
        sums = Observation()
        w = (
            w.withColumnRenamed("v", "dst")
            .join(F.broadcast(idx.where(F.col("dt_dst") <= k - i - 1)), "dst")
            .groupBy(F.col("src").alias("v"), F.col("ds_src").alias("ds"))
            .agg(F.sum("c").alias("c"))
            .unionByName(t_row)
            .observe(sums, F.sum(F.when(F.col("ds") <= i, F.col("c"))).alias("b"))
            .localCheckpoint(eager=True)
        )
        b_sums[i] = float(sums.get["b"] or 0.0)

    walks = cum_ended
    i_star = min(range(k + 1), key=lambda i: a_sums[i] + b_sums[i])
    t_dfs = sum(a_sums[1:])
    t_join = walks + sum(a_sums[1 : i_star + 1]) + sum(b_sums[i_star:])
    return FullEstimate(
        a=a_sums,
        b=b_sums,
        ended=ended,
        walks=walks,
        i_star=i_star,
        t_dfs=t_dfs,
        t_join=t_join,
        opt_s=time.perf_counter() - t0,
    )
