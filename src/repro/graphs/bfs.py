"""The per-query distance table as one bounded, multi-tag BFS loop.

PathEnum's index needs four distance fields per query (Algorithm 3 plus
the barrier baseline):

* ``ds``  = S(s, v | G-{t})  — forward from s, never expanding through t
* ``dt``  = S(v, t | G-{s})  — reverse from t, never expanding through s
* ``dsf`` = S(s, v | G)      — forward from s (baseline barrier pruning)
* ``dtf`` = S(v, t | G)      — reverse from t (baseline barrier pruning)

All four run in ONE iterative loop: each BFS is a *tag*, the four tagged
edge sets are unioned, and every iteration expands every tag's frontier
with a single join (Pregel-style, Catalyst-native — the PySpark stand-in
for GraphX).  "G-{x}" is realised as *edge removal*: the ``ds`` copy has
no edge out of t and the ``dt`` copy (reversed) no edge out of s, so the
excluded vertex still receives a distance (t ends every path, s starts
it) but no path through its interior is counted.

Each level is materialised by one eager ``localCheckpoint``, which also
counts the level's rows through an :class:`~pyspark.sql.Observation`; the
loop stops after a level adds nothing, or at the hop bound ``k`` —
distances larger than k are useless to the index and never computed.
"""
from __future__ import annotations

import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Observation, SparkSession


def distance_table(
    spark: SparkSession,
    edges: DataFrame,
    s: int,
    t: int,
    k: int,
) -> DataFrame:
    """Per-vertex distance table ``(v, ds, dt, dsf, dtf)`` for q(s,t,k).

    Missing distances (unreachable within k hops) are NULL; downstream
    index filters treat NULL as "outside the index", which is exactly the
    paper's pruning semantics.
    """
    fwd = edges.select(F.col("src").alias("v"), "dst")
    rev = edges.select(F.col("dst").alias("v"), F.col("src").alias("dst"))
    tagged = (
        fwd.where(F.col("v") != t).withColumn("tag", F.lit("ds"))
        .unionByName(rev.where(F.col("v") != s).withColumn("tag", F.lit("dt")))
        .unionByName(fwd.withColumn("tag", F.lit("dsf")))
        .unionByName(rev.withColumn("tag", F.lit("dtf")))
        .persist()
    )
    seen = spark.createDataFrame(
        [("ds", s, 0), ("dt", t, 0), ("dsf", s, 0), ("dtf", t, 0)],
        schema="tag string, v long, dist int",
    )
    frontier = seen
    for depth in range(1, k + 1):
        level = Observation()
        frontier = (
            frontier.join(tagged, on=["tag", "v"])
            .select("tag", F.col("dst").alias("v"))
            .distinct()
            .join(seen, on=["tag", "v"], how="left_anti")
            .withColumn("dist", F.lit(depth))
            .observe(level, F.count(F.lit(1)).alias("n"))
            .localCheckpoint(eager=True)
        )
        if level.get["n"] == 0:
            break
        seen = seen.unionByName(frontier)

    tagged.unpersist()
    return seen.groupBy("v").pivot("tag", ["ds", "dt", "dsf", "dtf"]).agg(F.first("dist"))
