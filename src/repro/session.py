"""The one SparkSession configuration shared by the tests and ``jobs/``.

Master and driver memory are launch settings: they come from the
environment (``PYSPARK_SUBMIT_ARGS``, ``spark-submit`` flags), and a
plain ``python`` launch runs on ``local[*]``.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

#: the graphs here are small (up to a few thousand vertices), so few
#: shuffle partitions, not coalesced for parallelism, keep scheduler
#: latency down.
SHUFFLE_PARTITIONS = 8


def get_spark(app: str) -> SparkSession:
    """Get or create the session.  Automatic broadcast joins are disabled:
    only the per-query pruned edge set, light-weight by the paper's design,
    is broadcast, explicitly, by the expansion and estimator loops."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.adaptive.coalescePartitions.parallelismFirst", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
