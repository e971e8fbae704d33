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
    """Get or create the session.  Broadcast joins are disabled so the
    enumerators' joins take the shuffle path they take at scale."""
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
