"""Sanity checks on the DuckDB result-equality oracle (the shared
correctness substrate), on an out-degree aggregate of the paper's running
example."""
from __future__ import annotations

import pyspark.sql.functions as F
import pytest

from repro.oracle import assert_equivalent
from tests.helpers import PAPER_EDGES, edges_df


@pytest.fixture(scope="module")
def g(spark):
    return edges_df(spark, PAPER_EDGES)


def test_oracle_agreement_on_aggregate(g):
    got = g.groupBy("src").agg(F.count("*").alias("n"), F.max("dst").alias("m"))
    assert_equivalent(
        got,
        "SELECT src, count(*) AS n, max(dst) AS m FROM g GROUP BY src",
        g=g,
    )


def test_oracle_catches_wrong_result(g):
    wrong = g.groupBy("src").agg((F.count("*") + 1).alias("n"))
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, "SELECT src, count(*) AS n FROM g GROUP BY src", g=g)


def test_oracle_catches_column_mismatch(g):
    got = g.select(F.col("src").alias("wrong_name")).limit(1)
    with pytest.raises(AssertionError):
        assert_equivalent(got, "SELECT src FROM g LIMIT 1", g=g)
