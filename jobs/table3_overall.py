"""Run and print Table 3 (overall comparison of the five algorithms).

    spark-submit jobs/table3_overall.py [--k K] [--queries N] [--timeout S]
"""
from __future__ import annotations

import argparse

from repro.exp.experiments import (
    K_DEFAULT,
    N_QUERIES,
    TIMEOUT_S,
    OverallConfig,
    overall_experiment,
    save_stats,
    table3_report,
)
from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=int, default=K_DEFAULT)
    ap.add_argument("--queries", type=int, default=N_QUERIES)
    ap.add_argument("--timeout", type=float, default=TIMEOUT_S)
    args = ap.parse_args()
    spark = get_spark("table3")
    stats = overall_experiment(
        spark, OverallConfig(k=args.k, n_queries=args.queries, timeout_s=args.timeout)
    )
    save_stats("table3", stats)
    print(table3_report(stats))
    spark.stop()


if __name__ == "__main__":
    main()
