"""Report for Table 5 (short vs long queries) from the shared k-sweep.
Runs the sweep itself if bench_table4_6 has not produced it yet."""
from __future__ import annotations

from pathlib import Path

from repro.exp.experiments import RESULTS_DIR, sweep_stats, table5_report


def test_table5(spark, benchmark):
    stats = sweep_stats(spark)
    report = benchmark.pedantic(lambda: table5_report(stats), rounds=1, iterations=1)
    Path(RESULTS_DIR / "table5.md").write_text(report + "\n")
    print("\n" + report)
