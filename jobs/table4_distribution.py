"""Run (or reuse) the k-sweep and print Table 4 (query-time distribution)."""
from repro.exp.experiments import sweep_stats, table4_report
from repro.session import get_spark

if __name__ == "__main__":
    spark = get_spark("table4")
    print(table4_report(sweep_stats(spark)))
    spark.stop()
