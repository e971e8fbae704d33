"""Run (or reuse) the k-sweep and print Table 5 (short vs long queries)."""
from repro.exp.experiments import sweep_stats, table5_report
from repro.session import get_spark

if __name__ == "__main__":
    spark = get_spark("table5")
    print(table5_report(sweep_stats(spark)))
    spark.stop()
