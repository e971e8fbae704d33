"""Run (or reuse) the k-sweep and print Table 6 (avg/max #results)."""
from repro.exp.experiments import sweep_stats, table6_report
from repro.session import get_spark

if __name__ == "__main__":
    spark = get_spark("table6")
    print(table6_report(sweep_stats(spark)))
    spark.stop()
