"""Run (or reuse) the k-sweep and print Table 7 (memory consumption)."""
from repro.exp.experiments import sweep_stats, table7_report
from repro.session import get_spark

if __name__ == "__main__":
    spark = get_spark("table7")
    print(table7_report(sweep_stats(spark)))
    spark.stop()
