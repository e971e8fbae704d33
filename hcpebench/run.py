"""HcPE query benchmark: one closed-loop client against a local[4] session.

    python3 hcpebench/run.py --workload light_k4 --seed 0 --seconds 10 --trace 0

An operation is one query answered end to end: ``build_context``, the
workload's method call(s) on that one context, and a collected
``(count, sum of xxhash64)`` digest of every returned path set.  The client
issues the seed's one query again as soon as the previous operation has
finished.  Every digest is compared with the oracle's; an operation fails if
it raises, reports ``timed_out`` or mismatches.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` reruns the same
loop with spans around every layer and prints the per-layer metrics (means
per operation); the spans are also written as JSON lines under
``hcpebench/.work/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every operation was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

T_PROCESS = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

#: time limit per method call: far above the slowest operation seen
#: (~39 s), so only a defect, never a slow machine, turns into a timeout.
LIMIT_S = 120.0
RESPONSE_BAR = 100      # the paper's "first results" size
SPARK_CONF = {
    # root conftest.py session, plus the 8 shuffle partitions of tests/conftest.py
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.adaptive.coalescePartitions.parallelismFirst": "false",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.showConsoleProgress": "false",
}
SUBMIT_ARGS = (
    "--master local[4] --driver-memory 2g "
    "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
    "--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' pyspark-shell"
)

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "op/s",
    "query_s_p50": "s",
    "results_per_s": "paths/s",
    "first100_s_p50": "s",
    "spark_jobs_per_query": "jobs",
}


def fail(msg: str) -> None:
    print(f"hcpebench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import repro
    except ImportError as e:
        fail(f"cannot import the program from {ROOT / 'src'}: {e}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"repro was imported from {repro.__file__}, not from this checkout")


def start_spark():
    tmp = WORK / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # no /tmp/hsperfdata_*
    os.environ["PYSPARK_SUBMIT_ARGS"] = SUBMIT_ARGS.format(tmp=tmp)
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("hcpebench")
    for key, value in SPARK_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the driver JVM to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()
    try:
        proc.wait(timeout=30)
    except Exception:
        proc.kill()
        proc.wait()
    shutil.rmtree(WORK / "tmp", ignore_errors=True)


def peak_rss_mb(pid: int | str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Client:
    """Issues operations of one workload and checks their answers."""

    def __init__(self, spark, edges, workload, tracer):
        from repro.core.baselines import bc_dfs, bc_join
        from repro.core.enumerate import idx_dfs, idx_join
        from repro.core.estimator import full_estimate
        from repro.core.optimizer import path_enum

        import spans

        self.spark, self.edges, self.wl, self.tracer = spark, edges, workload, tracer
        call = spans.call

        def idx_join_at_i_star(ctx):
            est = call(tracer, "full_est", full_estimate, ctx)
            cut = max(1, min(est.i_star, ctx.k - 1))
            return call(tracer, "idx_join", idx_join, ctx, cut, timeout_s=LIMIT_S)

        self.methods = {
            "BC-DFS": lambda ctx: call(tracer, "bc_dfs", bc_dfs, ctx, timeout_s=LIMIT_S),
            "BC-JOIN": lambda ctx: call(tracer, "bc_join", bc_join, ctx, timeout_s=LIMIT_S),
            "IDX-DFS": lambda ctx: call(tracer, "idx_dfs", idx_dfs, ctx, timeout_s=LIMIT_S),
            "IDX-JOIN": idx_join_at_i_star,
            "PathEnum": lambda ctx: call(
                tracer, "path_enum", path_enum, ctx,
                timeout_s=LIMIT_S, response_bar=RESPONSE_BAR,
            ),
        }

    def operation(self, op: int, q, want: tuple[int, int] | None) -> dict:
        """Answer ``q`` with every method of the workload; ``want=None`` skips
        the check (warm-up)."""
        import pyspark.sql.functions as F
        from repro.core.context import build_context
        from workloads import fingerprint

        rec = {"op": op, "s": q.s, "t": q.t, "k": q.k, "ok": True, "errors": []}
        t0 = time.perf_counter()
        ctx = None
        with self.tracer.operation(op) as root:
            try:
                with self.tracer.span("build_context"):
                    ctx = build_context(self.spark, self.edges, q.s, q.t, q.k)
                rec["context_s"] = time.perf_counter() - t0
                rec["n_results"] = 0
                rec["partial_mb"] = 0.0
                for name in self.wl.methods:
                    with self.tracer.span("method", method=name):
                        out = self.methods[name](ctx)
                    res, decision = out if name == "PathEnum" else (out, None)
                    with self.tracer.span("materialise") as sp:
                        got = fingerprint(
                            res.paths.select(F.array_join("path", "-").alias("path"))
                        )
                        if sp is not None:
                            sp.attrs["rows"] = got[0]
                    rec["n_results"] += got[0]
                    rec["partial_mb"] = max(rec["partial_mb"], res.partial_mb)
                    if decision is not None:
                        rec["first_s"] = rec["context_s"] + decision.opt_s + res.response_s
                        rec["decision"] = {
                            "t_hat": decision.t_hat,
                            "used_full": decision.used_full,
                            "method": decision.method,
                            "cut": decision.cut,
                            "walks": decision.estimate.walks if decision.estimate else None,
                            "n_results": res.n_results,
                        }
                    if res.timed_out:
                        rec["errors"].append(f"{name}: timed out")
                    if want is not None and got != want:
                        rec["errors"].append(f"{name}: digest {got} != oracle {want}")
            except Exception as e:  # one failed operation must not end the run
                rec["errors"].append(f"{type(e).__name__}: {e}")
        rec["latency_s"] = root.wall_s
        rec["jobs"] = root.jobs
        rec["ok"] = not rec["errors"]
        if ctx is not None:
            rec["context"] = {
                "bfs_s": ctx.bfs_s, "index_s": ctx.index_s, "barrier_s": ctx.barrier_s,
                "index_edges": ctx.n_index_edges, "barrier_edges": ctx.n_barrier_edges,
            }
            if self.tracer.detail:
                rec["context"]["bfs_vertices"] = ctx.dist.count()
            ctx.unpersist()
        return rec


def end_to_end(recs: list[dict], loop_s: float, setup_s: float) -> dict:
    ok = [r for r in recs if r["ok"]]
    return {
        "setup_s": setup_s,
        "queries_per_s": len(ok) / loop_s,
        "query_s_p50": statistics.median(r["latency_s"] for r in ok),
        "results_per_s": sum(r["n_results"] for r in ok) / loop_s,
        "first100_s_p50": statistics.median(r["first_s"] for r in ok),
        "spark_jobs_per_query": statistics.mean(r["jobs"] for r in ok),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    spark = start_spark()
    try:
        t0 = time.perf_counter()
        inputs = workloads.build_inputs(wl, args.seed)
        gen_s = time.perf_counter() - t0

        from repro.graphs.generators import to_spark

        t0 = time.perf_counter()
        edges = to_spark(spark, inputs.edges).persist()
        edges.count()
        load_s = time.perf_counter() - t0

        tracer = spans.Tracer(spark.sparkContext, detail=bool(args.trace))
        client = Client(spark, edges, wl, tracer)
        client.operation(-1, inputs.warmup, None)
        ready = time.perf_counter()
        setup_s = ready - T_PROCESS

        want = workloads.expected(spark, inputs, WORK / "cache")
        if args.trace:
            spans.install(tracer)
        tracer.spans.clear()

        recs: list[dict] = []
        t_loop = time.perf_counter()
        while time.perf_counter() - t_loop < args.seconds:
            recs.append(client.operation(len(recs), inputs.query, want))
        loop_s = time.perf_counter() - t_loop

        jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
        rss_mb = peak_rss_mb(jvm_pid) + peak_rss_mb("self")
    finally:
        stop_spark(spark)

    failed = [r for r in recs if not r["ok"]]
    for r in failed:
        print(f"FAILED op {r['op']} q=({r['s']},{r['t']},{r['k']}): {'; '.join(r['errors'])}")
    if len(failed) == len(recs):
        metrics, units = {}, {}
    elif args.trace:
        metrics = layers.per_layer(
            recs, tracer, edges_total=len(inputs.edges), loop_s=loop_s, rss_mb=rss_mb
        )
        out = WORK / f"trace-{wl.name}-{args.seed}.jsonl"
        with out.open("w") as f:
            for r in recs:
                f.write(json.dumps({"op": r}) + "\n")
            for sp in tracer.records():
                f.write(json.dumps({"span": sp}) + "\n")
        units = layers.UNITS
    else:
        metrics, units = end_to_end(recs, loop_s, setup_s), END_TO_END
    print(f"{wl.name} seed={args.seed} ops={len(recs)} failed_frac={len(failed) / len(recs):.4f} "
          f"loop_s={loop_s:.3f} gen_s={gen_s:.3f} load_s={load_s:.3f}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
