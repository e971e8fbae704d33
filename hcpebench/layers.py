"""Per-layer metrics of a traced run, named after the program's modules.

Each metric is a mean per operation unless it is a ratio, which is taken
over the sums of the whole run.  A layer the workload does not run reads 0.
"""
from __future__ import annotations

import statistics

from repro.core.index import INDEX_EDGE_BYTES

METHODS = ("BC-DFS", "BC-JOIN", "IDX-DFS", "IDX-JOIN", "PathEnum")
JOINS = ("idx_join", "bc_join")
ENUMS = ("idx_dfs", "idx_join")

UNITS = {
    "bfs.wall_s": "s", "bfs.jobs": "jobs", "bfs.vertices": "count",
    "index.wall_s": "s", "index.edges": "count", "index.keep_ratio": "ratio", "index.mb": "MB",
    "barrier.wall_s": "s", "barrier.edges": "count", "context.jobs": "jobs",
    "prelim_est.wall_s": "s", "prelim_est.jobs": "jobs",
    "full_est.wall_s": "s", "full_est.jobs": "jobs", "full_est.calls": "count",
    "full_est.over_enum": "ratio", "full_est.walks_per_result": "ratio",
    "optimizer.full_share": "ratio", "optimizer.join_share": "ratio",
    "expand.wall_s": "s", "expand.jobs": "jobs", "expand.depths": "count",
    "expand.s_per_depth": "s", "expand.rows_accessed": "rows", "expand.rows_per_s": "rows/s",
    "expand.useful_ratio": "ratio", "enum.partial_mb": "MB",
    "join.wall_s": "s", "join.jobs": "jobs", "join.rows_in": "rows", "join.rows_out": "rows",
    **{f"method.{m}.wall_s": "s" for m in METHODS},
    "materialise.wall_s": "s", "materialise.jobs": "jobs", "materialise.rows": "rows",
    "trace.queries_per_s": "op/s", "trace.coverage": "ratio",
    "driver.peak_rss_mb": "MB",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _op_sums(rec: dict, spans: list) -> dict:
    """Counters of one operation, summed over its spans."""
    kids: dict[int, list] = {}
    for sp in spans:
        kids.setdefault(sp.parent, []).append(sp)

    def named(*names):
        return [sp for sp in spans if sp.name in names]

    def self_of(sp, attr):
        return getattr(sp, attr) - sum(getattr(c, attr) for c in kids.get(sp.id, ()))

    root = next(sp for sp in spans if sp.name == "op")
    ctx = rec["context"]
    out = {
        "bfs.wall_s": ctx["bfs_s"],
        "bfs.jobs": sum(sp.jobs for sp in named("bfs")),
        "bfs.vertices": ctx["bfs_vertices"],
        "index.wall_s": ctx["index_s"],
        "index.edges": ctx["index_edges"],
        "index.mb": ctx["index_edges"] * INDEX_EDGE_BYTES / 2**20,
        "barrier.wall_s": ctx["barrier_s"],
        "barrier.edges": ctx["barrier_edges"],
        "context.jobs": sum(sp.jobs for sp in named("build_context")),
        "enum.partial_mb": rec["partial_mb"],
        "coverage": _ratio(sum(sp.wall_s for sp in kids[root.id]), root.wall_s),
    }
    for layer in ("prelim_est", "full_est", "expand", "materialise"):
        out[f"{layer}.wall_s"] = sum(sp.wall_s for sp in named(layer))
        out[f"{layer}.jobs"] = sum(sp.jobs for sp in named(layer))
    out["full_est.calls"] = len(named("full_est"))
    out["materialise.rows"] = sum(sp.attrs["rows"] for sp in named("materialise"))

    depths = [d for sp in named("expand") for d in sp.attrs["depths"]]
    out["expand.depths"] = len(depths)
    out["expand.rows_accessed"] = sum(d["accessed"] for d in depths)
    out["expand.useful"] = sum(d["emitted"] + d["frontier"] for d in depths)

    joins = named(*JOINS)
    out["join.wall_s"] = sum(self_of(sp, "wall_s") for sp in joins)
    out["join.jobs"] = sum(self_of(sp, "jobs") for sp in joins)
    out["join.rows_in"] = sum(sp.attrs["rows_in"] for sp in joins)
    out["join.rows_out"] = sum(sp.attrs["rows_out"] for sp in joins)

    for m in METHODS:
        out[f"method.{m}.wall_s"] = sum(
            sp.wall_s for sp in named("method") if sp.attrs["method"] == m
        )

    # the full estimator against the plan run right after it, same parent
    out["full_est.enum_s"] = out["full_est.walks"] = out["full_est.results"] = 0.0
    for est in named("full_est"):
        plan = next(
            sp for sp in kids[est.parent] if sp.id > est.id and sp.name in ENUMS
        )
        out["full_est.enum_s"] += plan.wall_s
        out["full_est.walks"] += est.attrs["walks"]
        out["full_est.results"] += plan.attrs["n_results"]
    return out


def per_layer(
    recs: list[dict], tracer, *, edges_total: int, loop_s: float, rss_mb: float
) -> dict:
    ok = [r for r in recs if r["ok"]]
    sums = [_op_sums(r, tracer.op_spans(r["op"])) for r in ok]

    def mean(key):
        return statistics.mean(s[key] for s in sums)

    def total(key):
        return sum(s[key] for s in sums)

    decisions = [r["decision"] for r in ok]
    out = {name: mean(name) for name in UNITS if name in sums[0]}
    out.update({
        "index.keep_ratio": mean("index.edges") / edges_total,
        "full_est.over_enum": _ratio(total("full_est.wall_s"), total("full_est.enum_s")),
        "full_est.walks_per_result": _ratio(total("full_est.walks"), total("full_est.results")),
        "optimizer.full_share": statistics.mean(d["used_full"] for d in decisions),
        "optimizer.join_share": statistics.mean(d["method"] == "IDX-JOIN" for d in decisions),
        "expand.s_per_depth": _ratio(total("expand.wall_s"), total("expand.depths")),
        "expand.rows_per_s": _ratio(total("expand.rows_accessed"), total("expand.wall_s")),
        "expand.useful_ratio": _ratio(total("expand.useful"), total("expand.rows_accessed")),
        "trace.queries_per_s": len(ok) / loop_s,
        "trace.coverage": mean("coverage"),
        "driver.peak_rss_mb": rss_mb,
    })
    return {name: float(out[name]) for name in UNITS}
