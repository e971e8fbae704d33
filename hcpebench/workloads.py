"""Seeded inputs and the expected answers for the HcPE query benchmark.

A workload is a graph shaped like one ``SUITE`` entry, a hop bound ``k``,
a query setting and the methods each operation runs.  Everything here is a
pure function of ``(workload, seed)``: the graph is drawn by this module's
own numpy generator (the program's ``_zipf_ids`` seeds its permutation with
``hash()``, which differs per process), and queries come from
``repro.graphs.queries.generate_queries``.

Each seed gives one timed query: the first candidate whose path count lies
in the workload's band, so that every seed gives operations of about the
same size; otherwise the per-seed spread of results/s would hide any change
to the program.

The expected ``(count, digest)`` of the query comes from the recursive-CTE
oracle ``repro.pathoracle.duckdb_paths`` on the whole graph, which never
touches Spark.  Both sides are fingerprinted by the same :func:`fingerprint`:
the sum of Spark's ``xxhash64`` over the ``'-'``-joined path strings.
"""
from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from repro.graphs.generators import suite_by_name
from repro.graphs.queries import Query, generate_queries
from repro.pathoracle import duckdb_paths

ALL_METHODS = ("BC-DFS", "BC-JOIN", "IDX-DFS", "IDX-JOIN", "PathEnum")


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str                 # SUITE entry giving (n, avg_deg, alpha)
    k: int
    setting: str               # generate_queries setting: hh / hl / lh / ll
    methods: tuple[str, ...]   # run in this order on one shared context
    band: tuple[int, int]      # accepted path count of the query, inclusive


WORKLOADS = {
    w.name: w
    for w in (
        # Fixed per-query Spark job cost does nearly all the work: T_hat is
        # small, so PathEnum always runs IDX-DFS.  Job-count cuts show here,
        # row-throughput changes should not.
        Workload(
            name="light_k4",
            graph="gg_s",
            k=4,
            setting="ll",
            methods=("PathEnum",),
            band=(200, 240),
        ),
        # The same layers used differently: barrier edges are consumed,
        # expand runs in barrier mode, the full estimator and the final
        # joins run on every query.  A PathEnum gain that slows a baseline
        # shows here.
        Workload(
            name="methods_k4",
            graph="tw_s",
            k=4,
            setting="hh",
            methods=ALL_METHODS,
            band=(560, 620),
        ),
    )
}

#: candidate queries drawn per seed before the band filter.
N_CANDIDATES = 600
#: hop bound of the untimed warm-up operation: half the cost of a timed one.
WARMUP_K = 2


@dataclass
class Inputs:
    workload: Workload
    edges: pd.DataFrame        # (src, dst) int64, sorted, no loops/duplicates
    query: Query               # the timed query, path count within the band
    warmup: Query              # untimed, at hop bound WARMUP_K

    def digest(self) -> str:
        """sha256 over the edge list and both queries, for cache keys and
        the hash-seed independence test."""
        h = hashlib.sha256()
        h.update(self.edges.to_numpy().tobytes())
        h.update(repr([self.query, self.warmup]).encode())
        return h.hexdigest()


def zipf_edges(n: int, avg_deg: float, alpha: float, seed: int) -> pd.DataFrame:
    """Hub-heavy directed graph, both endpoints Zipf(alpha) over shuffled ids.

    Same model as ``repro.graphs.generators.powerlaw_graph_pdf``, with the id
    permutation drawn from ``seed`` instead of the per-process ``hash()``.
    """
    g = np.random.default_rng(seed)
    perm = g.permutation(n)
    w = np.arange(1, n + 1, dtype="float64") ** (-alpha)
    w /= w.sum()
    m = int(n * avg_deg * 1.25)
    src = perm[g.choice(n, size=m, p=w)]
    dst = perm[g.choice(n, size=m, p=w)]
    pdf = pd.DataFrame({"src": src.astype("int64"), "dst": dst.astype("int64")})
    pdf = pdf[pdf.src != pdf.dst].drop_duplicates()
    return pdf.sort_values(["src", "dst"], ignore_index=True)


def _adjacency(edges: pd.DataFrame) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    fwd: dict[int, list[int]] = {}
    rev: dict[int, list[int]] = {}
    for u, v in zip(edges.src.tolist(), edges.dst.tolist()):
        fwd.setdefault(u, []).append(v)
        rev.setdefault(v, []).append(u)
    return fwd, rev


def _bfs(adj: dict[int, list[int]], root: int, bound: int) -> dict[int, int]:
    dist = {root: 0}
    frontier = deque([root])
    while frontier:
        v = frontier.popleft()
        if dist[v] == bound:
            continue
        for w in adj.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                frontier.append(w)
    return dist


def walk_count(edges: pd.DataFrame, n: int, q: Query) -> float:
    """Walks s->t of length <= k with no interior s or t: an upper bound on
    the path count, cheap enough to screen every candidate query."""
    src, dst = edges.src.to_numpy(), edges.dst.to_numpy()
    f = np.zeros(n)
    f[q.s] = 1.0
    total = 0.0
    for _ in range(q.k):
        g = np.zeros(n)
        np.add.at(g, dst, f[src])
        total += g[q.t]
        g[q.t] = g[q.s] = 0.0
        f = g
    return total


def _pruned_adjacency(fwd, rev, q: Query) -> dict[int, list[tuple[int, int]]]:
    """Out-neighbours ``(dist(w,t), w)`` of each vertex v, sorted, keeping
    only edges with dist(s,v) + 1 + dist(w,t) <= k over the whole graph:
    every simple s-t path of length <= k uses only such edges."""
    ds, dt = _bfs(fwd, q.s, q.k), _bfs(rev, q.t, q.k)
    out = {}
    for v, dv in ds.items():
        nb = sorted((dt[w], w) for w in fwd.get(v, ()) if dv + 1 + dt.get(w, q.k) <= q.k)
        if nb:
            out[v] = nb
    return out


def count_paths(fwd, rev, q: Query, cap: int) -> int:
    """Simple s-t paths of length <= k; counting stops past ``cap``."""
    adj = _pruned_adjacency(fwd, rev, q)
    n = 0
    on_path = {q.s}

    def rec(v: int, depth: int) -> None:
        nonlocal n
        for d, w in adj.get(v, ()):
            if n > cap or depth + 1 + d > q.k:
                return
            if w == q.t:
                n += 1
            elif w not in on_path:
                on_path.add(w)
                rec(w, depth + 1)
                on_path.discard(w)

    rec(q.s, 0)
    return n


def build_inputs(wl: Workload, seed: int) -> Inputs:
    cfg = suite_by_name(wl.graph)
    edges = zipf_edges(cfg.n, cfg.avg_deg, cfg.alpha, seed)
    cands = generate_queries(
        edges, k=wl.k, n_queries=N_CANDIDATES, setting=wl.setting, seed=seed
    )
    fwd, rev = _adjacency(edges)
    lo, hi = wl.band
    # walks >= paths, and on these graphs walks rarely exceed 1.5x paths
    query = next(
        (q for q in cands
         if lo <= walk_count(edges, cfg.n, q) <= 1.5 * hi
         and lo <= count_paths(fwd, rev, q, hi) <= hi),
        None,
    )
    if query is None:
        raise RuntimeError(
            f"{wl.name} seed {seed}: none of {N_CANDIDATES} candidate queries "
            f"has {lo}..{hi} paths"
        )
    warm = next(q for q in cands if q != query)
    return Inputs(wl, edges, query, Query(warm.s, warm.t, WARMUP_K))


# --- expected answers -------------------------------------------------------


def fingerprint(paths) -> tuple[int, int]:
    """``(count, sum of xxhash64)`` of a DataFrame with a string column
    ``path``; the sum is a ``decimal(38,0)``, as a ``long`` sum overflows
    under ANSI mode."""
    import pyspark.sql.functions as F

    h = F.xxhash64("path").cast("decimal(38,0)")
    row = paths.select(F.count(F.lit(1)).alias("n"), F.sum(h).alias("h")).collect()[0]
    return int(row["n"]), int(row["h"] or 0)


def expected(spark, inputs: Inputs, cache_dir: Path) -> tuple[int, int]:
    """Fingerprint of the DuckDB oracle's answer to ``inputs.query``, cached
    per input digest."""
    path = cache_dir / f"{inputs.workload.name}-{inputs.digest()[:24]}.json"
    if path.exists():
        return tuple(json.loads(path.read_text()))
    q = inputs.query
    paths = pd.DataFrame({"path": sorted(duckdb_paths(inputs.edges, q.s, q.t, q.k))})
    out = fingerprint(spark.createDataFrame(paths))
    cache_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out))
    return out
