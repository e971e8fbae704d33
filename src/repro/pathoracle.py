"""Independent correctness oracles for hop-constrained s-t path enumeration.

Two mutually-checking references, neither sharing code with the system
under test:

* :func:`python_paths` — a direct backtracking DFS (Definition 2.1 /
  Algorithm 1 semantics, no pruning) over an in-memory edge list.
* :func:`duckdb_path_sql` — a recursive CTE that DuckDB evaluates over a
  registered ``edges`` table.  It is handed to
  :func:`repro.oracle.assert_equivalent` so every enumeration test
  compares Spark output against an engine with a completely different
  execution model.

Paths are compared as ``'-'``-joined id strings (one ``path`` column)
because array columns are not orderable by the oracle's sorted-row diff.
"""
from __future__ import annotations

import pandas as pd


def path_str(vertices: list[int] | tuple[int, ...]) -> str:
    """Canonical string form of a path, e.g. ``(1,2,3)`` -> ``'1-2-3'``."""
    return "-".join(str(v) for v in vertices)


def python_paths(
    edges: list[tuple[int, int]],
    s: int,
    t: int,
    k: int,
    *,
    weights: dict[tuple[int, int], float] | None = None,
    acc_pred=None,
    labels: dict[tuple[int, int], str] | None = None,
    automaton=None,
) -> set[str]:
    """All simple paths s->t of length <= k, as path strings.

    Optional Appendix-E constraints: ``acc_pred(total_weight)`` must hold
    on the sum of ``weights`` along the path; ``automaton`` is a
    ``(start, transitions: dict[(state,label),state], accepts: set)``
    triple that the ``labels`` sequence must drive to an accept state.
    """
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    out: set[str] = set()
    start_state = automaton[0] if automaton else None

    def rec(path: list[int], acc: float, state) -> None:
        v = path[-1]
        if v == t:
            if acc_pred is not None and not acc_pred(acc):
                return
            if automaton is not None and state not in automaton[2]:
                return
            out.add(path_str(path))
            return
        if len(path) - 1 >= k:
            return
        for w in adj.get(v, ()):  # noqa: B007
            if w in path:
                continue
            nacc = acc + (weights[(v, w)] if weights else 0.0)
            nstate = state
            if automaton is not None:
                nstate = automaton[1].get((state, labels[(v, w)]))
                if nstate is None:
                    continue
            rec(path + [w], nacc, nstate)

    if s != t:
        rec([s], 0.0, start_state)
    return out


def duckdb_path_sql(
    s: int,
    t: int,
    k: int,
    *,
    edges_table: str = "edges",
    path_col: str = "path",
    weight_filter: str | None = None,
) -> str:
    """Recursive-CTE SQL enumerating simple s->t paths of length <= k.

    The walk stops expanding at ``t`` (Definition 2.1: no interior t) and
    the ``list_contains`` check enforces simplicity.  Rows are distinct:
    the answer is a set of paths, which duplicate edges must not repeat.  With
    ``weight_filter`` (a SQL predicate over ``acc``), the edges table must
    carry a ``weight`` column and the accumulated sum is filtered at
    emission — the oracle for Algorithm 7.
    """
    acc_init = ", CAST(0 AS DOUBLE) AS acc" if weight_filter else ""
    acc_step = ", w.acc + e.weight AS acc" if weight_filter else ""
    acc_where = f" AND ({weight_filter})" if weight_filter else ""
    return f"""
WITH RECURSIVE w AS (
  SELECT CAST({s} AS BIGINT) AS last, [CAST({s} AS BIGINT)] AS vs, 0 AS len{acc_init}
  UNION ALL
  SELECT e.dst, list_append(w.vs, e.dst), w.len + 1{acc_step}
  FROM w JOIN {edges_table} e ON e.src = w.last
  WHERE w.len < {k} AND w.last <> CAST({t} AS BIGINT)
    AND NOT list_contains(w.vs, e.dst)
)
SELECT DISTINCT array_to_string(vs, '-') AS {path_col} FROM w
WHERE last = CAST({t} AS BIGINT){acc_where}
""".strip()


def duckdb_paths(edges_pdf: pd.DataFrame, s: int, t: int, k: int) -> set[str]:
    """Evaluate the recursive CTE directly; used to validate the oracle
    itself against :func:`python_paths` under Hypothesis."""
    import duckdb

    con = duckdb.connect()
    try:
        con.register("edges", edges_pdf)
        rows = con.execute(duckdb_path_sql(s, t, k)).fetchall()
    finally:
        con.close()
    return {r[0] for r in rows}


def python_walks(edges: list[tuple[int, int]], s: int, t: int, k: int) -> set[str]:
    """All walks s->t of length <= k with no *interior* s or t (the
    relaxed Algorithm 4 / Proposition 5.1 semantics); duplicates allowed
    elsewhere.  Reference for the walk-count estimators."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    out: set[str] = set()

    def rec(walk: list[int]) -> None:
        v = walk[-1]
        if v == t:
            out.add(path_str(walk))
            return
        if len(walk) - 1 >= k or (v == s and len(walk) > 1):
            return
        for w in adj.get(v, ()):
            rec(walk + [w])

    if s != t:
        rec([s])
    return out
