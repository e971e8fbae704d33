"""PathEnum's cost-based query optimizer (paper §3.2 / §6).

Per query: (1) run the O(k^2)-ish preliminary estimator; if the search
space looks small (T_hat <= tau) dispatch straight to IDX-DFS — the
optimisation time would dominate short queries.  (2) Otherwise run the
full-fledged DP, compare the Eq. 1 costs of the left-deep plan (T_DFS)
and the bushy plan cut at i* (T_JOIN), and execute the cheaper one.

tau follows the paper's calibration procedure ("test tau from 10, 100, …
until finding tau results takes longer than join-plan optimisation"):
on this substrate a full optimisation costs seconds of Spark jobs while
enumeration streams ~1e5–1e6 rows/s, so tau = 1e6 (the paper's C++
substrate lands at 1e5 the same way).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from py4j.protocol import Py4JJavaError

from repro.core.constraints import NO_CONSTRAINTS, Constraints
from repro.core.context import QueryContext
from repro.core.enumerate import EnumResult, idx_dfs, idx_join
from repro.core.expand import Deadline
from repro.core.estimator import FullEstimate, full_estimate, preliminary_estimate

DEFAULT_TAU = 1e6


@dataclass
class Decision:
    """What the optimizer saw and chose for one query."""

    t_hat: float                      # NaN if the time limit cancelled it
    used_full: bool
    method: str                       # "IDX-DFS" | "IDX-JOIN"
    cut: int | None
    estimate: FullEstimate | None
    opt_s: float                      # total optimisation wall time


def path_enum(
    ctx: QueryContext,
    *,
    tau: float = DEFAULT_TAU,
    timeout_s: float | None = None,
    response_bar: int | None = None,
    constraints: Constraints = NO_CONSTRAINTS,
) -> tuple[EnumResult, Decision]:
    """Full PathEnum: estimate, choose a plan, enumerate.

    ``timeout_s`` covers the estimators too.  If it cancels them, the query
    falls back to IDX-DFS, which finds the limit already passed and
    returns a flagged empty answer.
    """
    t0 = time.perf_counter()
    with Deadline(ctx.spark, timeout_s) as deadline:
        t_hat, est = math.nan, None
        try:
            t_hat = preliminary_estimate(ctx)
            # Automaton constraints are DFS-only (Appendix E): the DFS kills
            # invalid label sequences early, the join cannot.
            if t_hat > tau and constraints.automaton is None:
                est = full_estimate(ctx)
        except Py4JJavaError as err:
            if not deadline.cancelled(err):
                raise
        if est is None or est.t_dfs < est.t_join:
            method, cut = "IDX-DFS", None
        else:
            method, cut = "IDX-JOIN", max(1, min(est.i_star, ctx.k - 1))
        decision = Decision(
            t_hat=t_hat,
            used_full=est is not None,
            method=method,
            cut=cut,
            estimate=est,
            opt_s=time.perf_counter() - t0,
        )
        if method == "IDX-DFS":
            res = idx_dfs(
                ctx,
                timeout_s=deadline.remaining,
                response_bar=response_bar,
                constraints=constraints,
            )
        else:
            res = idx_join(ctx, cut, timeout_s=deadline.remaining, constraints=constraints)
    return res, decision
