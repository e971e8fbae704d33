"""Checks on the benchmark's own inputs; no Spark session needed.

    python3 -m pytest hcpebench -q -p no:cacheprovider
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from repro.pathoracle import duckdb_paths  # noqa: E402

DIGEST = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import workloads as W; "
    "print(W.build_inputs(W.WORKLOADS[{name!r}], {seed}).digest())"
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_ignore_hash_seed(name):
    """Edges and queries are a function of the seed argument alone."""
    code = DIGEST.format(src=str(BENCH.parent / "src"), bench=str(BENCH), name=name, seed=3)
    digests = set()
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True, timeout=300,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_band_query_matches_oracle():
    """The band filter's pruned counter agrees with the oracle's count."""
    inputs = workloads.build_inputs(workloads.WORKLOADS["light_k4"], 0)
    q, (lo, hi) = inputs.query, inputs.workload.band
    assert lo <= len(duckdb_paths(inputs.edges, q.s, q.t, q.k)) <= hi
