"""Motif significance via flow-permuted random graphs (paper § 6.3).

The randomization keeps the graph structure and every timestamp fixed and
permutes the multiset of flow values over the edges, so structural matches
and delta-only instances are identical between the real and random graphs;
only the flow constraint phi discriminates. A motif is significant when the
real instance count exceeds the randomized counts — quantified by the
z-score z_M = (r_M - mu_M) / sigma_M over R random graphs.

Because only the flows differ, :func:`significance` runs P1 and the series
attach once. Each interaction is numbered in ``(t, src, dst)`` order, and
the wide rows carry those numbers (rids) in place of flows. One P2 pass then
rebuilds every match's series under the real flows and under each of the R
permutations, and counts all R+1 flow assignments side by side.
:func:`permute_flows` materializes one random graph G_r and is the
definition the one-pass counts are tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.instances import Series, count_instances
from repro.core.motif import Motif
from repro.spark.search import _per_match

#: Deterministic row order used to index interactions before permuting.
_ORDER = ("t", "src", "dst")


def _numbered(edges: DataFrame) -> DataFrame:
    """``edges`` plus ``rid``: 1..n in :data:`_ORDER`."""
    return edges.withColumn("rid", F.row_number().over(Window.orderBy(*_ORDER)))


def _permutation(n: int, seed: int) -> np.ndarray:
    """The seeded draw of G_r: rid ``i + 1`` takes the flow of rid ``perm[i] + 1``."""
    return np.random.default_rng(seed).permutation(n)


def permute_flows(edges: DataFrame, seed: int) -> DataFrame:
    """Random graph G_r: same (src, dst, t) skeleton, permuted flows.

    The permutation is drawn on the driver from a seeded NumPy generator
    and applied via a rid -> rid join, so the result is deterministic
    regardless of Spark partitioning (F.rand() is not).
    """
    n = edges.count()
    perm = _permutation(n, seed)
    spark = edges.sparkSession
    mapping = spark.createDataFrame(
        pd.DataFrame(
            {"rid": np.arange(1, n + 1, dtype=np.int64),
             "take_rid": (perm + 1).astype(np.int64)}
        )
    )
    with_rid = _numbered(edges)
    flows = with_rid.select(F.col("rid").alias("take_rid"), F.col("f").alias("f_new"))
    return (
        with_rid.drop("f")
        .join(mapping, on="rid")
        .join(flows, on="take_rid")
        .select("src", "dst", "t", F.col("f_new").alias("f"))
    )


@dataclass(frozen=True)
class SignificanceResult:
    """Fig. 14 cell for one (dataset, motif) pair."""

    motif: str
    real_count: int
    random_counts: tuple[int, ...]
    mean: float
    std: float
    z_score: float
    p_empirical: float  # fraction of random graphs with count >= real


def significance(
    edges: DataFrame,
    motif: Motif,
    delta: float,
    phi: float,
    *,
    n_random: int = 20,
    seed: int = 0,
) -> SignificanceResult:
    """Real vs randomized instance counts and the z-score for one motif.

    ``n_random`` is the paper's R = 20 by default. Random graph r
    (0 <= r < ``n_random``) is ``permute_flows(edges, seed * 1000 + r)``;
    its count equals ``count_instances`` on that graph.
    """
    if n_random < 1:
        raise ValueError(f"n_random must be >= 1, got {n_random}")
    numbered = _numbered(edges)
    rid_f = np.array(numbered.select("rid", "f").collect(), dtype=np.float64).reshape(-1, 2)
    flows = rid_f[rid_f[:, 0].argsort(), 1]  # index i holds rid i + 1's flow
    flows_bc = edges.sparkSession.sparkContext.broadcast(flows)
    seeds = [seed * 1000 + r for r in range(n_random)]
    cols = [f"c{r}" for r in range(n_random + 1)]

    def scan(matches):
        f = flows_bc.value
        # Assignment 0 is the real graph, assignment r + 1 is G_r.
        assignments = [f] + [f[_permutation(len(f), s)] for s in seeds]
        counts = [0] * len(assignments)
        for _, series in matches:
            rids = [np.asarray(s.fs, dtype=np.int64) - 1 for s in series]
            for r, fa in enumerate(assignments):
                counts[r] += count_instances(
                    [Series(zip(s.ts, fa[i].tolist())) for s, i in zip(series, rids)],
                    delta,
                    phi,
                )
        return [tuple(counts)]

    # Exact: rids stay far below 2**53, the integers a double holds exactly.
    rid_edges = numbered.select("src", "dst", "t", F.col("rid").cast("double").alias("f"))
    schema = StructType([StructField(c, LongType()) for c in cols])
    try:
        partial = _per_match(rid_edges, motif, schema, scan)
        totals = partial.agg(*(F.sum(c).alias(c) for c in cols)).collect()[0]
    finally:
        flows_bc.destroy()
    real, *counts = (int(totals[c] or 0) for c in cols)
    mu = float(np.mean(counts))
    sigma = float(np.std(counts))
    z = (real - mu) / sigma if sigma > 0 else math.inf if real > mu else 0.0
    p = sum(c >= real for c in counts) / len(counts)
    return SignificanceResult(
        motif=motif.name,
        real_count=real,
        random_counts=tuple(counts),
        mean=mu,
        std=sigma,
        z_score=z,
        p_empirical=p,
    )
