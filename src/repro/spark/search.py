"""The distributed two-phase flow-motif search (the paper's § 4 + § 5).

Pipeline (all DataFrame-level until the per-match kernel):

1. **P1** — ``structural_matches_df``: Catalyst shuffle-join plan over the
   distinct-pair table.
2. **Attach series** — one join per motif edge against the time-series
   graph, producing a wide row per structural match carrying the aligned
   ``ts``/``fs`` arrays of every motif edge.
3. **P2** — ``mapInPandas`` runs the pure-Python per-match kernel
   (Algorithm 1, the top-k heap, or the Algorithm 2 DP) on executor-side
   Arrow batches; instances come back as a DataFrame.

The per-match kernel is inherently sequential/recursive, which is why P2 is
a DataFrame -> DataFrame transformation over grouped data rather than a
Catalyst operator (DESIGN.md § 2); everything before and after it is a
plain Catalyst plan.
"""
from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    IntegerType,
    LongType,
    StructField,
    StructType,
)

from repro.core.dp import max_flow as dp_max_flow
from repro.core.instances import Series, enumerate_instances
from repro.core.motif import Motif
from repro.core.topk import TopKHeap, topk_scan_match
from repro.spark.graph import distinct_pairs, timeseries_graph
from repro.spark.structural import node_columns, structural_matches_df

_PARTITIONS_PER_CORE = 2  # P2 tasks per default-parallelism slot
_OUT_BATCH_ROWS = 10_000  # rows per frame handed back to Spark (Arrow's default)


def matches_with_series(edges: DataFrame, motif: Motif) -> DataFrame:
    """P1 matches joined with the interaction series of every motif edge.

    Output columns: ``v0..v{n-1}``, then ``ts{i}``/``fs{i}`` for each motif
    edge i. Each join is 1:1 (one series per connected pair), so the row
    count equals the structural match count.
    """
    ts_graph = timeseries_graph(edges)
    out = structural_matches_df(distinct_pairs(edges), motif)
    for i, (a, b) in enumerate(motif.edges):
        step = ts_graph.select(
            F.col("src").alias(f"_a{i}"),
            F.col("dst").alias(f"_b{i}"),
            F.col("ts").alias(f"ts{i}"),
            F.col("fs").alias(f"fs{i}"),
        )
        out = out.join(
            step,
            on=(F.col(f"v{a}") == F.col(f"_a{i}"))
            & (F.col(f"v{b}") == F.col(f"_b{i}")),
            how="inner",
        ).drop(f"_a{i}", f"_b{i}")
    return out


def row_series(row, m: int) -> list[Series]:
    """The per-edge Series list of one :func:`matches_with_series` row.

    ``row`` is a collected ``Row`` or a pandas ``itertuples`` tuple.
    """
    return [Series(zip(getattr(row, f"ts{i}"), getattr(row, f"fs{i}"))) for i in range(m)]


def _per_match(
    edges: DataFrame,
    motif: Motif,
    schema: StructType,
    scan: Callable[[Iterator[tuple]], Iterable[tuple]],
) -> DataFrame:
    """P2: run ``scan`` over every structural match, one partition at a time.

    ``scan`` maps a partition's stream of (wide row, per-edge Series) pairs
    to output tuples in ``schema``'s column order; state it keeps across
    matches (the top-k heap) lives for one partition.
    """
    wide = matches_with_series(edges, motif)
    n_parts = wide.sparkSession.sparkContext.defaultParallelism * _PARTITIONS_PER_CORE
    m, cols = motif.m, schema.fieldNames()

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        matches = (
            (row, row_series(row, m)) for pdf in batches for row in pdf.itertuples(index=False)
        )
        rows = iter(scan(matches))
        while chunk := list(islice(rows, _OUT_BATCH_ROWS)):
            yield pd.DataFrame(chunk, columns=cols)

    return wide.repartition(n_parts).mapInPandas(kernel, schema=schema)


def _pair_array(a: str, b: str, kind) -> ArrayType:
    return ArrayType(StructType([StructField(a, kind), StructField(b, kind)]))


def _instances_schema(motif: Motif) -> StructType:
    fields = [StructField(c, LongType()) for c in node_columns(motif)]
    fields += [
        StructField("flow", DoubleType()),
        StructField("t_start", DoubleType()),
        StructField("t_end", DoubleType()),
        StructField("n_interactions", IntegerType()),
        StructField("ranges", _pair_array("s", "e", IntegerType())),
        StructField("edge_windows", _pair_array("ts", "te", DoubleType())),
    ]
    return StructType(fields)


def find_instances(edges: DataFrame, motif: Motif, delta: float, phi: float) -> DataFrame:
    """All maximal instances of ``motif``: one row per instance.

    Columns:

    - ``v0..v{n-1}`` (long): the structural match binding;
    - ``flow`` (double): Equation 1's instance flow;
    - ``t_start``/``t_end`` (double): the instance span;
    - ``n_interactions`` (int): interactions used, over all edge-sets;
    - ``ranges`` (``array<struct<s:int,e:int>>``): per motif edge, the
      inclusive index range of its edge-set in that edge's series;
    - ``edge_windows`` (``array<struct<ts:double,te:double>>``): per motif
      edge, the first and last timestamp of its edge-set, comparable 1:1
      with the join baseline's ``ts{i}``/``te{i}`` columns.
    """
    vcols = node_columns(motif)

    def scan(matches):
        for row, series in matches:
            match = tuple(getattr(row, c) for c in vcols)
            for inst in enumerate_instances(series, delta, phi):
                yield match + (
                    inst.flow,
                    inst.t_start,
                    inst.t_end,
                    sum(e - s + 1 for s, e in inst.ranges),
                    inst.ranges,
                    [(r.ts[s], r.ts[e]) for r, (s, e) in zip(series, inst.ranges)],
                )

    return _per_match(edges, motif, _instances_schema(motif), scan)


def count_instances(edges: DataFrame, motif: Motif, delta: float, phi: float) -> int:
    """Number of maximal instances in the graph (Figs. 9/10/13/14)."""
    return find_instances(edges, motif, delta, phi).count()


_FLOW_SCHEMA = StructType([StructField("flow", DoubleType())])


def topk_flows(edges: DataFrame, motif: Motif, delta: float, k: int) -> list[float]:
    """Flows of the global top-k instances, best first (Fig. 11).

    Each partition runs one floating-threshold heap over all its matches
    (phi = 0 plus the k-th-best-so-far prune of § 5) and emits at most k
    flows; the global top-k is a Catalyst sort-limit over those candidates.
    """

    def scan(matches):
        heap = TopKHeap(k)
        for _, series in matches:
            topk_scan_match(series, delta, heap)
        return [(f,) for f in heap.flows()]

    out = _per_match(edges, motif, _FLOW_SCHEMA, scan)
    return [r.flow for r in out.orderBy(F.desc("flow")).limit(k).collect()]


def max_flow(edges: DataFrame, motif: Motif, delta: float) -> float:
    """Top-1 instance flow via the Algorithm 2 DP module (Fig. 12)."""

    def scan(matches):
        return ((dp_max_flow(series, delta),) for _, series in matches)

    out = _per_match(edges, motif, _FLOW_SCHEMA, scan)
    row = out.agg(F.max("flow").alias("mf")).collect()[0]
    return float(row.mf) if row.mf is not None else 0.0


def phase1_count_and_time(
    spark: SparkSession, edges: DataFrame, motif: Motif
) -> tuple[int, float]:
    """Table 4 helper: structural match count and wall-clock P1 seconds."""
    import time

    t0 = time.perf_counter()
    n = structural_matches_df(distinct_pairs(edges), motif).count()
    return n, time.perf_counter() - t0
