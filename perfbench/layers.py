"""Outside-in instrumentation for the benchmark: spans, Spark counters, probes.

Nothing here changes or wraps ``repro``: every number comes from timing a
call into one layer's functions, from the executed physical plan of a
DataFrame after its action has run, or from Spark's status tracker.
"""
from __future__ import annotations

import os
import platform
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

from pyspark.sql import DataFrame, SparkSession

from repro.core import dp
from repro.core.instances import Series, enumerate_instances
from repro.core.motif import Motif
from repro.core.topk import TopKHeap, topk_scan_match
from repro.spark import graph, join_baseline, search, significance, structural

_EXCHANGE_LINE = re.compile(r"^[\s:+\-|*]*(?:Reused)?Exchange\b")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


@dataclass
class Tracer:
    """Spans kept in memory, plus the Spark jobs of each traced call.

    When disabled, ``span`` and ``jobs`` add nothing but a context manager.
    ``overhead_s`` accumulates the time the tracer spends on its own
    bookkeeping and status-tracker queries: the traced-minus-untraced time.
    """

    enabled: bool
    run: str
    spans: list[Span] = field(default_factory=list)
    overhead_s: float = 0.0
    _stack: list[int] = field(default_factory=list)
    _groups: int = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.overhead_s += time.perf_counter() - t0
        self.spans[idx].start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans[idx].end = end
            self._stack.pop()
            self.overhead_s += time.perf_counter() - end

    @contextmanager
    def jobs(self, spark: SparkSession, counts: dict):
        """Record in ``counts["job_ids"]`` the Spark jobs run inside the block."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        self._groups += 1
        group = f"{self.run}-{self._groups}"
        spark.sparkContext.setJobGroup(group, group)
        self.overhead_s += time.perf_counter() - t0
        try:
            yield
        finally:
            t1 = time.perf_counter()
            counts["job_ids"] = list(spark.sparkContext.statusTracker().getJobIdsForGroup(group))
            self.overhead_s += time.perf_counter() - t1

    def completed_tasks(self, spark: SparkSession, job_ids: list[int]) -> int:
        """Tasks completed by the stages of the given jobs."""
        t0 = time.perf_counter()
        tracker = spark.sparkContext.statusTracker()
        tasks = 0
        for j in job_ids:
            info = tracker.getJobInfo(j)
            for sid in info.stageIds if info else ():
                stage = tracker.getStageInfo(sid)
                tasks += stage.numCompletedTasks if stage else 0
        self.overhead_s += time.perf_counter() - t0
        return tasks

    def as_json(self) -> list[dict]:
        return [s.__dict__ for s in self.spans]


def count_and_plan(df: DataFrame) -> tuple[int, float, int]:
    """Run ``df``'s row count and read its executed plan afterwards.

    Returns ``(rows, seconds, exchanges)``: the ``Exchange`` and
    ``ReusedExchange`` operators of the final (post-AQE) physical plan.
    """
    agg = df.groupBy().count()
    t0 = time.perf_counter()
    rows = agg.collect()[0][0]
    seconds = time.perf_counter() - t0
    plan = agg._jdf.queryExecution().executedPlan().toString()
    final = plan.split("== Initial Plan ==")[0]
    n = sum(1 for line in final.splitlines() if _EXCHANGE_LINE.match(line))
    return rows, seconds, n


def peak_rss_mb(spark: SparkSession) -> float:
    """High-water resident set of the driver JVM plus this Python process."""
    jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    return (_vm_hwm_kb(jvm_pid) + _vm_hwm_kb(os.getpid())) / 1024.0


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host(spark: SparkSession, seed: int) -> dict:
    import pyarrow

    with open("/proc/meminfo") as f:
        mem_total = next(line.split(":")[1].strip() for line in f if line.startswith("MemTotal"))
    conf = dict(spark.sparkContext.getConf().getAll())
    keep = ("spark.master", "spark.driver.memory", "spark.sql.", "spark.local.dir")
    return {
        "nproc": os.cpu_count(),
        "mem_total": mem_total,
        "spark": spark.version,
        "python": platform.python_version(),
        "pyarrow": pyarrow.__version__,
        "driver_memory": conf.get("spark.driver.memory"),
        "spark_conf": {k: v for k, v in sorted(conf.items()) if k.startswith(keep)},
        "seed": seed,
    }


def probe_layers(
    spark: SparkSession,
    tracer: Tracer,
    edges: DataFrame,
    motif: Motif,
    delta: float,
    phi: float,
) -> dict:
    """Time each Spark layer on its own, with its plan and job counters.

    Each layer's DataFrame is built through the layer's public function and
    forced by a row count, so ``attach_s`` includes G_T and P1 beneath it.
    """
    out: dict = {}
    with tracer.span("graph.timeseries_graph"):
        out["graph.pairs"], out["graph.timeseries_graph_s"], _ = count_and_plan(
            graph.timeseries_graph(edges)
        )
    with tracer.span("structural.p1"):
        p1 = structural.structural_matches_df(graph.distinct_pairs(edges), motif)
        matches, p1_s, p1_exchanges = count_and_plan(p1)
    out["structural.matches"] = matches
    out["structural.p1_s"] = p1_s
    out["structural.exchanges"] = p1_exchanges
    with tracer.span("search.attach"):
        _, out["search.attach_s"], out["search.attach_exchanges"] = count_and_plan(
            search.matches_with_series(edges, motif)
        )
    with tracer.span("search.count_plan"):
        _, _, out["search.count_exchanges"] = count_and_plan(
            search.find_instances(edges, motif, delta, phi)
        )
    with tracer.span("join.intervals"):
        out["join.intervals"], out["join.intervals_s"], _ = count_and_plan(
            join_baseline.intervals(edges, delta, phi)
        )
    with tracer.span("join.cascade"):
        t0 = time.perf_counter()
        steps = join_baseline.join_intermediate_counts(edges, motif, delta, phi)
        out["join.cascade_s"] = time.perf_counter() - t0
    out["join.cascade_rows"] = steps
    out["join.peak_rows"] = max(steps)
    with tracer.span("join.plan"):
        _, _, out["join.exchanges"] = count_and_plan(
            join_baseline.find_instances_join(edges, motif, delta, phi)
        )
    with tracer.span("significance.permute"):
        counts: dict = {}
        with tracer.jobs(spark, counts):
            t0 = time.perf_counter()
            significance.permute_flows(edges, seed=1).count()
            out["significance.permute_s"] = time.perf_counter() - t0
        out["significance.permute_jobs"] = len(counts["job_ids"])
    return out


def kernel_pass(
    tracer: Tracer, edges: DataFrame, motif: Motif, delta: float, phi: float, k: int
) -> dict:
    """Serial P2 kernels over every match's series, collected once.

    Times ``enumerate_instances``, ``topk_scan_match`` (one shared heap) and
    ``dp.max_flow`` back to back, and counts their windows: one per element
    of the first motif edge's series, and ``tau`` distinct timestamps of the
    match inside each window for the DP.
    """
    with tracer.span("kernel.collect"):
        rows = search.matches_with_series(edges, motif).collect()
        all_series = [
            [Series(zip(r[f"ts{i}"], r[f"fs{i}"])) for i in range(motif.m)] for r in rows
        ]
    out: dict = {}
    with tracer.span("instances.kernel"):
        t0 = time.perf_counter()
        n = sum(len(enumerate_instances(s, delta, phi)) for s in all_series)
        out["instances.kernel_s"] = time.perf_counter() - t0
    with tracer.span("topk.kernel"):
        heap = TopKHeap(k)
        t0 = time.perf_counter()
        for s in all_series:
            topk_scan_match(s, delta, heap)
        out["topk.kernel_s"] = time.perf_counter() - t0
    with tracer.span("dp.kernel"):
        t0 = time.perf_counter()
        best = max((dp.max_flow(s, delta) for s in all_series), default=0.0)
        out["dp.kernel_s"] = time.perf_counter() - t0
    out["instances.windows"] = sum(len(s[0]) for s in all_series)
    out["dp.window_timestamps"] = sum(
        len(dp._window_timestamps(s, a, a + delta)) for s in all_series for a in s[0].ts
    )
    out["kernel.count"] = n
    out["kernel.topk"] = heap.flows()
    out["kernel.maxflow"] = best
    return out


def summary(values: list[float]) -> dict:
    """Median, max and sample count of a list of timings.

    ``p_supported`` is the highest percentile with at least ten samples
    beyond it, or None when there are too few samples for any.
    """
    n = len(values)
    p = int(100 * (1 - 10 / n)) if n > 10 else None
    return {"median": median(values), "max": max(values), "n": n, "p_supported": p}
