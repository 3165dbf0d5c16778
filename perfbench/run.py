"""Layer-timed benchmark of the flow-motif pipeline.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload dense-wide --seed 0 --seconds 5 --trace 0

One driver process issues one call at a time (a closed loop with one client)
against the public ``repro`` API on a ``local[4]`` Spark session set up like
the test fixture: 64 shuffle partitions, Arrow on, broadcast joins off.

A run sets up once (Spark start, generation, load and cache, one warm-up call
of every operation, ``count_instances`` last). It then calls
``count_instances`` until the next call would end after ``--seconds`` (at
least twice), and every other operation of the workload once. Every call's
answer is checked. With ``--trace 1`` the run also records spans
around each layer call, Spark job and task counts per call, the executed
plans' exchange counts, and a serial pass of the P2 kernels; the per-layer
metrics come from that run, the end-to-end ones from ``--trace 0`` runs.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record of a run (host, per-call values, spans) is written to
``perfbench/out/``. The exit code is non-zero when any answer check fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TMP = OUT / "tmp"

K = 10  # top-k size
MIN_COUNT_CALLS = 2  # timed count calls per run, at the least
N_RANDOM = 5  # random graphs per significance call
SEARCH_OPS = ("count", "topk", "maxflow", "join")


@dataclass(frozen=True)
class Workload:
    dataset: str
    sf: float
    motif: str
    delta: float
    phi: float
    ops: tuple[str, ...]


WORKLOADS = {
    # Sparse network at the paper's defaults: P1 plus series attach are most
    # of a call, the serial kernels a few percent. Plan and shuffle changes
    # show here; kernel changes should not. BENCHMARK.json leaves it out:
    # three workloads do not fit the benchmark's time budget, and
    # "significance" covers the same regime.
    "plan-default": Workload("facebook", 1.0, "M(4,3)", 600.0, 3.0, SEARCH_OPS),
    # delta = 100x the default spans the whole series, so every window holds
    # its match's full series: the serial kernels (the DP above all) and the
    # join cascade's blow-up dominate, and generation is nearly free.
    "dense-wide": Workload("passenger", 1.0, "M(5,4)", 90_000.0, 2.0, SEARCH_OPS),
    # R + 1 = 6 full pipelines plus 5 flow permutations per call, each a
    # dozen Spark jobs on a small graph; generation is the cycle-closing
    # pass. sf 0.25 keeps a run inside the benchmark's time budget; Spark's
    # per-job cost, not the graph's size, sets the call's time.
    "significance": Workload("bitcoin", 0.25, "M(3,2)", 600.0, 5.0, ("count", "significance")),
}

_FAILED = object()  # value of a call that raised


def _prepare_environment() -> None:
    """Point Spark, its Python workers and temp files at this checkout."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a checkout of the repository")
    TMP.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(TMP)
    java_opts = f"-Djava.io.tmpdir={TMP} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # the command-building JVM
    warehouse = TMP / "warehouse"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master local[4]",
            "--driver-memory 2g",
            f"--driver-java-options {shlex.quote(java_opts)}",
            f"--conf {shlex.quote(f'spark.local.dir={TMP}')}",
            f"--conf {shlex.quote(f'spark.sql.warehouse.dir={warehouse}')}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )


def _start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session, then end the gateway JVM and wait for it."""
    sc = spark.sparkContext
    gateway = sc._gateway
    spark.stop()
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _operations(edges, w: Workload, n_random: int):
    from repro.core.motif import MOTIFS
    from repro.spark import join_baseline, search, significance

    motif = MOTIFS[w.motif]
    return {
        "count": lambda: search.count_instances(edges, motif, w.delta, w.phi),
        "topk": lambda: search.topk_flows(edges, motif, w.delta, K),
        "maxflow": lambda: search.max_flow(edges, motif, w.delta),
        "join": lambda: join_baseline.count_instances_join(edges, motif, w.delta, w.phi),
        "significance": lambda: significance.significance(
            edges, motif, w.delta, w.phi, n_random=n_random
        ),
    }


def _same_flow(a: float, b: float | None) -> bool:
    return b is not None and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _same_flows(a: list[float], b: list[float] | None) -> bool:
    return b is not None and len(a) == len(b) and all(map(_same_flow, a, b))


def _repeats(a, b) -> bool:
    """Whether call result ``b`` repeats ``a``.

    Significance results drawn with different numbers of random graphs
    agree on the real count and on the counts of the graphs both drew.
    """
    if hasattr(a, "random_counts"):
        n = min(len(a.random_counts), len(b.random_counts))
        return a.real_count == b.real_count and a.random_counts[:n] == b.random_counts[:n]
    return a == b


def check_answers(values: dict[str, list], kernel: dict | None) -> tuple[int, int, list[str]]:
    """Answer checks over every call of the run.

    Returns ``(attempted, failed, problems)``. A call fails when it raised,
    when it returned something other than the op's first answer, or when
    that first answer disagrees with the op it is checked against. The
    kernel pass, when present, adds one attempt per kernel.
    """
    first = {op: v[0] for op, v in values.items()}
    bad_ops: dict[str, str] = {}
    for op, vs in values.items():
        if any(v is _FAILED for v in vs):
            bad_ops[op] = "raised"
        elif not all(_repeats(vs[0], v) for v in vs):
            bad_ops[op] = f"repeats differ: {vs}"
    ok = {op: v for op, v in first.items() if op not in bad_ops}
    if "count" in ok and ok["count"] <= 0:
        bad_ops["count"] = "no instances"
    if "join" in ok and "count" in ok and ok["join"] != ok["count"]:
        bad_ops["join"] = f"join count {ok['join']} != two-phase count {ok['count']}"
    if "topk" in ok and len(ok["topk"]) != K:
        bad_ops["topk"] = f"{len(ok['topk'])} flows, expected {K}"
    if "maxflow" in ok and "topk" in ok and ok["topk"] and not _same_flow(ok["topk"][0], ok["maxflow"]):
        bad_ops["maxflow"] = f"DP max flow {ok['maxflow']} != top-1 {ok['topk'][0]}"
    if "significance" in ok and "count" in ok and ok["significance"].real_count != ok["count"]:
        bad_ops["significance"] = (
            f"real_count {ok['significance'].real_count} != count {ok['count']}"
        )
    attempted = sum(len(v) for v in values.values())
    failed = sum(len(values[op]) for op in bad_ops)
    problems = [f"{op}: {why}" for op, why in bad_ops.items()]
    if kernel is not None:
        checks = {
            "kernel count": kernel["kernel.count"] == ok.get("count"),
            "kernel topk": _same_flows(kernel["kernel.topk"], ok.get("topk")),
            "kernel maxflow": _same_flow(kernel["kernel.maxflow"], ok.get("maxflow")),
        }
        attempted += len(checks)
        for name, passed in checks.items():
            if not passed:
                failed += 1
                problems.append(f"{name} disagrees with Spark")
    return attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_setup = time.perf_counter()
    _prepare_environment()
    import layers
    from repro import synth_data
    from repro.core.motif import MOTIFS

    w = WORKLOADS[args.workload]
    traced = bool(args.trace)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = layers.Tracer(enabled=traced, run=run_id)
    # A traced run also times the search ops on workloads that lack them,
    # so every workload reports the same per-layer metrics.
    ops = tuple(dict.fromkeys(w.ops + SEARCH_OPS)) if traced else w.ops
    # Count is warmed up last and timed first, right after its own warm-up:
    # the first count after a different operation runs slower.
    others = tuple(op for op in ops if op != "count")
    values: dict[str, list] = {op: [] for op in ops}
    times: dict[str, list[float]] = {op: [] for op in ops}
    counters: dict[str, list[dict]] = {op: [] for op in ops}
    layer: dict = {}

    def call(op: str, measured: bool) -> None:
        jobs: dict = {}
        with tracer.span(f"op.{op}"), tracer.jobs(spark, jobs):
            t0 = time.perf_counter()
            try:
                v = operations[op]()
            except Exception:
                traceback.print_exc()
                v = _FAILED
            dt = time.perf_counter() - t0
        values[op].append(v)
        if measured:
            times[op].append(dt)
        # The significance warm-up draws fewer random graphs, so its job
        # count is no repeat of the measured call's.
        if traced and (measured or op != "significance"):
            counts = {"jobs": len(jobs["job_ids"])}
            if op == "count":
                counts["tasks"] = tracer.completed_tasks(spark, jobs["job_ids"])
            counters[op].append(counts)

    with tracer.span("session.start"):
        t0 = time.perf_counter()
        spark = _start_spark()
        layer["session.start_s"] = time.perf_counter() - t0
    try:
        with tracer.span("generators.generate"):
            t0 = time.perf_counter()
            pdf = synth_data.interactions_pdf(w.dataset, sf=w.sf, seed=args.seed)
            layer["generators.generate_s"] = time.perf_counter() - t0
        layer["generators.interactions"] = len(pdf)
        with tracer.span("session.load"):
            t0 = time.perf_counter()
            edges = spark.createDataFrame(pdf).cache()
            edges.count()
            layer["session.load_s"] = time.perf_counter() - t0
        # The significance warm-up draws one random graph, not N_RANDOM: it
        # runs every code path of the call at a sixth of the cost.
        operations = _operations(edges, w, n_random=1)
        with tracer.span("session.warmup"):
            t0 = time.perf_counter()
            for op in others + ("count",):
                call(op, measured=False)
            layer["session.warmup_s"] = time.perf_counter() - t0
        setup_s = time.perf_counter() - t_setup

        operations = _operations(edges, w, n_random=N_RANDOM)
        overhead_before = tracer.overhead_s
        with tracer.span("measure"):
            t_measure = time.perf_counter()
            while len(times["count"]) < MIN_COUNT_CALLS or (
                time.perf_counter() - t_measure + times["count"][-1] <= args.seconds
            ):
                call("count", measured=True)
            for op in others:
                call(op, measured=True)
        trace_overhead = tracer.overhead_s - overhead_before
        rss = layer["session.peak_rss_mb"] = layers.peak_rss_mb(spark)

        kernel = None
        if traced:
            motif = MOTIFS[w.motif]
            layer.update(layers.probe_layers(spark, tracer, edges, motif, w.delta, w.phi))
            kernel = layers.kernel_pass(tracer, edges, motif, w.delta, w.phi, K)
            layer.update(kernel)
        host = layers.host(spark, args.seed)
    finally:
        _stop_spark(spark)
        shutil.rmtree(TMP, ignore_errors=True)

    attempted, failed, problems = check_answers(values, kernel)
    op_summary = {op: layers.summary(ts) for op, ts in times.items()}
    round_s = sum(s["median"] for s in op_summary.values())
    unsteady = sorted(
        f"{op}.{key} differs between calls"
        for op, cs in counters.items()
        for key in (cs[0] if cs else {})
        if len({c.get(key) for c in cs}) > 1
    )

    print(f"host {json.dumps(host)}")
    print(f"workload {args.workload} {w} seed {args.seed}")
    for op, s in op_summary.items():
        pct = f"p{s['p_supported']}" if s["p_supported"] else "none, under 11 samples"
        print(
            f"{op}_s {s['median']:.4f} s (median of n={s['n']}, max {s['max']:.4f} s, "
            f"highest supported percentile {pct})"
        )
    print(f"round_s {round_s:.4f} s (sum of the per-op medians)")
    print(f"setup_s {setup_s:.4f} s")
    print(f"peak_rss_mb {rss:.1f} MB")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} checked calls)")
    for p in problems:
        print(f"CHECK FAILED {p}")

    record = {
        "workload": args.workload,
        "host": host,
        "values": {op: [repr(v) for v in vs] for op, vs in values.items()},
        "ops": op_summary,
        "times": times,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "problems": problems,
    }
    if traced:
        per_layer = _per_layer(layer, op_summary, counters, trace_overhead)
        for name, value in per_layer.items():
            print(f"{name} {value} {_unit(name)}")
        if "significance" in w.ops:
            sig_jobs = counters["significance"][-1]["jobs"]
            sig_overhead = (
                op_summary["significance"]["median"]
                - (N_RANDOM + 1) * op_summary["count"]["median"]
            )
            print(f"significance.jobs {sig_jobs} count")
            print(f"significance.overhead_s {sig_overhead} s")
            layer.update({"significance.jobs": sig_jobs, "significance.overhead_s": sig_overhead})
        unsteady += _compare_with_previous_run(args.workload, args.seed, per_layer, layer)
        print(f"unsteady_counts {unsteady}")
        reported = per_layer
        record.update(layer=layer, unsteady_counts=unsteady, spans=tracer.as_json())
    else:
        reported = {
            "setup_s": setup_s,
            "count_s": op_summary["count"]["median"],
            "round_s": round_s,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": reported[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if traced else "end_to_end"]
    }
    record["metrics"] = metrics
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1, default=repr))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def _compare_with_previous_run(workload: str, seed: int, per_layer: dict, layer: dict) -> list[str]:
    """Flag plan and scheduler counts that differ from the last traced run.

    The counts of each traced run of a workload are kept in
    ``perfbench/out/<workload>-counts.json`` for the next one to compare.
    """
    names = [n for n in per_layer if n.endswith(("exchanges", "_jobs", "_tasks"))]
    names += [n for n in ("significance.jobs",) if n in layer]
    counts = {n: per_layer.get(n, layer.get(n)) for n in names}
    path = OUT / f"{workload}-counts.json"
    flagged = []
    if path.exists():
        previous = json.loads(path.read_text())
        flagged = [
            f"{n} is {v}, was {previous['counts'][n]} at seed {previous['seed']}"
            for n, v in counts.items()
            if n in previous["counts"] and previous["counts"][n] != v
        ]
    path.write_text(json.dumps({"seed": seed, "counts": counts}))
    return flagged


def _per_layer(layer: dict, ops: dict, counters: dict, trace_overhead: float) -> dict:
    """Every per-layer value of a traced run, by metric name.

    ``trace_overhead`` is the tracer's own time during the measured calls:
    what tracing adds over an untraced run.
    """
    attach = layer["search.attach_s"]
    instances = layer["kernel.count"]
    candidates = layer["join.cascade_rows"][-1]
    out = {k: layer[k] for k in (
        "session.start_s", "session.load_s", "session.warmup_s", "session.peak_rss_mb",
        "generators.generate_s", "generators.interactions",
        "graph.timeseries_graph_s", "graph.pairs",
        "structural.p1_s", "structural.matches", "structural.exchanges",
        "search.attach_s", "search.attach_exchanges", "search.count_exchanges",
    )}
    out["search.count_jobs"] = counters["count"][-1]["jobs"]
    out["search.topk_jobs"] = counters["topk"][-1]["jobs"]
    out["search.maxflow_jobs"] = counters["maxflow"][-1]["jobs"]
    out["search.count_tasks"] = counters["count"][-1]["tasks"]
    for op in ("count", "topk", "maxflow"):
        out[f"search.{op}_p2_s"] = ops[op]["median"] - attach
    out["search.instances"] = instances
    out["search.instances_per_match"] = instances / layer["structural.matches"]
    out.update({k: layer[k] for k in (
        "instances.kernel_s", "instances.windows", "topk.kernel_s",
        "dp.kernel_s", "dp.window_timestamps",
        "join.intervals_s", "join.intervals", "join.cascade_s", "join.peak_rows",
    )})
    out["join.candidates"] = candidates
    out["join.useful_ratio"] = instances / candidates
    out["join.exchanges"] = layer["join.exchanges"]
    out["join.jobs"] = counters["join"][-1]["jobs"]
    out["significance.permute_s"] = layer["significance.permute_s"]
    out["significance.permute_jobs"] = layer["significance.permute_jobs"]
    out["trace.overhead_s"] = trace_overhead
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_per_match")):
        return "ratio"
    return "count"



if __name__ == "__main__":
    sys.exit(main())
