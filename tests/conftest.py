"""Shared fixtures/helpers for the Spark-level tests.

The session-scoped ``spark`` fixture comes from the repo-root conftest.
Here we add small deterministic interaction graphs (hand-built and
generator-sampled) and comparison helpers between the distributed pipeline
and the pure-Python reference.
"""
import random
import re

import pandas as pd
import pytest
from pyspark.sql.classic.dataframe import DataFrame

from repro.core.motif import Motif
from repro.core.search import Edge, search_graph

SCHEMA = "src long, dst long, t double, f double"


def to_spark_edges(spark, edges: list[Edge]):
    """Edge list -> Spark DataFrame with the interaction schema."""
    pdf = pd.DataFrame(edges, columns=["src", "dst", "t", "f"]).astype(
        {"src": "int64", "dst": "int64", "t": "float64", "f": "float64"}
    )
    return spark.createDataFrame(pdf, schema=SCHEMA)


def random_edges(seed: int, n_nodes: int = 8, n_edges: int = 40,
                 t_max: float = 50.0) -> list[Edge]:
    """Small random multigraph with unique timestamps and int node ids."""
    rng = random.Random(seed)
    ts = rng.sample(range(int(t_max * 10)), n_edges)
    out: list[Edge] = []
    for t in ts:
        u, v = rng.sample(range(n_nodes), 2)
        out.append((u, v, t / 10.0, float(rng.randint(1, 9))))
    return sorted(out, key=lambda e: e[2])


def py_instance_set(edges: list[Edge], motif: Motif, delta: float, phi: float):
    """Reference result as a comparable set of tuples."""
    from repro.core.search import build_series
    from repro.core.structural import match_edge_pairs

    series_map = build_series(edges)
    out = set()
    for match, inst in search_graph(edges, motif, delta, phi):
        series = [series_map[p] for p in match_edge_pairs(motif, match)]
        windows = tuple(
            (float(r.ts[s]), float(r.ts[e]))
            for r, (s, e) in zip(series, inst.ranges)
        )
        out.add((tuple(int(v) for v in match), windows, round(inst.flow, 6)))
    return out


def spark_instance_set(df, n_nodes: int):
    """``repro.spark.search.find_instances`` output as the same set shape."""
    out = set()
    for row in df.collect():
        match = tuple(int(row[f"v{i}"]) for i in range(n_nodes))
        windows = tuple(tuple(w) for w in row.edge_windows)
        out.add((match, windows, round(row.flow, 6)))
    return out


@pytest.fixture(scope="session")
def bitcoin_small(spark):
    from repro import synth_data

    return synth_data.interactions(spark, "bitcoin", sf=0.15, seed=0).cache()


@pytest.fixture(scope="session")
def passenger_small(spark):
    from repro import synth_data

    return synth_data.interactions(spark, "passenger", sf=0.5, seed=0).cache()


_EXCHANGE_LINE = re.compile(r"^[\s:+\-|*]*(?:Reused)?Exchange\b")


def _exchanges(df) -> int:
    plan = df._jdf.queryExecution().executedPlan().toString()
    final = plan.split("== Initial Plan ==")[0]
    return sum(1 for line in final.splitlines() if _EXCHANGE_LINE.match(line))


@pytest.fixture
def action_exchanges(monkeypatch):
    """Exchange counts of every ``collect``/``count`` action, in call order."""
    seen: list[int] = []
    collect = DataFrame.collect

    def spy_collect(self):
        rows = collect(self)
        seen.append(_exchanges(self))
        return rows

    def spy_count(self):
        # Dataset.count runs the plan of groupBy().count().
        agg = self.groupBy().count()
        n = collect(agg)[0][0]
        seen.append(_exchanges(agg))
        return n

    monkeypatch.setattr(DataFrame, "collect", spy_collect)
    monkeypatch.setattr(DataFrame, "count", spy_count)
    return seen
