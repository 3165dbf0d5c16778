"""Shuffle count of the plans behind the public Spark search calls.

Each call's final action is captured by wrapping ``DataFrame.collect`` and
``DataFrame.count``, and the post-execution (post-AQE) physical plan is
scanned for ``Exchange`` and ``ReusedExchange`` operators. The pinned counts
guard the plan shape: a refactor of the P2 driver or the join cascade must
not add a shuffle.
"""
import re

import pytest
from pyspark.sql.classic.dataframe import DataFrame

from repro.core.motif import MOTIFS
from repro.spark import join_baseline as jb
from repro.spark import search as sp
from tests.conftest import random_edges, to_spark_edges

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


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda e, m: sp.count_instances(e, m, 12.0, 4.0), 10),
        (lambda e, m: sp.topk_flows(e, m, 12.0, 3), 9),
        (lambda e, m: sp.max_flow(e, m, 12.0), 10),
        (lambda e, m: jb.count_instances_join(e, m, 12.0, 4.0), 5),
    ],
    ids=["count_instances", "topk_flows", "max_flow", "count_instances_join"],
)
def test_exchange_count(spark, action_exchanges, call, expected):
    edges = to_spark_edges(spark, random_edges(0, n_nodes=6, n_edges=35, t_max=40))
    call(edges, MOTIFS["M(3,2)"])
    assert action_exchanges == [expected]
