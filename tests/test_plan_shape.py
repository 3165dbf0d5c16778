"""Shuffle count of the plans behind the public Spark search calls.

Each call's final action is captured by wrapping ``DataFrame.collect`` and
``DataFrame.count``, and the post-execution (post-AQE) physical plan is
scanned for ``Exchange`` and ``ReusedExchange`` operators. The pinned counts
guard the plan shape: a refactor of the P2 driver or the join cascade must
not add a shuffle. The ``action_exchanges`` spy lives in ``tests/conftest.py``.
"""
import pytest

from repro.core.motif import MOTIFS
from repro.spark import join_baseline as jb
from repro.spark import search as sp
from tests.conftest import random_edges, to_spark_edges

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
