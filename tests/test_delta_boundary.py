"""The δ bound at its floating-point edge: every path agrees with the oracle.

For each triple (a, δ, b) below, ``b <= a + δ`` holds in floating point but
``b - a <= δ`` does not, so a path that bounds its windows by ``a + δ``
admits an instance of span b - a that Definition 3.2 (checked literally by
the brute-force oracle) rejects. M(3,2) with one interaction of flow 5 at a
on the first edge and one at b on the second, φ = 1.
"""
import pytest

from repro.core import bruteforce as bf
from repro.core import dp
from repro.core.instances import Series, enumerate_instances
from repro.core.motif import MOTIFS
from repro.core.topk import topk_flows
from repro.spark import search as sp
from repro.spark.join_baseline import find_instances_join
from tests.conftest import spark_instance_set, to_spark_edges
from tests.test_spark_join_baseline import join_instance_set

TRIPLES = [(83.6, 8.7, 92.3), (90.1, 0.7, 90.8), (83.8, 11.2, 95.0)]
PHI = 1.0


def _series(a: float, b: float) -> list[Series]:
    return [Series([(a, 5.0)]), Series([(b, 5.0)])]


@pytest.mark.parametrize("a, delta, b", TRIPLES)
def test_algorithm1_equals_bruteforce(a, delta, b):
    series = _series(a, b)
    got = {bf.ranges_to_idxsets(i.ranges) for i in enumerate_instances(series, delta, PHI)}
    assert got == bf.maximal_instances(series, delta, PHI)


@pytest.mark.parametrize("a, delta, b", TRIPLES)
def test_dp_equals_top1_equals_bruteforce(a, delta, b):
    series = _series(a, b)
    top = topk_flows([series], delta, 1)
    oracle = max(
        (bf.instance_flow(series, s) for s in bf.maximal_instances(series, delta, 0)),
        default=0.0,
    )
    assert dp.max_flow(series, delta) == (top[0] if top else 0.0) == oracle


@pytest.mark.parametrize("a, delta, b", TRIPLES)
def test_spark_equals_join_baseline(spark, a, delta, b):
    motif = MOTIFS["M(3,2)"]
    edges = to_spark_edges(spark, [(0, 1, a, 5.0), (1, 2, b, 5.0)])
    got = spark_instance_set(sp.find_instances(edges, motif, delta, PHI), motif.n_nodes)
    expected = join_instance_set(find_instances_join(edges, motif, delta, PHI), motif)
    assert got == expected
