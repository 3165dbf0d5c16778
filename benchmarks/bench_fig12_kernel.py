"""Fig. 12 kernel benchmark: per-match P2 time, heap top-1 vs DP module.

Times only the pure-Python kernels over the collected structural matches —
no Spark scheduling overhead — which is the comparison the paper's
single-machine implementation makes. EXPERIMENTS.md discusses why the
relative order differs from the paper at this scale.
"""
import pytest

from repro.core.dp import max_flow as dp_max_flow
from repro.core.motif import MOTIFS
from repro.core.topk import TopKHeap, topk_scan_match
from repro.experiments import defaults
from repro.spark.search import matches_with_series, row_series

pytestmark = pytest.mark.benchmark(group="fig12-kernel")


@pytest.fixture(scope="module")
def collected(datasets):
    """kind -> list of per-match Series lists for M(3,2), collected once."""
    out = {}
    motif = MOTIFS["M(3,2)"]
    for kind, edges in datasets.items():
        rows = matches_with_series(edges, motif).collect()
        out[kind] = [row_series(r, motif.m) for r in rows]
    return out


@pytest.mark.parametrize("kind", ["bitcoin", "facebook", "passenger"])
def test_fig12_kernel_heap(benchmark, collected, kind):
    series_list = collected[kind]
    delta, _ = defaults(kind)

    def run():
        heap = TopKHeap(1)
        for s in series_list:
            topk_scan_match(s, delta, heap)
        return heap.flows()[0] if heap.flows() else 0.0

    top = benchmark(run)
    benchmark.extra_info.update(dataset=kind, algo="heap", top1_flow=top)


@pytest.mark.parametrize("kind", ["bitcoin", "facebook", "passenger"])
def test_fig12_kernel_dp(benchmark, collected, kind):
    series_list = collected[kind]
    delta, _ = defaults(kind)

    def run():
        best = 0.0
        for s in series_list:
            best = max(best, dp_max_flow(s, delta))
        return best

    top = benchmark(run)
    benchmark.extra_info.update(dataset=kind, algo="dp", top1_flow=top)
