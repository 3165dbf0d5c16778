"""Fig. 14 benchmark: significance of motifs via flow permutation.

Each cell runs the full real-vs-randomized comparison and records the
z-score. One call builds P1 and the series attach once and counts the real
graph and its N_RANDOM flow-permuted graphs in one P2 pass. N_RANDOM is 3
here; ``significance`` and the jobs entrypoint default to the paper's 20.
"""
import pytest

from repro.core.motif import MOTIFS
from repro.experiments import defaults
from repro.spark.significance import significance

pytestmark = pytest.mark.benchmark(group="fig14-significance")

N_RANDOM = 3


@pytest.mark.parametrize("kind", ["bitcoin", "facebook", "passenger"])
@pytest.mark.parametrize("name", ["M(3,2)", "M(3,3)"])
def test_fig14_significance(benchmark, datasets, kind, name):
    edges, (delta, phi) = datasets[kind], defaults(kind)
    motif = MOTIFS[name]

    res = benchmark.pedantic(
        lambda: significance(edges, motif, delta, phi, n_random=N_RANDOM, seed=0),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        dataset=kind, motif=name, real=res.real_count,
        random_mean=res.mean, random_std=res.std,
        z_score=round(res.z_score, 2), p_empirical=res.p_empirical,
    )
    # Fig. 14's headline shape: the real network has at least as many
    # instances as the flow-permuted ones.
    assert res.real_count >= res.mean
