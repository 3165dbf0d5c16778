"""Interaction networks as Spark DataFrames (DESIGN.md § 3).

The paper's Bitcoin / Facebook / Passenger networks are replaced by the
synthetic generators in :mod:`repro.networks.generators`; these wrappers
expose them with schema (src long, dst long, t double, f double), the input
multigraph G(V, E) of the paper. Generation is deterministic in ``seed``, so
Spark, the pure-Python reference and the DuckDB oracle see identical input.
"""
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.networks import generators as _gen

def interactions_pdf(kind: str, *, sf: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Interaction multigraph as pandas (kind: bitcoin|facebook|passenger)."""
    return _gen.generate(kind, sf=sf, seed=seed)


def interactions(
    spark: SparkSession, kind: str, *, sf: float = 1.0, seed: int = 0
) -> DataFrame:
    """Interaction multigraph as a Spark DataFrame (src, dst, t, f)."""
    return spark.createDataFrame(interactions_pdf(kind, sf=sf, seed=seed))

