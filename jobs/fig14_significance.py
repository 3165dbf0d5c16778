#!/usr/bin/env python
"""Reproduce Fig. 14: motif significance via flow-permuted random graphs.

Usage: spark-submit jobs/fig14_significance.py [--sf 0.5] [--seed 0]
       [--n-random 20] (the paper's R)
"""
import argparse

from pyspark.sql import SparkSession

from repro import experiments


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=experiments.DEFAULT_SF)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-random", type=int, default=20)
    args = ap.parse_args()
    spark = SparkSession.builder.appName("fig14").getOrCreate()
    df = experiments.fig14_significance(
        spark, sf=args.sf, seed=args.seed, n_random=args.n_random
    )
    print(df.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
