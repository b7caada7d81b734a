#!/usr/bin/env python3
"""Projection-variance ratio of honest trees against the reference bound.

For each subsample size s, estimates Var(first-order projection)/Var(T) for
an honest tree evaluated at a fixed test point, by nested Monte Carlo
(outer draws condition on one training example, inner draws complete the
subsample). The reference curve 2^(d+1)/(d-1)! / log(s)^d applies to the
uniform feature density. Values are diagnostics; the bound is asymptotic.
"""

import argparse
import sys

import numpy as np

from subforest.oracle import HonestTreeLearner, incrementality_curve
from subforest.tree import TreeConfig


class Uniform1DSource:
    """X uniform on [0,1], Y = X + standard Gaussian noise."""

    d = 1

    def sample(self, gen: np.random.Generator, m: int):
        x = gen.random((m, 1))
        return x, x[:, 0] + gen.standard_normal(m)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s-values", default="8,16,32")
    ap.add_argument("--outer", type=int, default=1000)
    ap.add_argument("--inner", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--x", type=float, default=0.5)
    args = ap.parse_args()

    s_values = [int(v) for v in args.s_values.split(",")]
    points = incrementality_curve(
        HonestTreeLearner(TreeConfig(), [args.x]), Uniform1DSource(), s_values,
        seed=args.seed, outer=args.outer, inner=args.inner,
    )
    print(f"{'s':>5} {'ratio':>8} {'+/-se':>8} {'reference':>10} method")
    for p in points:
        print(f"{p.s:>5} {p.ratio:>8.4f} {p.ratio_se:>8.4f} {p.reference:>10.4f} {p.method}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
