#!/usr/bin/env python3
"""Randomized sweep: per-method verdicts, agreement, and timing.

Generates scrambled real collections (and perturbed negatives) across
dimensions and type mixes, runs every applicable decision method, and
tabulates agreement rates plus residual statistics.
"""

import argparse
import sys
import time

import numpy as np

import realform as rf
from realform.errors import RealformError
from realform.oracle import InstanceSpec, generate


def random_mix(rng, k, n):
    if k in (2, 3):
        ne = int(rng.integers(0, n + 1))
        return {"hyperbolic": n - ne, "elliptic": ne}
    if k == 4:
        ne = int(rng.integers(0, n + 1))
        nm = int(rng.integers(0, n - ne + 1))
        return {"hyperbolic": n - ne - nm, "elliptic": ne, "mixed": nm}
    nm = int(rng.integers(0, n + 1))
    return {"hyperbolic": n - nm, "mixed": nm}


def methods(k):
    """The forced routes that apply at dimension k."""
    first = {2: ("dim2",), 3: ("dim3", "cross")}.get(k, ("fg", "cross"))
    return (*first, "direct")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-dim", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5])
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    for k in args.dims:
        counts = {m: 0 for m in methods(k)}
        disagreements = 0
        wrong = 0
        residuals = []
        t0 = time.time()
        for _ in range(args.per_dim):
            n = int(rng.integers(2, 7))
            pert = (int(rng.integers(0, n)), 0.05) if rng.random() < 0.5 else None
            inst = generate(InstanceSpec(k=k, n_generators=n, type_mix=random_mix(rng, k, n),
                                         seed=int(rng.integers(2**63)), perturbation=pert))
            answers = {}
            for method in methods(k):
                try:
                    v, cert = rf.decide(inst.matrices, method=method)
                except RealformError:  # the forced route does not apply
                    continue
                answers[method] = v.answer
                counts[method] += 1
                if v.answer == "yes":
                    residuals.append(cert.residual)
            if len(set(answers.values())) > 1:
                disagreements += 1
            if answers and set(answers.values()) != {inst.answer}:
                wrong += 1
        dt = time.time() - t0
        print(f"k={k}: {args.per_dim} instances in {dt:.1f}s "
              f"({1000 * dt / args.per_dim:.1f} ms each)")
        print(f"  applicable counts: {counts}")
        print(f"  disagreements: {disagreements}, wrong vs ground truth: {wrong}")
        if residuals:
            print(f"  residuals: median {np.median(residuals):.2e}, max {max(residuals):.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
