#!/usr/bin/env python3
"""Time the layers of a decide in two source trees, interleaved.

    python3 scripts/layer_times.py BEFORE_SRC AFTER_SRC --workload direct_allk [--limit N]

BEFORE_SRC and AFTER_SRC are ``src/realform`` package directories (of
two checkouts, say).  Both are loaded into this process under distinct
package names, and each layer is called on its own on every instance of
a benchmark instance set: ``decide`` (with the workload's method),
``prepare``, ``eigensystems`` (on the collection as one stack),
``classify_spectra`` (on the eigenvalues of ``prepare``), ``decide_direct``
(on ``prepare``'s generators) and each coordinate route whose k the
instance has (on ``prepare``'s generators and the direct solve, as
``auto`` calls it).  Every input is built outside the timed call, each
time afresh, so nothing one call caches reaches the next.  The two
trees alternate instance by instance, and which goes first alternates
too, so drift of the machine's speed reaches both alike.

The instance sets come from ``perfbench.workloads``, read-only, as in
``identity_check.py``; the before tree's oracle realizes them, so both
trees see the same matrices.  Prints one markdown row per layer: the
median and p90 of its calls in ms in each tree and the after/before
ratio of each.  A tree against itself reads ratios near 1.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # as the benchmark pins them: k <= 8 gains nothing from threads

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402

# route -> the lowest and highest k it handles
ROUTES = {"decide_pgl2": (2, 2), "decide_pgl3": (3, 3), "decide_pglk_fg": (3, 8),
          "decide_pglk_cross_only": (2, 8)}
LAYERS = ("decide", "prepare", "eigensystems", "classify_spectra", "decide_direct", *ROUTES)


def load_tree(package_dir, name):
    """The package at ``package_dir`` imported as ``name``, with its
    modules decide, projlin, spectrum, oracle and errors."""
    package_dir = Path(package_dir).resolve()
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("decide", "projlin", "spectrum", "oracle", "errors"):
        setattr(package, module, importlib.import_module(f"{name}.{module}"))
    return package


def _timed(fn, *args, **kwargs):
    """Seconds one call of fn takes; a call that raises the library's own
    error (a route that does not apply, say) counts as a call."""
    t0 = time.perf_counter()
    try:
        fn(*args, **kwargs)
    except Exception as exc:
        if not type(exc).__module__.endswith(".errors"):
            raise
    return time.perf_counter() - t0


def sample(tree, ms, k, method, cfg):
    """{layer: seconds} of one instance in one tree."""
    d = tree.decide
    out = {"decide": _timed(d.decide, ms, cfg, method=method),
           "prepare": _timed(d.prepare, ms, cfg),
           "eigensystems": _timed(tree.projlin.eigensystems, tree.projlin.as_stack(ms), cfg)}
    lams = np.array([info.eigenvalues for info in d.prepare(ms, cfg)])
    out["classify_spectra"] = _timed(tree.spectrum.classify_spectra, lams, cfg)
    out["decide_direct"] = _timed(d.decide_direct, None, cfg, infos=d.prepare(ms, cfg))
    direct = d.decide_direct(None, cfg, infos=d.prepare(ms, cfg))
    for route, (lo, hi) in ROUTES.items():
        if lo <= k <= hi:
            out[route] = _timed(getattr(d, route), None, cfg, infos=d.prepare(ms, cfg), direct=direct)
    return out


def _quantile(xs, q):
    return float(np.quantile(xs, q)) * 1e3


def table(times):
    """Markdown rows of {tree: {layer: [seconds]}} for the trees before and after."""
    rows = ["| layer | before p50 ms | before p90 ms | after p50 ms | after p90 ms "
            "| after/before p50 | after/before p90 |", "|---|---:|---:|---:|---:|---:|---:|"]
    for layer in LAYERS:
        b, a = times["before"].get(layer), times["after"].get(layer)
        if not b or not a:
            continue
        q = [_quantile(b, 0.5), _quantile(b, 0.9), _quantile(a, 0.5), _quantile(a, 0.9)]
        rows.append(f"| `{layer}` | " + " | ".join(f"{x:.4f}" for x in q)
                    + f" | {q[2] / q[0]:.3f} | {q[3] / q[1]:.3f} |")
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("before", help="the src/realform directory of the tree before")
    p.add_argument("after", help="the src/realform directory of the tree after")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--limit", type=int, default=None,
                   help="use only this many instances, evenly spaced over the design")
    p.add_argument("--rounds", type=int, default=3, help="passes over the instance set")
    args = p.parse_args(argv)

    trees = {"before": load_tree(args.before, "realform_before"),
             "after": load_tree(args.after, "realform_after")}
    workload = workloads.WORKLOADS[args.workload]
    oracle = trees["before"].oracle
    instances = [(spec.k, [np.asarray(m, dtype=complex) for m in oracle.generate(
        oracle.InstanceSpec(**dataclasses.asdict(spec))).matrices])
        for spec in workloads.specs(workload, args.seed, args.limit)]
    times = {side: {layer: [] for layer in LAYERS} for side in trees}
    for tree in trees.values():   # warm caches and first-call paths, untimed
        sample(tree, instances[0][1], instances[0][0], workload.method, tree.decide.DEFAULT_TOLERANCES)
    gc.collect()
    for r in range(args.rounds):
        for i, (k, ms) in enumerate(instances):
            for side in ("before", "after") if (r + i) % 2 == 0 else ("after", "before"):
                tree = trees[side]
                for layer, s in sample(tree, ms, k, workload.method,
                                       tree.decide.DEFAULT_TOLERANCES).items():
                    times[side][layer].append(s)
    print(f"{args.workload}, seed {args.seed}: {len(instances)} instances, "
          f"{args.rounds} interleaved rounds, ms per call\n")
    print("\n".join(table(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
