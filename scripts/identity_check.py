#!/usr/bin/env python3
"""Record every decision of a fixed op set, and compare two records.

An op is one ``decide`` call or one CLI command.  The record has three
sections:

* every forced method and ``auto`` on every instance of the seed-1 and
  seed-2 sets of the three benchmark workloads (3,600 ops);
* the boundary, where float64 barely separates Yes from No (680 ops):
  ``auto``, ``direct``, ``dim3`` (k = 3) or ``fg``, and ``cross`` on the
  conditioning sweep (oracle Yes instances moved by a Gamma with
  cond(Gamma) 1e3 or 1e4, k = 3, 4, 6, 8) and the perturbation sweep
  (oracle No instances 1e-7, 1e-8 or 1e-9 from real, k = 3, 6, 8),
  seeds 0-9 per cell;
* the CLI: ``classify``, ``coords`` and ``decide`` through
  ``realform.cli.main`` on every seed-1 and seed-2 ``cli_docs`` document
  (360 ops).

For each ``decide`` op the record keeps the answer, method and multiplicity, the
conditions (name, requirement, pass flag and value) and diagnostics, the
type and message of a raise, and whether the certificate residual is
below ``cert_tol``.  Gamma itself is not kept: two correct versions may
return different realifiers.  The record also keeps the sha256 of every
instance it decides, under ``instance/<workload>/<seed>/<i>`` and
``instance/boundary/<key>``, so a change of the oracle shows as the
instances it moved, not only as the ops that follow from them.  For
each CLI op it keeps the exit code, the stderr text and the sha256 of
stdout.

    python3 scripts/identity_check.py dump before.json
    python3 scripts/identity_check.py dump after.json
    python3 scripts/identity_check.py compare before.json after.json
    python3 scripts/identity_check.py values before.json after.json

``compare`` prints each op that differs and exits 1 if there is any.
``values`` does the same but lets condition values move: it exits 1
on any other difference (answer, method, multiplicity, condition name,
requirement or pass flag, diagnostics, raise type or message,
``residual_ok``, a CLI op's exit code or stderr), ignores the CLI
stdout digests, where printed numbers may move as well, and prints the largest change of condition values,
relative for values above ``cr_tol`` and absolute for the defects at or
below it.  The benchmark instance sets come from ``perfbench.workloads``,
read-only, as are their CLI documents (``workloads.document``).  The
sweeps' recipes (``conditioned_yes``, ``perturbed``) are
defined here, and the tests load them from this file; the script itself
needs only numpy.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402
from realform.cli import main as cli_main  # noqa: E402
from realform.config import DEFAULT_TOLERANCES  # noqa: E402
from realform.decide import FORCED_METHODS, decide  # noqa: E402
from realform.errors import RealformError  # noqa: E402
from realform.oracle import InstanceSpec, generate  # noqa: E402

SEEDS = (1, 2)
CLI_COMMANDS = ("classify", "coords", "decide")
BOUNDARY_SEEDS = range(10)
THREE_GENERATORS = {"hyperbolic": 2, "elliptic": 1, "mixed": 0}


def conditioned_yes(k, seed, exponent=3, mix=THREE_GENERATORS):
    """An oracle Yes instance of type mix ``mix`` moved by Gamma = U
    diag(logspace(0, exponent, k)) U^H, cond(Gamma) = 10**exponent."""
    inst = generate(InstanceSpec(k, sum(mix.values()), mix, seed=seed))
    rng = np.random.default_rng(1000 + seed)
    u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    g = u @ np.diag(np.logspace(0, exponent, k)) @ u.conj().T
    gi = np.linalg.inv(g)
    return [g @ m @ gi for m in inst.matrices]


def perturbed(k, seed, eps):
    """Three hyperbolic generators, generator 0 perturbed by eps."""
    return generate(InstanceSpec(k, 3, {"hyperbolic": 3}, seed=seed,
                                 perturbation=(0, eps))).matrices


def boundary_instances(limit=None):
    """(key, k, matrices) of each boundary instance, the first ``limit``
    seeds of each cell when given."""
    seeds = BOUNDARY_SEEDS[:limit]
    for exponent in (3, 4):
        for k in (3, 4, 6, 8):
            for seed in seeds:
                yield f"conditioned/1e{exponent}/{k}/{seed}", k, conditioned_yes(k, seed, exponent)
    for eps in (1e-7, 1e-8, 1e-9):
        for k in (3, 6, 8):
            for seed in seeds:
                yield f"perturbed/{eps:g}/{k}/{seed}", k, perturbed(k, seed, eps)


def _value(z):
    z = complex(z)
    return [z.real, z.imag]


def record_op(ms, method, cfg=DEFAULT_TOLERANCES):
    """The comparable outcome of one decide call."""
    try:
        verdict, cert = decide(ms, cfg, method=method)
    except (RealformError, ValueError, np.linalg.LinAlgError) as exc:
        return {"raised": type(exc).__name__, "message": str(exc)}
    return {
        "answer": verdict.answer,
        "method": verdict.method,
        "multiplicity": None if verdict.multiplicity is None else verdict.multiplicity.value,
        "conditions": [[c.name, c.requirement, bool(c.passed), _value(c.value)]
                       for c in cert.conditions],
        "diagnostics": list(cert.diagnostics),
        "residual_ok": None if cert.residual is None else bool(cert.residual < cfg.cert_tol),
    }


def record_instance(ms):
    """The sha256 of an instance's matrices, with their shape."""
    stack = np.ascontiguousarray(ms, dtype=complex)
    return {"sha256": hashlib.sha256(repr(stack.shape).encode() + stack.tobytes()).hexdigest()}


def record_cli(path, command):
    """The exit code, stderr and stdout digest of one ``realform`` command
    on the document at ``path``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, path])
    return {"exit": code, "stderr": err.getvalue(),
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def dump(limit=None):
    """Every op of the identity set, keyed workload/seed/instance/method,
    boundary/sweep/cell/seed/method and cli/workload/seed/instance/command,
    and every instance, keyed instance/workload/seed/instance and
    instance/boundary/sweep/cell/seed."""
    ops = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        for name, workload in workloads.WORKLOADS.items():
            for seed in SEEDS:
                for i, spec in enumerate(workloads.specs(workload, seed, limit)):
                    ms = [np.asarray(m, dtype=complex) for m in generate(spec).matrices]
                    ops[f"instance/{name}/{seed}/{i}"] = record_instance(ms)
                    for method in FORCED_METHODS:
                        ops[f"{name}/{seed}/{i}/{method}"] = record_op(ms, method)
                    if workload.cli:
                        doc = workloads.document(workloads.Instance(ms, "", spec.k))
                        with open(path, "w") as fh:
                            fh.write(json.dumps(doc, sort_keys=True))
                        for command in CLI_COMMANDS:
                            ops[f"cli/{name}/{seed}/{i}/{command}"] = record_cli(path, command)
    for key, k, ms in boundary_instances(limit):
        ops[f"instance/boundary/{key}"] = record_instance(ms)
        for method in ("auto", "direct", "dim3" if k == 3 else "fg", "cross"):
            ops[f"boundary/{key}/{method}"] = record_op(ms, method)
    return ops


def compare(a, b):
    """Lines naming each op that is missing on one side or differs."""
    lines = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'the second' if key not in a else 'the first'} record")
        elif a[key] != b[key]:
            fields = sorted(f for f in set(a[key]) | set(b[key]) if a[key].get(f) != b[key].get(f))
            for f in fields:
                lines.append(f"{key}: {f}: {a[key].get(f)!r} != {b[key].get(f)!r}")
    return lines


def _without_values(op):
    if "stdout_sha256" in op:
        return {f: v for f, v in op.items() if f != "stdout_sha256"}
    if "conditions" not in op:
        return op
    return {**op, "conditions": [c[:3] for c in op["conditions"]]}


def value_changes(a, b, cr_tol=DEFAULT_TOLERANCES.cr_tol):
    """The largest change of a condition value between ops that agree on all
    else, as (change, op key, condition name) or None: relative among the
    values above cr_tol, absolute among the defects at or below it."""
    above = below = None
    for key in sorted(set(a) & set(b)):
        if _without_values(a[key]) != _without_values(b[key]):
            continue
        for ca, cb in zip(a[key].get("conditions", ()), b[key].get("conditions", ())):
            va, vb = complex(*ca[3]), complex(*cb[3])
            size = max(abs(va), abs(vb))
            change = 0.0 if va == vb else abs(va - vb)
            if change != change:   # an infinite value changed
                change = float("inf")
            if size > cr_tol:
                change /= size
                if above is None or change > above[0]:
                    above = (change, key, ca[0])
            elif below is None or change > below[0]:
                below = (change, key, ca[0])
    return above, below


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="record every op into OUT")
    d.add_argument("out")
    d.add_argument("--limit", type=int, default=None,
                   help="use only this many instances of each benchmark set, evenly spaced "
                        "over the design, and this many seeds of each boundary cell")
    for name, text in (("compare", "print the ops that differ between two records"),
                       ("values", "as compare, but report condition values as changes, not differences")):
        c = sub.add_parser(name, help=text)
        c.add_argument("a")
        c.add_argument("b")
    args = p.parse_args(argv)

    if args.command == "dump":
        ops = dump(args.limit)
        with open(args.out, "w") as fh:
            json.dump(ops, fh, indent=0, sort_keys=True)
        print(f"{len(ops)} ops written to {args.out}")
        return 0
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    if args.command == "values":
        lines = compare({k: _without_values(op) for k, op in a.items()},
                        {k: _without_values(op) for k, op in b.items()})
        for what, largest in zip(("relative change of values above cr_tol",
                                  "absolute change of defects at or below cr_tol"),
                                 value_changes(a, b)):
            print(f"largest {what}: " + ("none" if largest is None else
                                          "{:.3g} ({}, {})".format(*largest)))
    else:
        lines = compare(a, b)
    for line in lines:
        print(line)
    print(f"{len(set(a) | set(b))} ops compared, {len({l.split(':')[0] for l in lines})} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
