"""Fixed-seed instance sets for the three benchmark workloads.

Each workload is a factorial design: every cell (k, generator count,
type mix, answer) appears ``reps`` times in every instance set, so the
mix of work in one pass does not depend on the seed.  The seed draws
which generator each No instance perturbs and the oracle seed that
realizes the matrices.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

PERTURBATION = 0.05
GENERATOR_COUNTS = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class Workload:
    name: str
    ks: tuple
    method: str          # decide(method=...) for library ops, --method for CLI ops
    cli: bool            # ops are CLI documents rather than decide calls
    reps: int            # oracle realizations of every design cell


WORKLOADS = {
    "auto_highk": Workload("auto_highk", (6, 7, 8), "auto", False, 2),
    "direct_allk": Workload("direct_allk", (2, 3, 4, 5, 6, 7, 8), "direct", False, 1),
    "cli_docs": Workload("cli_docs", (2, 3, 4), "auto", True, 1),
}


@dataclass(frozen=True)
class Instance:
    matrices: list
    answer: str
    k: int


def _allowed_types(k):
    """Generator types the oracle can realize at dimension k."""
    if k == 2:
        return ("hyperbolic", "elliptic")
    if k == 3 or k % 2 == 0:
        return ("hyperbolic", "elliptic", "mixed")
    return ("hyperbolic", "mixed")


def _type_mixes(workload, k, n):
    """Type mixes of one (k, n) cell; fixed by the design, not the seed."""
    if workload.name == "auto_highk":
        # hyperbolic and mixed generators, plus one elliptic at even k;
        # the fewest and the most mixed generators the cell allows
        ell = 1 if k % 2 == 0 and n >= 3 else 0
        counts = sorted({1, n - 1 - ell})
        return [{"hyperbolic": n - ell - m, "elliptic": ell, "mixed": m} for m in counts]
    # round-robin over the realizable types, one mix per starting type
    kinds = _allowed_types(k)
    mixes = []
    for start in range(2):
        mix = dict.fromkeys(kinds, 0)
        for g in range(n):
            mix[kinds[(start + g) % len(kinds)]] += 1
        mixes.append(mix)
    return mixes


def specs(workload, seed, limit=None):
    """The oracle specs of one instance set, in design order.

    The seed draws which generator each No instance perturbs and the
    oracle seed that realizes the matrices and the scramble.  ``limit``
    keeps that many specs, evenly spaced over the design.
    """
    from realform.oracle import InstanceSpec

    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    out = []
    for k in workload.ks:
        for n in GENERATOR_COUNTS:
            for mix in _type_mixes(workload, k, n):
                for answer in ("yes", "no") * workload.reps:
                    pert = (int(rng.integers(0, n)), PERTURBATION) if answer == "no" else None
                    out.append(InstanceSpec(k=k, n_generators=n, type_mix=mix,
                                            seed=int(rng.integers(2**63)), perturbation=pert))
    if limit is not None and limit < len(out):
        out = [out[i] for i in np.linspace(0, len(out) - 1, limit).round().astype(int)]
    return out


def send_order(seed, n):
    """Seeded order in which a pass sends the n instances.

    Shuffling spreads every part of the latency distribution over the
    whole pass, so machine-speed drift during a pass moves all quantiles
    alike instead of the ones of the cells sent at a slow moment.
    """
    return [int(i) for i in np.random.default_rng([seed, n]).permutation(n)]


def build(workload, seed, doc_dir, limit=None):
    """Generate the instance set and write its CLI documents into ``doc_dir``.

    Returns (instances, document paths, fingerprint, timings) where
    timings holds the seconds spent in the oracle and in writing.
    """
    from realform.oracle import generate

    instances = []
    t0 = time.perf_counter()
    for spec in specs(workload, seed, limit):
        inst = generate(spec)
        instances.append(Instance([np.asarray(m, dtype=complex) for m in inst.matrices],
                                  inst.answer, spec.k))
    t1 = time.perf_counter()
    digest = hashlib.sha256()
    paths = []
    for i, inst in enumerate(instances):
        digest.update(inst.answer.encode())
        for m in inst.matrices:
            digest.update(np.ascontiguousarray(m).tobytes())
        text = json.dumps(document(inst), sort_keys=True)
        digest.update(text.encode())
        path = os.path.join(doc_dir, f"doc{i:04d}.json")
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    t2 = time.perf_counter()
    return instances, paths, digest.hexdigest(), {"generate_s": t1 - t0, "write_s": t2 - t1}


def document(inst):
    """CLI input document: complex entries as [re, im] pairs."""
    return {
        "k": inst.k,
        "matrices": [[[[float(z.real), float(z.imag)] for z in row] for row in m]
                     for m in inst.matrices],
        "options": {},
    }
