#!/usr/bin/env python3
"""realform benchmark: one closed-loop client over the library and the CLI.

    python3 perfbench/run.py --workload auto_highk --seed 1 --seconds 32 --trace 0

Generates a fixed-seed oracle instance set, sends one op at a time
(a ``realform.decide`` call, or one CLI document through
``realform.cli.main``), checks every answer against the oracle truth and
prints two JSON lines: a run record (inputs fingerprint, machine, every
metric with unit and sample count, failures by kind) and, last, the
result object.  Times are scaled to a fixed machine speed measured by
``SpeedProbe``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` sends every op plain and traced back to back and reports
the per-layer metrics.  See perfbench/README.md.
"""

import os

# one BLAS/OpenMP thread, set before numpy is imported (children inherit it)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
COLD_START_TIMEOUT_S = 60
SETUP_REPS = 3      # builds of the instance set; setup_s takes the median
COLD_STARTS = 15    # sequential `python -m realform decide` children per traced run
PROBE_EVERY_S = 0.1  # op seconds between two speed probes
REF_PROBE_S = 1e-3   # probe time at reference speed; reported times are scaled to it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("auto_highk", "direct_allk", "cli_docs"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole passes until this many seconds have passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=None,
                   help="use only this many instances, evenly spaced over the design")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# correctness gate

def residual(ms, gamma):
    """Largest relative imaginary part of gamma^-1 M gamma, best phase per M.

    The benchmark's own check, independent of realform's verifier.
    """
    import numpy as np

    worst = 0.0
    for m in ms:
        n = np.linalg.solve(gamma, m @ gamma)
        w = np.sum(n * n)
        r = n * np.exp(-0.5j * np.angle(w)) if w != 0 else n
        worst = max(worst, float(np.abs(r.imag).max() / np.abs(r).max()))
    return worst


def check_answer(inst, answer, gamma, cert_tol):
    """None when the op is correct, else the failure kind."""
    if answer != inst.answer:
        return "wrong_answer"
    if answer == "yes":
        if gamma is None:
            return "no_certificate"
        if not residual(inst.matrices, gamma) < cert_tol:
            return "residual_not_below_cert_tol"
    return None


def check_cli_output(inst, code, stdout, cert_tol):
    import numpy as np

    expected = 0 if inst.answer == "yes" else 1
    if code != expected:
        return f"exit_code_{code}"
    try:
        doc = json.loads(stdout)
        gamma = doc["gamma"]
        if gamma is not None:
            gamma = np.array([[complex(*z) for z in row] for row in gamma])
        answer = doc["verdict"]
    except (ValueError, KeyError, TypeError):
        return "unreadable_output"
    return check_answer(inst, answer, gamma, cert_tol)


# ---------------------------------------------------------------------------
# machine speed

class SpeedProbe:
    """Times a fixed Python and numpy loop that does not use realform.

    On a shared 2-core VM the speed switched between two states about 1.5x
    apart, each lasting seconds to minutes, longer than a run.  Over 1 s
    windows the probe's time tracked the time of a decide at k = 6 with
    correlation 0.98, so an op's wall time divided by the probe time around
    it, times ``REF_PROBE_S``, is its time at a fixed reference speed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._b = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        self._linalg = np.linalg
        self.times = []

    def __call__(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        for _ in range(6):
            self._linalg.svd(self._a)
            self._linalg.eig(self._a)
            self._linalg.solve(self._a, self._b)
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def scaled(self, fn, *args):
        """Run ``fn``; returns (its result, its seconds at reference speed)."""
        before = self()
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        return result, dt * REF_PROBE_S / (0.5 * (before + self()))


# ---------------------------------------------------------------------------
# ops

class Client:
    """Sends one op at a time and records latency and failures."""

    def __init__(self, workload, instances, paths, order, cert_tol):
        import realform
        import realform.cli

        self.workload = workload
        self.instances = instances
        self.order = order
        self.paths = paths
        self.cert_tol = cert_tol
        self._decide = realform.decide
        self._cli_main = realform.cli.main
        self.latencies = []     # wall seconds of each plain send
        self.scaled = []        # the same, at reference speed
        self.failures = Counter()
        self.messages = {}      # failure kind -> first exception message
        self.attempted = 0

    def _call(self, i):
        if self.workload.cli:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._cli_main(["decide", self.paths[i], "--method", self.workload.method])
            return code, out.getvalue()
        return self._decide(self.instances[i].matrices, method=self.workload.method)

    def _check(self, i, result):
        inst = self.instances[i]
        if self.workload.cli:
            return check_cli_output(inst, *result, self.cert_tol)
        verdict, cert = result
        return check_answer(inst, verdict.answer, cert.gamma, self.cert_tol)

    def _send(self, i, tracer=None):
        """Send op ``i`` once, check its answer; returns its wall seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self._call(i)
            else:
                tracer.install()
                try:
                    result = tracer.op("cli" if self.workload.cli else "glue", self._call, i)
                finally:
                    tracer.uninstall()
        except Exception as exc:  # a failed op is counted, the run goes on
            dt = time.perf_counter() - t0
            kind = f"exception:{type(exc).__name__}"
            self.failures[kind] += 1
            self.messages.setdefault(kind, str(exc)[:300])
            return dt
        dt = time.perf_counter() - t0
        kind = self._check(i, result)
        if kind:
            self.failures[kind] += 1
        return dt

    def one_pass(self, probe):
        """Send every instance once, probing machine speed every
        ``PROBE_EVERY_S`` of op time; each op is scaled by the mean of the
        probes before and after it."""
        gc.collect()
        before, pending = probe(), []
        for turn, i in enumerate(self.order, 1):
            pending.append(self._send(i))
            if turn == len(self.order) or sum(pending) >= PROBE_EVERY_S:
                after = probe()
                factor = REF_PROBE_S / (0.5 * (before + after))
                self.latencies.extend(pending)
                self.scaled.extend(dt * factor for dt in pending)
                before, pending = after, []

    def paired_pass(self, tracer):
        """Send every instance plain and traced back to back, alternating
        which goes first, so machine-speed drift cancels in the overhead.
        Returns the summed (plain, traced) op seconds."""
        gc.collect()
        plain = traced = 0.0
        for turn, i in enumerate(self.order):
            for with_trace in ((False, True) if turn % 2 == 0 else (True, False)):
                if with_trace:
                    traced += self._send(i, tracer)
                else:
                    plain += self._send(i)
        return plain, traced


class ColdStarts:
    """Fresh `python -m realform decide <doc>` children, one at a time.

    Every child decides the first document of the design (the smallest k,
    two generators, a Yes), so a cold start is import plus a small decide.
    """

    def __init__(self, workload, instance, path, count, cert_tol, failures):
        self.argv = [sys.executable, "-m", "realform", "decide", path, "--method", workload.method]
        self.instance = instance
        self.count = count
        self.cert_tol = cert_tol
        self.failures = failures
        self.times = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run_until(self, share):
        """Run children until ``share`` of ``count`` have run."""
        while len(self.times) < min(self.count, math.ceil(share * self.count)):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(self.argv, cwd=ROOT, env=self.env, capture_output=True,
                                      text=True, timeout=COLD_START_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
            self.times.append(time.perf_counter() - t0)
            kind = ("timeout" if proc is None else
                    check_cli_output(self.instance, proc.returncode, proc.stdout, self.cert_tol))
            if kind:
                self.failures[f"cold_start:{kind}"] += 1


# ---------------------------------------------------------------------------
# run record

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "realform").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(loadavg_start):
    import numpy as np

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "loadavg_start": loadavg_start,
        "loadavg_end": _loadavg(),
    }


def p90(samples):
    """Nearest-rank 90th percentile, and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    loadavg_start = _loadavg()
    if not (SRC / "realform" / "__init__.py").is_file():
        print(f"error: no realform sources under {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    import numpy as np  # noqa: F401
    t1 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import realform
    import realform.cli  # noqa: F401
    t2 = time.perf_counter()
    probe = SpeedProbe()
    probe()                 # the first call pays numpy's lazy LAPACK set-up
    import_s = (t2 - t0) * REF_PROBE_S / probe()
    if Path(realform.__file__).resolve().parent != (SRC / "realform").resolve():
        print(f"error: realform imported from {realform.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work_dir = tempfile.mkdtemp(prefix="_work-", dir=Path(__file__).resolve().parent)
    try:
        return run(args, work_dir, probe, import_s, 1e3 * (t2 - t1), loadavg_start)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir, probe, import_s, cli_import_ms, loadavg_start):
    """Set up, measure and print the run record and the result."""
    import realform
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    cert_tol = realform.DEFAULT_TOLERANCES.cert_tol
    failures = Counter()

    # set-up: build the instance set several times, keep the last build
    setup_times, oracle_s, brute_s, fingerprints = [], [], [], set()
    for rep in range(SETUP_REPS):
        doc_dir = os.path.join(work_dir, f"docs{rep}")
        os.mkdir(doc_dir)
        setup_tracer = spans.Tracer()
        setup_tracer.install(spans.SETUP_LAYERS)
        try:
            (instances, paths, fingerprint, timing), build_s = probe.scaled(
                workloads.build, workload, args.seed, doc_dir, args.limit)
            setup_times.append(build_s)
        finally:
            setup_tracer.uninstall()
        oracle_s.append(timing["generate_s"])
        brute_s.append(setup_tracer.self_s["oracle"])
        fingerprints.add(fingerprint)
    if len(fingerprints) != 1:
        failures["inputs_not_reproducible"] += 1

    client = Client(workload, instances, paths,
                    workloads.send_order(args.seed, len(instances)), cert_tol)
    tracer = spans.Tracer() if args.trace else None
    plain_s, traced_s = [], []
    # cold starts run in traced runs only, spread over the measured window
    cold = ColdStarts(workload, instances[0], paths[0], COLD_STARTS if args.trace else 0,
                      cert_tol, failures)
    start = time.perf_counter()
    n_pass = 0
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            client.one_pass(probe)
        else:
            plain, traced = client.paired_pass(tracer)
            plain_s.append(plain)
            traced_s.append(traced)
        n_pass += 1
        cold.run_until((time.perf_counter() - start) / args.seconds)
        # stop before a pass that would end past the window
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    cold.run_until(1.0)

    failures.update(client.failures)
    attempted = client.attempted + len(cold.times)
    failed = sum(failures.values())

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": len(instances),
        "inputs_sha256": sorted(fingerprints),
        "passes": n_pass,
        "setup": {"import_s": import_s, "build_s": setup_times},
        "cold_start_ms": [1e3 * t for t in cold.times],
        "attempted": attempted,
        "failed": failed,
        "failures": dict(sorted(failures.items())),
        "failure_messages": client.messages,
        "fail_share": {"value": failed / attempted, "unit": "ratio", "samples": attempted},
        "machine": machine_record(loadavg_start),
    }

    if args.trace:
        per_op = tracer.per_op()
        per_op["oracle.generate.s"] = statistics.median(oracle_s)
        per_op["oracle.brute_search.s"] = statistics.median(brute_s)
        per_op["cli.import_ms"] = cli_import_ms
        per_op["trace.overhead"] = sum(traced_s) / sum(plain_s)
        per_op["cli.cold_start_ms"] = 1e3 * statistics.median(cold.times)
        values = {name: (value, tracer.ops) for name, value in sorted(per_op.items())}
    else:
        lat_ms = [1e3 * t for t in client.scaled]
        p90_ms, beyond = p90(lat_ms)
        values = {
            "latency_p50_ms": (statistics.median(lat_ms), len(lat_ms)),
            "latency_p90_ms": (p90_ms, len(lat_ms)),
            "ops_per_s": (len(lat_ms) / sum(client.scaled), len(lat_ms)),
            "pass_share": (1.0 - failed / attempted, attempted),
            "setup_s": (import_s + statistics.median(setup_times), len(setup_times)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        record["latency_p90_samples_beyond"] = beyond
        wall_ms = [1e3 * t for t in client.latencies]
        record["wall"] = {"latency_p50_ms": statistics.median(wall_ms),
                          "latency_p90_ms": p90(wall_ms)[0],
                          "ops_per_s": len(wall_ms) / sum(client.latencies)}
    record["probe_ms"] = {q: 1e3 * f(probe.times) for q, f in
                          (("min", min), ("median", statistics.median), ("max", max))}
    record["probes"] = len(probe.times)

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from {SPEC.name}: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": v, "unit": units[name]} for name, (v, _) in values.items()}
    record["metrics"] = {name: dict(metrics[name], samples=n) for name, (_, n) in values.items()}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
