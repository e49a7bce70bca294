"""The benchmark's tracer wraps library names by module global: each one it
names must exist, or every traced op of the benchmark fails."""

import importlib
import sys
from pathlib import Path

from realform.oracle import InstanceSpec, generate

ROOT = Path(__file__).resolve().parents[1]
# every module whose globals the tracer wraps
MODULES = ("realform.decide", "realform.flags", "realform.coords", "realform.cli")


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import spans

    modules = {name: vars(importlib.import_module(name)).copy() for name in MODULES}
    inst = generate(InstanceSpec(k=4, n_generators=3, type_mix={"hyperbolic": 3}, seed=11))
    tracer = spans.Tracer()
    try:   # a failed install leaves what it wrapped so far: undo that too
        tracer.install()
        verdict, _ = tracer.op("glue", sys.modules["realform.decide"].decide, inst.matrices)
    finally:
        tracer.uninstall()
    assert verdict.answer == "yes"
    per_op = tracer.per_op()
    # prepare decomposes the three generators in one stacked numpy eig
    assert per_op["decide.route.fg.verdicts"] == 1 and per_op["numpy.eig.calls"] == 1
    # every wrapped global is back as it was
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[key] is value for key, value in before.items())
