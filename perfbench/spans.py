"""Per-layer spans and counts, placed from outside around realform's layers.

The wrappers replace the names that callers look up at call time (module
globals of ``realform.decide``, ``realform.flags``, ``realform.coords``
and ``realform.cli``, plus ``numpy.linalg.svd``/``eig``; during set-up,
``realform.oracle``), so the library itself is not edited.  Spans are
kept in memory as running totals: each layer's self time is its span's
duration minus the time its child spans cover, and the op's own span
collects the rest as glue.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np
from realform.errors import NoConjugation

ROUTES = {
    "decide_pgl2": "dim2",
    "decide_pgl3": "dim3",
    "decide_pglk_fg": "fg",
    "decide_pglk_cross_only": "cross",
    "decide_direct": "direct",
}

# module -> {global name: layer}; each layer's self time is reported
_LAYERS = {
    "realform.decide": {
        "eig": "projlin",
        "type_transformation": "spectrum",
        "generic_position": "flags",
        "generic_with_point": "flags",
        "flag_pair_from_eigensystem": "flags",
        "make_flag": "flags",
        "mirrored_pair_flag": "flags",
        "point_flag": "flags",
        "cross_ratio": "coords",
        "cross_ratio_set": "coords",
        "triple_ratio_set": "coords",
        "conjugation_witness": "rform",
        "realifier": "rform",
        "preserves": "rform",
        "verify_certificate": "certify",
        **dict.fromkeys(ROUTES, "glue"),
    },
    "realform.flags": {"generic_position": "flags"},
    "realform.coords": {
        "quotient_cp1": "flags",
        "quotient_cp2": "flags",
        "generic_with_point": "flags",
    },
    "realform.cli": {"decide": "glue"},
}

# traced while the instance set is built
SETUP_LAYERS = {"realform.oracle": {"brute_rform_search": "oracle"}}

# global name -> counter bumped once per call
_CALL_COUNTS = {
    "eig": "projlin.eig.calls",
    "type_transformation": "spectrum.classify.calls",
    "generic_position": "flags.generic_position.calls",
    "quotient_cp1": "flags.quotient.calls",
    "quotient_cp2": "flags.quotient.calls",
    "cross_ratio_set": "coords.cross_ratio_set.calls",
    "triple_ratio_set": "coords.triple_ratio_set.calls",
    "conjugation_witness": "rform.solve.calls",
    "verify_certificate": "decide.certify.calls",
}


_PER_OP_COUNTS = sorted(set(_CALL_COUNTS.values()) | {
    "rform.solve.no_conjugation", "numpy.svd.calls", "numpy.eig.calls",
    *(f"decide.route.{r}.{kind}" for r in ROUTES.values()
      for kind in ("attempts", "verdicts", "raised")),
})

_SELF_NAMES = {
    "projlin": "projlin.eig.self_ms",
    "spectrum": "spectrum.classify.self_ms",
    "flags": "flags.self_ms",
    "coords": "coords.self_ms",
    "rform": "rform.self_ms",
    "certify": "decide.certify.self_ms",
    "glue": "decide.glue.self_ms",
    "cli": "cli.overhead_ms",
}


class Tracer:
    """Running span totals for the ops sent while it is installed."""

    def __init__(self):
        self._stack = []                 # child seconds of each open span
        self._patches = []               # (owner, name, original)
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.route_s = defaultdict(float)  # route -> inclusive seconds
        self.counts = Counter()
        self.ops = 0

    # -- spans -----------------------------------------------------------

    def op(self, layer, fn, *args):
        """Run one op as the root span; its self time goes to ``layer``."""
        self.ops += 1
        return self._span(fn, args, {}, layer, None)

    def _span(self, fn, args, kwargs, layer, on_exit):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            raise
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            self.self_s[layer] += dur - child
            if self._stack:
                self._stack[-1] += dur
            if on_exit is not None:
                on_exit(result, exc, dur)

    def _wrap(self, fn, name, layer):
        counter = _CALL_COUNTS.get(name)
        route = ROUTES.get(name)

        def on_exit(result, exc, dur):
            if counter:
                self.counts[counter] += 1
            if name == "generic_position" and exc is None and result:
                self.counts["flags.generic_position.true"] += 1
            if name == "conjugation_witness" and isinstance(exc, NoConjugation):
                self.counts["rform.solve.no_conjugation"] += 1
            if route:
                self.route_s[route] += dur
                self.counts[f"decide.route.{route}.attempts"] += 1
                outcome = "raised" if exc is not None else "verdicts"
                self.counts[f"decide.route.{route}.{outcome}"] += 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(fn, args, kwargs, layer, on_exit)

        return wrapper

    def _count(self, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self, layers=None):
        """Wrap ``layers`` (module -> {name: layer}), by default every op
        layer plus the numpy counts; only traced work may run until
        ``uninstall``."""
        for modname, names in (layers or _LAYERS).items():
            module = sys.modules[modname]
            for name, layer in names.items():
                self._patch(module, name, self._wrap(getattr(module, name), name, layer))
        if layers is None:
            self._patch(np.linalg, "svd", self._count(np.linalg.svd, "numpy.svd.calls"))
            self._patch(np.linalg, "eig", self._count(np.linalg.eig, "numpy.eig.calls"))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- report ----------------------------------------------------------

    def per_op(self):
        """Per-op counts and self times (ms) of every traced layer."""
        n = max(self.ops, 1)
        out = {}
        for key in sorted(_PER_OP_COUNTS):
            out[key] = self.counts[key] / n
        calls = self.counts["flags.generic_position.calls"]
        out["flags.generic_position.true_ratio"] = (
            self.counts["flags.generic_position.true"] / calls if calls else 0.0)
        for layer, metric in _SELF_NAMES.items():
            out[metric] = 1e3 * self.self_s[layer] / n
        for route in ROUTES.values():
            out[f"decide.route.{route}.ms"] = 1e3 * self.route_s[route] / n
        return out
