"""No decide path and no CLI command reaches a reference.

The references are the paper's definitions, kept in ``src`` for the
tests that compare the closed forms against them: the flag builders and
quotients of ``flags``, the scalar cross and triple ratios of
``coords``, the one-matrix ``eig`` and the one-spectrum classifiers.
Each is replaced, in every module that binds it, by a stub that records
the call and raises an exception no library code catches; then every
method and the ``classify``, ``coords`` and ``decide`` commands run on
typed oracle collections at k = 2-8.
"""

import contextlib
import io
import json
import sys

import pytest

from realform import cli
from realform.decide import FORCED_METHODS, decide
from realform.errors import InfeasibleSpec, RealformError
from realform.oracle import InstanceSpec, generate

# defining module -> its references
REFERENCES = {
    "realform.flags": ("make_flag", "point_flag", "flag_pair_from_eigensystem", "mirrored_pair_flag",
                       "generic_position", "generic_with_point", "quotient_cp1", "quotient_cp2"),
    "realform.coords": ("cross_ratio", "fg_cross_ratio", "cross_ratio_set", "triple_ratio",
                        "triple_ratio_cp2", "triple_ratio_set"),
    "realform.projlin": ("eig",),
    "realform.spectrum": ("classify_eigenvalues", "type_transformation"),
}

# each mix once as an oracle Yes, and "hyperbolic" also perturbed off real (a No)
TYPE_MIXES = (
    {"hyperbolic": 3},
    {"hyperbolic": 2, "elliptic": 1},
    {"hyperbolic": 1, "mixed": 2},
    {"hyperbolic": 2, "elliptic": 1, "mixed": 1},
    {"elliptic": 2, "mixed": 1},
)


class ReachedReference(BaseException):
    """Raised by a stub: a BaseException, so no ``except Exception`` hides it."""


def _collections():
    out = []
    for k in range(2, 9):
        for n, mix in enumerate(TYPE_MIXES):
            for perturbation in (None, (1, 1e-3)) if n == 0 else (None,):
                spec = InstanceSpec(k=k, n_generators=sum(mix.values()), type_mix=mix, seed=k + 10 * n,
                                    perturbation=perturbation)
                try:
                    out.append((k, generate(spec).matrices))
                except InfeasibleSpec:   # elliptic needs even k (or k = 3), mixed k >= 3
                    pass
    return out


def _stub_references(monkeypatch, reached):
    """Replace each reference by a stub in every realform module bound to it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "realform" or name.startswith("realform.")]
    for home, names in REFERENCES.items():
        for name in names:
            original = getattr(sys.modules[home], name)

            def stub(*args, _name=name, **kwargs):
                reached.append(_name)
                raise ReachedReference(_name)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, stub)


def test_no_path_reaches_a_reference(monkeypatch, tmp_path):
    collections = _collections()
    assert {k for k, _ in collections} == set(range(2, 9))
    paths = []
    for n, (k, ms) in enumerate(collections):
        path = tmp_path / f"doc{n}.json"
        path.write_text(json.dumps({"k": k, "options": {}, "matrices": [
            [[[z.real, z.imag] for z in row] for row in m.tolist()] for m in ms]}))
        paths.append(path)
    reached, answers, codes = [], set(), set()
    _stub_references(monkeypatch, reached)
    for (_, ms), path in zip(collections, paths):
        for method in FORCED_METHODS:
            try:
                answers.add(decide(ms, method=method)[0].answer)
            except RealformError as exc:
                answers.add(type(exc).__name__)
        for command in ("classify", "coords", "decide"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.add(cli.main([command, str(path)]))
    assert reached == []
    # the ops decided both ways and failed some preconditions
    assert {"yes", "no"} <= answers and len(answers) > 2
    assert {0, 1} <= codes and len(codes) > 2


def test_a_reached_stub_is_seen(monkeypatch):
    # stubbed in its own module and where another module binds it (eig in the package)
    reached = []
    _stub_references(monkeypatch, reached)
    with pytest.raises(ReachedReference):
        sys.modules["realform.flags"].point_flag([1.0, 2.0])
    assert reached == ["point_flag"]
    with pytest.raises(ReachedReference):
        sys.modules["realform"].eig([[1.0, 0.0], [0.0, 2.0]])
    assert reached == ["point_flag", "eig"]
