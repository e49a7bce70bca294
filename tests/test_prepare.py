"""decide.prepare runs one stacked spectral pass over a collection: it must give
what the per-matrix loop gives, eigendata and classes bit for bit, and raise
what that loop raises, for the first failing matrix in index order.  The
shape rule comes first: an empty collection, or one of mismatched shapes,
raises before any matrix is decomposed, in every function that reads a
collection.  No ProjPoint is built: the pass and every route read the
stacked arrays alone."""

import contextlib
import importlib
import io
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realform import cli
from realform.config import DEFAULT_TOLERANCES
from realform.decide import decide, decide_direct, prepare, verify_certificate
from realform.errors import IncompatibleEigenvalues, NoConjugation, RealformError
from realform.flags import Flag
from realform.oracle import InstanceSpec, brute_rform_search, generate
from realform.projlin import EigenSystem, ProjPoint, eig
from realform.spectrum import KIND_INCOMPATIBLE, classify_eigenvalues

from conftest import eigensystem, random_invertible
from test_projlin import reference_eig


def reference_prepare(ms, cfg=DEFAULT_TOLERANCES):
    """The shape rule first, an empty collection or one of mismatched shapes
    raising before any matrix is decomposed; then one matrix at a time, the
    loop the stacked pass replaced, with every per-matrix error named by its
    matrix."""
    if not ms:
        raise ValueError("empty collection")
    if len({np.shape(m) for m in ms}) > 1:
        raise ValueError("matrices have mismatched dimensions")
    out = []
    for idx, m in enumerate(ms):
        try:
            es = reference_eig(m, cfg)
        except (ValueError, RealformError) as exc:
            raise type(exc)(f"matrix {idx}: {exc}") from exc
        sc = classify_eigenvalues(es.eigenvalues, cfg)
        if sc.kind == KIND_INCOMPATIBLE:
            raise IncompatibleEigenvalues(
                f"matrix {idx}: eigenvalues admit no organizing real line")
        out.append((es, sc))
    return out


def _bits(es, sc):
    """Everything prepare reports of one generator, floats by their bits."""
    return (es.matrix.tobytes(), es.eigenvalues.tobytes(),
            [d.coords.tobytes() for d in es.directions],
            sc.compatible, sc.generic, sc.kind, [t.hex() for t in sc.line_angles],
            [(lab.theta.hex(), lab.labels, lab.pairing) for lab in sc.labelings])


def _outcome(fn, ms):
    try:
        got = fn(ms)
    except Exception as exc:  # the exception type and message are part of the outcome
        return type(exc), str(exc)
    return [_bits(*pair) for pair in got]


def _prepare_pairs(ms):
    return [(eigensystem(info), info.sclass) for info in prepare(ms)]


def _spectrum(kind, k, rng):
    """k eigenvalues organized by a random line, or a random spectrum."""
    line = np.exp(1j * rng.uniform(0, np.pi))
    mags = rng.permutation(np.linspace(0.4, 3.0, k))   # distinct: no repeated values
    if kind == "plus_minus_i":
        # +-s*i and +-r on one line: two admissible lines, so two labelings
        vals = [mags[0] * 1j, -mags[0] * 1j]
        vals += [mags[1 + i // 2] * (-1) ** i for i in range(k - 2)]
        return np.array(vals[:k]) * line
    if kind == "random":
        return mags * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
    n_pairs = {"hyperbolic": 0, "elliptic": k // 2, "mixed": int(rng.integers(1, k // 2 + 1))}[kind]
    vals = []
    for i in range(n_pairs):
        lam = mags[i] * np.exp(1j * rng.uniform(0.1, np.pi - 0.1)) * line
        vals += [lam, line ** 2 * np.conj(lam)]
    vals += list(mags[n_pairs:k - n_pairs] * rng.choice([-1, 1], k - 2 * n_pairs) * line)
    return np.array(vals)


@st.composite
def collections(draw):
    k = draw(st.integers(2, 8))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["hyperbolic", "elliptic", "mixed", "plus_minus_i"] * 4 + ["random"])
    ms = []
    for _ in range(n):
        v = random_invertible(rng, k)
        ms.append(v @ np.diag(_spectrum(draw(kinds), k, rng)) @ np.linalg.inv(v))
    return ms


@given(collections())
@settings(max_examples=150, deadline=None)
def test_matches_the_per_matrix_loop(ms):
    assert _outcome(_prepare_pairs, ms) == _outcome(reference_prepare, ms)


def test_plus_minus_i_has_two_labelings(rng):
    v = random_invertible(rng, 4)
    m = v @ np.diag([1j, -1j, 2, -2]) @ np.linalg.inv(v)
    (info,) = prepare([m])
    assert len(info.sclass.labelings) == 2 and not info.generic
    assert _outcome(_prepare_pairs, [m, m]) == _outcome(reference_prepare, [m, m])


# ---------------------------------------------------------------------------
# error order: the first failing matrix in index order wins, whatever gate
# a later matrix fails; a collection of mismatched shapes fails the shape
# rule before any matrix is decomposed

def _conj(rng, lams):
    v = random_invertible(rng, len(lams))
    return v @ np.diag(lams) @ np.linalg.inv(v)


def _failing_matrices(rng):
    nonfinite = _conj(rng, [1.0, 2.0, -3.0])
    nonfinite[0, 1] = np.nan
    return {
        "nonfinite": nonfinite,
        "singular": _conj(rng, [1.0, 2.0, 0.0]),
        "repeated": _conj(rng, [1.0, 1.0, 2.0]),
        "nondiagonalizable": _conj(rng, [1.5, 2.5, -3.5]),   # its eig is spoiled below
        "incompatible": _conj(rng, [2j, 1.0, 3.0]),
        "mismatched": _conj(rng, [1.0, 2.0, -3.0, 4.0]),
    }


def _named(outcome):
    """The raised type and the matrix its message names."""
    typ, message = outcome
    return typ, re.match(r"(matrix \d+: )?", message).group(0)


@pytest.mark.parametrize("early, late", itertools.product(
    ["nonfinite", "singular", "repeated", "nondiagonalizable", "incompatible", "mismatched"],
    repeat=2))
def test_first_failing_matrix_wins(rng, monkeypatch, early, late):
    bad = _failing_matrices(rng)
    good = [_conj(rng, [1.0, 2.0, -3.0]) for _ in range(3)]
    spoiled = bad["nondiagonalizable"]
    true_eig = np.linalg.eig

    def spoiling_eig(a):
        lam, vecs = true_eig(a)
        if a.shape[-2:] == spoiled.shape:
            hit = (a == spoiled).all(axis=(-2, -1))
            vecs = np.where(hit[..., None, None], vecs + 0.5, vecs)
        return lam, vecs

    monkeypatch.setattr(np.linalg, "eig", spoiling_eig)
    ms = [good[0], bad[early], good[1], bad[late], good[2]]
    want = _outcome(reference_prepare, ms)
    assert isinstance(want, tuple)
    assert _named(_outcome(_prepare_pairs, ms)) == _named(want)


def test_empty_collection():
    assert _outcome(_prepare_pairs, []) == (ValueError, "empty collection")


def _refuse_eig(monkeypatch):
    def refuse(a):
        raise AssertionError("a matrix was decomposed")

    monkeypatch.setattr(np.linalg, "eig", refuse)


@pytest.mark.parametrize("call", [prepare, decide, lambda ms: verify_certificate(ms, np.eye(3))],
                         ids=["prepare", "decide", "verify_certificate"])
def test_mismatched_shapes_raise_before_any_decomposition(rng, monkeypatch, call):
    # the first matrix is singular, a gate it would fail once decomposed
    ms = [_conj(rng, [1.0, 2.0, 0.0]), _conj(rng, [1.0, 2.0, -3.0, 4.0])]
    _refuse_eig(monkeypatch)
    with pytest.raises(ValueError, match="^matrices have mismatched dimensions$") as err:
        call(ms)
    assert err.type is ValueError


def test_search_meets_the_shape_rule_before_eig(rng, monkeypatch):
    ms = [_conj(rng, [1.0, 0.0]), _conj(rng, [1.0, 2.0, -3.0])]
    _refuse_eig(monkeypatch)
    with pytest.raises(ValueError, match="^matrices have mismatched dimensions$"):
        brute_rform_search(ms, grid=10, refine=1)
    with pytest.raises(ValueError, match=r"^matrix 0: the search needs 2x2 matrices, "
                                         r"got shape \(3, 3\)$"):
        brute_rform_search(ms[1:] * 2, grid=10, refine=1)


def test_verify_certificate_of_an_empty_collection():
    with pytest.raises(ValueError, match="^empty collection$"):
        verify_certificate([], np.eye(2))


def test_every_gate_names_its_matrix(rng):
    ms = [_conj(rng, [1.0, 2.0, -3.0]) for _ in range(6)]
    ms[4] = _conj(rng, [1.0, 2.0, 0.0])
    with pytest.raises(ValueError, match=r"^matrix 4: matrix is singular within deg_tol$"):
        prepare(ms)
    ms[4] = np.eye(3)
    ms[4][0, 0] = np.inf
    with pytest.raises(ValueError, match=r"^matrix 4: matrix has non-finite entries$"):
        prepare(ms)


def _counting(calls, name):
    fn = getattr(np.linalg, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_one_eig_and_two_batched_svds(monkeypatch):
    # one SVD gates singular input, one measures every eigenbasis
    inst = generate(InstanceSpec(k=8, n_generators=6, type_mix={"hyperbolic": 3, "mixed": 3},
                                 seed=5))
    calls = []
    for name in ("eig", "svd"):
        monkeypatch.setattr(np.linalg, name, _counting(calls, name))
    assert len(prepare(inst.matrices)) == 6
    assert sorted(calls) == ["eig", "svd", "svd"]


def test_base_order_reads_the_measured_eigenbases(monkeypatch):
    # the anchor is the best-conditioned eigenbasis, read from prepare's
    # measurement: ordering takes no SVD of its own
    inst = generate(InstanceSpec(k=6, n_generators=4, type_mix={"hyperbolic": 2, "mixed": 2},
                                 seed=3))
    infos = prepare(inst.matrices)
    calls, solved = [], []

    def solve(directions, partners, cfg):
        solved.append(directions)
        raise NoConjugation("stub")

    # the package exports a function named decide, so fetch the module
    monkeypatch.setattr(importlib.import_module("realform.decide"), "conjugation_witness", solve)
    monkeypatch.setattr(np.linalg, "svd", _counting(calls, "svd"))
    decide_direct(None, infos=infos)
    assert calls == []
    # the generator whose eigendirections fill each block of k rows
    order = [next(info.index for info in infos
                  if sorted(map(tuple, block)) == sorted(map(tuple, info.rows)))
             for block in solved[0].reshape(len(infos), 6, 6)]
    assert order == [1, 0, 2, 3]
    assert infos[order[0]].frame_rcond == max(info.frame_rcond for info in infos)


def _count_points(monkeypatch):
    """The ProjPoints built from canonical rows, those built by the
    constructor (Flags counted with them), and the rows of every
    EigenSystem built."""
    rows, built, systems = [], [], []
    canonical, from_rows = ProjPoint.canonical.__func__, EigenSystem.from_rows.__func__
    init, flag_init = ProjPoint.__init__, Flag.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_flag_init(self, *args, **kwargs):
        built.append(args)
        flag_init(self, *args, **kwargs)

    monkeypatch.setattr(ProjPoint, "__init__", counting_init)
    monkeypatch.setattr(Flag, "__init__", counting_flag_init)
    monkeypatch.setattr(ProjPoint, "canonical", classmethod(
        lambda cls, coords: rows.append(coords) or canonical(cls, coords)))
    monkeypatch.setattr(EigenSystem, "from_rows", classmethod(
        lambda cls, lam, r, m: systems.append(r.tobytes()) or from_rows(cls, lam, r, m)))
    return rows, built, systems


_MIXED_K4 = InstanceSpec(k=4, n_generators=4, type_mix={"hyperbolic": 2, "elliptic": 1, "mixed": 1},
                         seed=11)


def test_direct_builds_no_projective_point(monkeypatch):
    ms = generate(_MIXED_K4).matrices
    rows, built, systems = _count_points(monkeypatch)
    verdict, _ = decide(ms, method="direct")
    assert verdict.answer == "yes"
    assert rows == built == systems == []


def test_cli_classify_builds_no_projective_point(monkeypatch, tmp_path):
    ms = generate(_MIXED_K4).matrices
    doc = {"k": 4, "options": {},
           "matrices": [[[[z.real, z.imag] for z in row] for row in m] for m in ms]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rows, built, systems = _count_points(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["classify", str(path)]) == 0
    assert len(json.loads(out.getvalue())["classifications"]) == 4
    assert rows == built == systems == []


_POINT_FREE_OPS = {
    "cross": (_MIXED_K4, "cross"),
    "fg": (InstanceSpec(k=4, n_generators=3, type_mix={"hyperbolic": 3}, seed=4), "fg"),
    "fg-mirrored": (InstanceSpec(k=5, n_generators=4, type_mix={"hyperbolic": 2, "mixed": 2},
                                 seed=1), "fg"),
    "dim3": (InstanceSpec(k=3, n_generators=3, type_mix={"hyperbolic": 2, "elliptic": 1},
                          seed=9), "dim3"),
    "dim3-synthetic": (InstanceSpec(k=3, n_generators=3, type_mix={"hyperbolic": 1, "mixed": 2},
                                    seed=11), "auto"),
    "dim2": (InstanceSpec(k=2, n_generators=4, type_mix={"hyperbolic": 2, "elliptic": 2},
                          seed=3), "dim2"),
    "dim2-elliptic": (InstanceSpec(k=2, n_generators=3, type_mix={"hyperbolic": 1, "elliptic": 2},
                                   seed=3), "dim2"),
}


@pytest.mark.parametrize("op", _POINT_FREE_OPS)
def test_routes_build_no_projective_point(monkeypatch, op):
    # every route reads the pass's arrays alone: no ProjPoint, Flag or EigenSystem
    spec, method = _POINT_FREE_OPS[op]
    ms = generate(spec).matrices
    rows, built, systems = _count_points(monkeypatch)
    verdict, cert = decide(ms, method=method)
    assert verdict.answer == "yes" and cert.conditions
    assert verdict.method == {"cross": "DimKCrossOnly", "fg": "DimKFG", "dim3": "Dim3FG",
                              "auto": "Dim3FG", "dim2": "Dim2Lemmas"}[method]
    assert rows == built == systems == []


@pytest.mark.parametrize("k", [2, 5])
def test_cli_coords_builds_no_projective_point(monkeypatch, tmp_path, k):
    spec = InstanceSpec(k=k, n_generators=3, type_mix={"hyperbolic": 3}, seed=2)
    doc = {"k": k, "options": {}, "matrices": [[[[z.real, z.imag] for z in row] for row in m]
                                               for m in generate(spec).matrices]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rows, built, systems = _count_points(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["coords", str(path)]) == 0
    # r3(A,B,C), r3(A,C,D) and both flags of the third generator, (k-1)(k-2)/2 quotients each
    doc = json.loads(out.getvalue())
    assert len(doc["cross_ratios"]) == 3 * (k - 1)
    assert len(doc["triple_ratios"]) == 4 * (k - 1) * (k - 2) // 2
    assert rows == built == systems == []


def test_generator_slices_are_its_eigensystem():
    # the slices of the stacked pass are what ``eig`` gives one matrix, bit for bit
    inst = generate(InstanceSpec(k=5, n_generators=3, type_mix={"hyperbolic": 2, "mixed": 1},
                                 seed=2))
    for info, m in zip(prepare(inst.matrices), inst.matrices):
        es = eig(m)
        assert es.eigenvalues.tobytes() == info.eigenvalues.tobytes()
        assert es.matrix.tobytes() == info.matrix.tobytes()
        assert [p.coords.tobytes() for p in es.directions] == [r.tobytes() for r in info.rows]
