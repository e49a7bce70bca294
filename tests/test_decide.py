import importlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realform.decide import (
    METHOD_CROSS,
    METHOD_DIM2,
    METHOD_DIM3,
    METHOD_DIRECT,
    METHOD_FG,
    FORCED_METHODS,
    INCONCLUSIVE,
    Verdict,
    _cross_conditions,
    condition_functions_pgl2,
    decide,
    decide_direct,
    decide_pgl2,
    decide_pglk_cross_only,
    prepare,
    verify_certificate,
)
from realform.config import DEFAULT_TOLERANCES
from realform.errors import (
    DegenerateTriple,
    GenericityViolation,
    IncompatibleEigenvalues,
    NumericalDegeneracy,
    RealformError,
    RepeatedEigenvalues,
    SharedEigendirections,
    SpectralPreconditionError,
)
from realform.flags import flag_pair_from_eigensystem, make_flag
from realform.oracle import InstanceSpec, generate
from realform.projlin import ProjPoint, proj_dist
from realform.rform import Multiplicity

from conftest import (eigensystem, load_script, no_common_circle_pair, random_invertible,
                      unit_circle_collection)

# the boundary sweeps' recipes, shared with the identity check's boundary section
_sweeps = load_script("identity_check")
conditioned_yes, perturbed = _sweeps.conditioned_yes, _sweeps.perturbed


def is_proj_real(v, tol=1e-8):
    p = ProjPoint(v)
    w = p.coords
    s = np.exp(-1j * np.angle(w[np.argmax(np.abs(w))]))
    return np.max(np.abs((s * w).imag)) < tol


class TestGoldenCollections:
    def test_unit_circle_collection_yes(self):
        ms = unit_circle_collection()
        verdict, cert = decide(ms)
        assert verdict.answer == "yes"
        assert verdict.method == METHOD_DIM2
        assert cert.residual < 1e-8
        inv = np.linalg.inv(cert.gamma)
        for z in (1, -1, 1j):
            assert is_proj_real(inv @ np.array([z, 1.0]))

    def test_no_common_circle_pair(self):
        verdict, cert = decide(no_common_circle_pair())
        assert verdict.answer == "no"
        assert verdict.multiplicity is Multiplicity.ZERO
        # the failing coordinate is the positive-real condition at -1
        failing = [c for c in cert.conditions if not c.passed]
        assert failing and abs(failing[0].value + 1) < 1e-9

    def test_incompatible_raises(self):
        with pytest.raises(IncompatibleEigenvalues):
            decide([np.diag([2j, 1.0])])

    def test_repeated_raises(self):
        with pytest.raises(RepeatedEigenvalues):
            decide([np.eye(2)])


class TestDim2:
    def test_two_hyperbolic_concyclic(self):
        # fixed points 0, inf and 1, -1 all on the extended real line
        m1 = np.diag([2.0, 1.0])
        v = np.array([[1.0, -1.0], [1.0, 1.0]])
        m2 = v @ np.diag([3.0, 1.0]) @ np.linalg.inv(v)
        verdict, cert = decide_pgl2([m1, m2])
        assert verdict.answer == "yes" and cert.residual < 1e-10

    def test_two_hyperbolic_not_concyclic(self):
        m1 = np.diag([2.0, 1.0])
        v = np.array([[1.0, 1j + 0.5], [1.0, 1.0]])
        m2 = v @ np.diag([3.0, 1.0]) @ np.linalg.inv(v)
        # fixed points 0, inf, 1, 1j + 0.5 are not concyclic
        verdict, _ = decide_pgl2([m1, m2])
        assert verdict.answer == "no"

    def test_rotations_with_interleaved_axes(self):
        # fixed points (inf, 0) and (1, -1): any circle about the origin
        # fails to invert the second pair
        m1 = np.diag([1 + 2j, 1 - 2j])
        v = np.array([[1.0, -1.0], [1.0, 1.0]])
        m2 = v @ np.diag([1 + 1j, 1 - 1j]) @ np.linalg.inv(v)
        verdict, _ = decide_pgl2([m1, m2])
        assert verdict.answer == "no"

    def test_hyperbolic_plus_rotation_equal_moduli(self):
        m1 = np.diag([2.0, 1.0])
        z, w = np.exp(0.8j), np.exp(-2.1j)   # equal moduli: reflection swaps them
        v = np.array([[z, w], [1.0, 1.0]])
        m2 = v @ np.diag([1 + 1j, 1 - 1j]) @ np.linalg.inv(v)
        verdict, cert = decide_pgl2([m1, m2])
        assert verdict.answer == "yes" and cert.residual < 1e-9

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_rotation_sharing_a_base_axis(self, seed):
        # the inverse of a base rotation keeps every circle that base keeps:
        # its condition against that base, cr = 0/x, must not be read
        ms = generate(InstanceSpec(2, 2, {"elliptic": 2}, seed=seed)).matrices
        ms = [*ms, np.linalg.inv(ms[1])]
        for method in ("auto", "dim2"):
            verdict, cert = decide(ms, method=method)
            assert verdict == Verdict("yes", Multiplicity.ONE, METHOD_DIM2), method
            assert cert.residual < DEFAULT_TOLERANCES.cert_tol
            assert all(c.passed for c in cert.conditions)

    def test_shared_pair_falls_back(self):
        m1 = np.diag([2.0, 1.0])
        m2 = np.diag([5.0, 1.0])
        with pytest.raises(SharedEigendirections):
            decide_pgl2([m1, m2])
        verdict, cert = decide([m1, m2])
        assert verdict.answer == "yes"
        assert verdict.method == METHOD_DIRECT
        assert verdict.multiplicity is Multiplicity.INFINITE

    def test_single_generator(self):
        verdict, cert = decide([np.diag([1 + 1j, 1 - 1j])])
        assert verdict.answer == "yes" and cert.residual < 1e-10


class TestConditionFunctions:
    def test_count(self):
        for n in range(2, 7):
            inst = generate(InstanceSpec(k=2, n_generators=n,
                                         type_mix={"hyperbolic": n}, seed=n))
            values = condition_functions_pgl2(inst.matrices)
            assert len(values) == 2 * n - 3

    def test_real_generators_vanish(self, rng):
        ms = []
        for _ in range(4):
            v = random_invertible(rng, 2, complex_=False)
            ms.append(v @ np.diag(rng.uniform(0.5, 2, size=2) * [1, -1]) @ np.linalg.inv(v))
        values = condition_functions_pgl2(ms)
        assert max(abs(z) for z in values) < 1e-9

    def test_zero_set_matches_decision(self):
        for seed in range(8):
            pert = (2, 0.05) if seed % 2 else None
            inst = generate(InstanceSpec(k=2, n_generators=4,
                                         type_mix={"hyperbolic": 2, "elliptic": 2},
                                         seed=seed, perturbation=pert))
            values = condition_functions_pgl2(inst.matrices)
            verdict, _ = decide_pgl2(inst.matrices)
            assert (max(abs(z) for z in values) < 1e-7) == (verdict.answer == "yes")

    def test_elliptic_first_rejected(self):
        inst = generate(InstanceSpec(k=2, n_generators=2,
                                     type_mix={"elliptic": 2}, seed=1))
        with pytest.raises(SpectralPreconditionError):
            condition_functions_pgl2(inst.matrices)

    @pytest.mark.parametrize("ms, error, message", [
        (generate(InstanceSpec(k=3, n_generators=2, type_mix={"hyperbolic": 2}, seed=1)).matrices,
         SpectralPreconditionError, "condition functions are defined for 2x2 input"),
        ([np.diag([2.0, 1.0])], SpectralPreconditionError, "need at least two generators"),
        ([np.diag([2.0, 1.0]), np.diag([3.0, -1.0])], SharedEigendirections,
         "first two generators share their eigendirection pair"),
    ], ids=["3x3", "one-generator", "shared-pair"])
    def test_preconditions(self, ms, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            condition_functions_pgl2(ms)


class TestDim3AndFG:
    def test_construction_yes(self):
        inst = generate(InstanceSpec(k=3, n_generators=3,
                                     type_mix={"hyperbolic": 2, "elliptic": 1}, seed=7))
        verdict, cert = decide(inst.matrices)
        assert verdict.answer == "yes" and verdict.method == METHOD_DIM3
        assert cert.residual < 1e-8

    def test_perturbed_no(self):
        inst = generate(InstanceSpec(k=3, n_generators=3,
                                     type_mix={"hyperbolic": 3}, seed=8,
                                     perturbation=(2, 0.05)))
        verdict, cert = decide(inst.matrices)
        assert verdict.answer == "no"
        assert any(not c.passed for c in cert.conditions)

    def test_elliptic_contributes_conjugate_conditions(self):
        inst = generate(InstanceSpec(k=3, n_generators=3,
                                     type_mix={"hyperbolic": 2, "elliptic": 1}, seed=9))
        verdict, cert = decide(inst.matrices, method="dim3")
        assert verdict.answer == "yes"
        assert any("conjugate" in c.requirement for c in cert.conditions)

    def test_synthetic_base_two_elliptic(self):
        inst = generate(InstanceSpec(k=3, n_generators=2,
                                     type_mix={"elliptic": 2}, seed=5))
        verdict, cert = decide(inst.matrices, method="dim3")
        assert verdict.answer == "yes" and cert.residual < 1e-8
        assert any("synthetic" in d for d in cert.diagnostics)

    def test_synthetic_base_detects_no(self):
        inst = generate(InstanceSpec(k=3, n_generators=3,
                                     type_mix={"elliptic": 3}, seed=6,
                                     perturbation=(1, 0.05)))
        verdict, _ = decide(inst.matrices, method="dim3")
        assert verdict.answer == "no"

    def test_k4_counts(self):
        inst = generate(InstanceSpec(k=4, n_generators=3,
                                     type_mix={"hyperbolic": 3}, seed=11))
        verdict, cert = decide(inst.matrices, method="fg")
        assert verdict.answer == "yes"
        base_crs = [c for c in cert.conditions if c.name.startswith("cr(A,B,C,D)")]
        assert len(base_crs) == 3
        sub_crs = [c for c in cert.conditions if c.name.startswith("cr(A,b2") or c.name.startswith("cr(A,b'2")]
        assert len(sub_crs) == 6
        sub_triples = [c for c in cert.conditions if c.name.startswith("r3(A,b2") or c.name.startswith("r3(A,b'2")]
        assert len(sub_triples) == 6

    def test_fg_evaluates_cross_ratios_once(self, monkeypatch):
        dec = importlib.import_module("realform.decide")
        inst = generate(InstanceSpec(k=4, n_generators=4,
                                     type_mix={"hyperbolic": 3, "elliptic": 1}, seed=5))
        _, expected = decide(inst.matrices, method="fg")
        original = dec.frame_cross_ratio_sets
        calls = []

        def counted(x, *args, **kwargs):
            calls.append(len(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(dec, "frame_cross_ratio_sets", counted)
        _, cert = decide(inst.matrices, method="fg")
        assert calls == [5]   # the base line and both lines of the two other generators
        assert cert.conditions == expected.conditions

        def refuse_batch(x, *args, **kwargs):
            if len(x) > 2:
                raise GenericityViolation("batch refused")
            return original(x, *args, **kwargs)

        # a refused batch is not retried generator by generator: its own error propagates
        monkeypatch.setattr(dec, "frame_cross_ratio_sets", refuse_batch)
        with pytest.raises(GenericityViolation, match="batch refused"):
            decide(inst.matrices, method="fg")

    def test_fg_raises_first_failure_in_condition_order(self, monkeypatch):
        dec = importlib.import_module("realform.decide")
        inst = generate(InstanceSpec(k=4, n_generators=3, type_mix={"hyperbolic": 3}, seed=11))
        checks, triples = [], []
        frame_generic = dec.frame_generic

        def base_only(a, frame, rcond, flags, cfg):   # the base pair passes, the third generator's flags fail
            checks.append(len(flags))
            x, minors, _ = frame_generic(a, frame, rcond, flags, cfg)
            return x, minors, np.arange(len(flags)) == 0

        def counted(*args, **kwargs):
            triples.append(args)
            raise AssertionError("no triple ratio before every flag is checked")

        monkeypatch.setattr(dec, "frame_generic", base_only)
        monkeypatch.setattr(dec, "frame_triple_ratio_sets", counted)
        # every flag (B, beta, beta') is checked in one call before the first coordinate is computed
        with pytest.raises(GenericityViolation, match="generator 2: flags not in generic position"):
            decide(inst.matrices, method="fg")
        assert checks == [3] and triples == []

    def test_fg_nongeneric_base_raises_after_one_check(self, monkeypatch):
        dec = importlib.import_module("realform.decide")
        original = dec.frame_generic
        calls = []

        def counted(a, frame, rcond, flags, cfg):
            calls.append(len(flags))
            return original(a, frame, rcond, flags, cfg)

        monkeypatch.setattr(dec, "frame_generic", counted)
        # commuting diagonal matrices: the base flags share their coordinate lines
        with pytest.raises(GenericityViolation, match="base flags are not in generic position"):
            decide([np.diag([2.0, 1.0, 3.0]), np.diag([5.0, 7.0, 1.0])], method="fg")
        assert calls == [1]

    @pytest.mark.parametrize("n, mix, lines, names", [
        (2, {"elliptic": 2}, 2,
         ["cr(A,b1,C,D) vs b'[0]", "cr(A,b1,C,D) vs b'[1]", "r3(A,b1,C) vs b'(0, 0, 0)"]),
        (3, {"elliptic": 2, "hyperbolic": 1}, 4,
         ["cr(A,h0.1,C,D)[0]", "cr(A,h0.1,C,D)[1]", "cr(A,h0.2,C,D)[0]", "cr(A,h0.2,C,D)[1]",
          "cr(A,b2,C,D) vs b'[0]", "cr(A,b2,C,D) vs b'[1]", "r3(A,b2,C) vs b'(0, 0, 0)"]),
    ])
    def test_synthetic_base_checks_and_evaluates_once(self, monkeypatch, n, mix, lines, names):
        dec = importlib.import_module("realform.decide")
        inst = generate(InstanceSpec(k=3, n_generators=n, type_mix=mix, seed=5))
        calls = []

        def counted(name):
            original = getattr(dec, name)

            def wrapper(x, *args, **kwargs):
                calls.append((name, len(x)))
                return original(x, *args, **kwargs)
            return wrapper

        for name in ("first_nongeneric_coords", "frame_cross_ratio_sets"):
            monkeypatch.setattr(dec, name, counted(name))
        triples = dec.frame_triple_ratio_sets

        def counted_triples(a, flags, *args, **kwargs):
            calls.append(("frame_triple_ratio_sets", len(flags)))
            return triples(a, flags, *args, **kwargs)

        monkeypatch.setattr(dec, "frame_triple_ratio_sets", counted_triples)
        verdict, cert = decide(inst.matrices, method="dim3")
        # the pair generator's flag and its reverse: one triple-ratio evaluation
        assert calls == [("first_nongeneric_coords", lines), ("frame_cross_ratio_sets", lines),
                         ("frame_triple_ratio_sets", 2)]
        assert verdict.answer == "yes" and verdict.method == METHOD_DIM3
        assert [c.name for c in cert.conditions] == names
        assert any("synthetic" in d for d in cert.diagnostics)

    def test_synthetic_base_takes_one_fourth_point(self):
        # E: rotation-scaling in the xy-plane plus 2 on z, hyperbolic direction (0, 0, 1);
        # H's first eigendirection is that same point, so the frame it completes is degenerate
        c, s = np.cos(0.7), np.sin(0.7)
        e = np.array([[1.5 * c, -1.5 * s, 0.0], [1.5 * s, 1.5 * c, 0.0], [0.0, 0.0, 2.0]])
        v = np.array([[0.0, 1.0, 0.3], [0.0, 0.4, 1.0], [1.0, 0.7, -0.5]])
        h = v @ np.diag([1.0, 2.0, 3.0]) @ np.linalg.inv(v)
        with pytest.raises(GenericityViolation,
                           match="no second-generator direction completes a projective frame"):
            decide([e, h], method="dim3")
        verdict, _ = decide([e, h])
        assert verdict.answer == "yes" and verdict.method == METHOD_DIRECT

    @pytest.mark.parametrize("mix, message", [
        ({"hyperbolic": 1, "elliptic": 1}, "flag method needs two strictly hyperbolic generators"),
        ({"hyperbolic": 2, "mixed": 1},
         "generator 2: flag coordinates handle at most one hyperbolic direction"),
        # both checks fail: the first one's message wins
        ({"hyperbolic": 1, "mixed": 1}, "flag method needs two strictly hyperbolic generators"),
    ])
    def test_fg_structure_checked_before_any_flag(self, monkeypatch, mix, message):
        dec = importlib.import_module("realform.decide")
        inst = generate(InstanceSpec(k=4, n_generators=sum(mix.values()), type_mix=mix, seed=2))
        assert all(len(info.hyp_indices()) == 2 for info in dec.prepare(inst.matrices)
                   if info.kind == "mixed")

        def refuse(*args, **kwargs):
            raise AssertionError("flag_pair_from_eigensystem called")

        monkeypatch.setattr(dec, "flag_pair_from_eigensystem", refuse)
        with pytest.raises(GenericityViolation, match=message):
            decide(inst.matrices, method="fg")

    def test_fg_mixed_generator_conjugate_pairs(self):
        inst = generate(InstanceSpec(k=4, n_generators=3,
                                     type_mix={"hyperbolic": 2, "elliptic": 1}, seed=3))
        verdict, cert = decide(inst.matrices, method="fg")
        assert verdict.answer == "yes"
        assert any("vs b'" in c.name for c in cert.conditions)

    def test_fg_needs_two_hyperbolic(self):
        inst = generate(InstanceSpec(k=4, n_generators=2,
                                     type_mix={"elliptic": 2}, seed=9))
        with pytest.raises(GenericityViolation):
            decide(inst.matrices, method="fg")


class TestCrossOnly:
    def test_elliptic_base_k2(self):
        # rotation about (inf, 0) as base; hyperbolic with unit-modulus
        # fixed points passes the circle condition
        m1 = np.diag([1 + 2j, 1 - 2j])
        z, w = np.exp(0.8j), np.exp(-2.1j)
        v = np.array([[z, w], [1.0, 1.0]])
        m2 = v @ np.diag([3.0, 1.0]) @ np.linalg.inv(v)
        verdict, cert = decide_pglk_cross_only([m1, m2])
        assert verdict.answer == "yes"
        v2 = np.array([[1.3 * z, w], [1.0, 1.0]])
        m3 = v2 @ np.diag([3.0, 1.0]) @ np.linalg.inv(v2)
        verdict, _ = decide_pglk_cross_only([m1, m3])
        assert verdict.answer == "no"

    def test_k4_agreement_with_fg(self):
        for seed in range(6):
            pert = (1, 0.05) if seed % 2 else None
            inst = generate(InstanceSpec(k=4, n_generators=3,
                                         type_mix={"hyperbolic": 2, "elliptic": 1},
                                         seed=seed, perturbation=pert))
            v1, _ = decide(inst.matrices, method="fg")
            v2, _ = decide(inst.matrices, method="cross")
            assert v1.answer == v2.answer == inst.answer

    def test_mixed_base_k5(self):
        inst = generate(InstanceSpec(k=5, n_generators=3,
                                     type_mix={"mixed": 2, "hyperbolic": 1}, seed=21))
        verdict, cert = decide(inst.matrices, method="cross")
        assert verdict.answer == "yes" and cert.residual < 1e-8

    def test_all_elliptic_no_reference(self):
        inst = generate(InstanceSpec(k=4, n_generators=2,
                                     type_mix={"elliptic": 2}, seed=9))
        with pytest.raises(GenericityViolation, match="no second generator has a hyperbolic "
                                                      "direction to serve as reference"):
            decide(inst.matrices, method="cross")

    def test_one_base_and_reference(self, monkeypatch):
        dec = importlib.import_module("realform.decide")
        original = dec.first_nongeneric_coords
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(dec, "first_nongeneric_coords", counted)
        # commuting diagonal matrices: the one base and reference fail, and no other is tried
        ms = [np.diag([2.0, 1.0, 3.0]), np.diag([5.0, 7.0, 1.0])]
        with pytest.raises(GenericityViolation,
                           match="generator 1: eigendirection 1 not generic with the base"):
            decide(ms, method="cross")
        assert len(calls) == 1
        verdict, _ = decide(ms)
        assert verdict.answer == "yes" and verdict.multiplicity is Multiplicity.INFINITE


class TestEigenCoordinateFrame:
    """The coordinate routes read lines in a generator's eigen-coordinate
    frame: no SVD builds a quotient or tests a line."""

    @staticmethod
    def svd_calls_inside(monkeypatch, owner, name, call):
        """numpy.linalg.svd calls made while owner.name runs during call()."""
        inside, calls = [], []
        original, svd = getattr(owner, name), np.linalg.svd

        def wrapped(*args, **kwargs):
            inside.append(True)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        def counted(*args, **kwargs):
            if inside:
                calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)
        monkeypatch.setattr(np.linalg, "svd", counted)
        call()
        monkeypatch.undo()
        return calls

    def test_line_sets_make_no_svd(self, monkeypatch):
        dec = importlib.import_module("realform.decide")
        inst = generate(InstanceSpec(k=8, n_generators=3, type_mix={"hyperbolic": 3}, seed=8))
        verdicts = []
        calls = self.svd_calls_inside(
            monkeypatch, dec, "_line_sets",
            lambda: verdicts.append(decide(inst.matrices, method="cross")[0]))
        assert verdicts[0].answer == inst.answer and verdicts[0].method == METHOD_CROSS
        assert calls == []

    @pytest.mark.parametrize("k, seed", [(4, 1), (6, 2), (8, 3)])
    def test_flag_routes_make_no_svd(self, monkeypatch, k, seed):
        # the frame screen clears every stack of eigenbasis flags: no flag's
        # independence, genericity or triple ratio takes an SVD
        dec = importlib.import_module("realform.decide")
        inst = generate(InstanceSpec(k=k, n_generators=4, type_mix={"hyperbolic": 4}, seed=seed))
        verdicts = []
        calls = self.svd_calls_inside(
            monkeypatch, dec, "_flag_conditions",
            lambda: verdicts.append(decide(inst.matrices, method="fg")[0]))
        assert verdicts[0].answer == inst.answer and verdicts[0].method == METHOD_FG
        assert calls == []

    def test_triple_ratio_set_makes_no_svd(self, monkeypatch):
        coords = importlib.import_module("realform.coords")
        rng = np.random.default_rng(8)
        a, b, c = (make_flag(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
                   for _ in range(3))
        out = []
        calls = self.svd_calls_inside(monkeypatch, coords, "triple_ratio_set",
                                      lambda: out.append(coords.triple_ratio_set(a, b, c)))
        assert len(out[0]) == 21 and calls == []

    def test_frame_is_the_inverse_eigenflag(self):
        inst = generate(InstanceSpec(k=5, n_generators=2, type_mix={"hyperbolic": 2}, seed=3))
        info = prepare(inst.matrices)[0]
        flag, _ = flag_pair_from_eigensystem(eigensystem(info))
        assert info.frame is info.frame   # computed once
        assert np.allclose(flag @ info.frame, np.eye(5), atol=1e-12)
        s = np.linalg.svd(flag, compute_uv=False)
        assert info.frame_rcond == pytest.approx(s[-1] / s[0], rel=1e-12)

    def test_line_cut_scales_with_frame_conditioning(self):
        # cond(Gamma) = 1e4: the base eigenbasis is ill-conditioned, and one
        # direction's minors clear rank_tol in the frame but not rank_tol
        # times the frame's condition number; an SVD test of the input-space
        # stacks refuses it too
        ms = conditioned_yes(8, 5, exponent=4)
        base = prepare(ms)[0]
        assert base.frame_rcond < 1e-3
        with pytest.raises(GenericityViolation,
                           match="generator 1: eigendirection 7 not generic with the base"):
            decide(ms, method="cross")


def _moved(ms, rng):
    """ms conjugated by one random complex Gamma."""
    g = rng.normal(size=ms[0].shape) + 1j * rng.normal(size=ms[0].shape)
    gi = np.linalg.inv(g)
    return [g @ m @ gi for m in ms]


def _real_with_eigenbasis(v, values):
    return (v @ np.diag(values) @ np.linalg.inv(v)).real


def _one_ill_conditioned_eigenbasis():
    """A k = 4 Yes instance: two oracle hyperbolic generators and a third
    whose eigenvector columns 0 and 1 are 1e-3 apart, so its frame_rcond
    (1.5e-4) alone is far below the others' (0.2)."""
    rng = np.random.default_rng(1)
    inst = generate(InstanceSpec(k=4, n_generators=2, type_mix={"hyperbolic": 2}, seed=1,
                                 scramble="none"))
    v = rng.normal(size=(4, 4))
    v[:, 1] = v[:, 0] + 1e-3 * rng.normal(size=4)
    return _moved([*inst.matrices, _real_with_eigenbasis(v, [3.0, 2.0, -1.0, 0.5])], rng)


def _synthetic_base_with_ill_conditioned_pair():
    """A k = 3 Yes instance of two mixed generators, the second's hyperbolic
    eigendirection 1e-4 from the real plane of its elliptic pair."""
    rng = np.random.default_rng(0)
    lam = 1.5 * np.exp(0.9j)
    a, b, n, c, d = rng.normal(size=(5, 3))
    e = _real_with_eigenbasis(np.column_stack([c + 1j * d, c - 1j * d, rng.normal(size=3)]),
                              [lam, np.conj(lam), 2.0])
    m = _real_with_eigenbasis(np.column_stack([a + 1j * b, a - 1j * b, a + 1e-4 * n]),
                              [lam, np.conj(lam), 0.7])
    return _moved([e, m], rng)


class TestIndependenceFromFrameRcond:
    """Every flag route reads a generator's eigenbasis independence from
    the spectral pass's ``frame_rcond``: the cut sits at that number."""

    @pytest.mark.parametrize("method, case", [("fg", "base"), ("fg", "pair"), ("cross", "base")])
    def test_cut_sits_at_frame_rcond(self, method, case):
        # base: generator 0's eigenbasis is the worst, fg's g and cross's base;
        # pair: only generator 2's fails, and fg meets it in its flag loop
        ms = (generate(InstanceSpec(k=4, n_generators=3, type_mix={"hyperbolic": 3}, seed=0)).matrices
              if case == "base" else _one_ill_conditioned_eigenbasis())
        rcond = [info.frame_rcond for info in prepare(ms)]
        bad = 0 if case == "base" else 2
        assert rcond[bad] == min(rcond)
        with pytest.raises(GenericityViolation, match="^flag spanning vectors are linearly dependent$"):
            decide(ms, DEFAULT_TOLERANCES.override(rank_tol=1.01 * rcond[bad]), method=method)
        # just below the cut every eigenbasis passes: a later check may still refuse
        try:
            decide(ms, DEFAULT_TOLERANCES.override(rank_tol=0.99 * rcond[bad]), method=method)
        except GenericityViolation as exc:
            assert "linearly dependent" not in str(exc)
        verdict, _ = decide(ms, method=method)
        assert verdict.answer == "yes"

    def test_synthetic_base_pair_generator(self):
        ms = _synthetic_base_with_ill_conditioned_pair()
        infos = prepare(ms)
        assert [info.kind for info in infos] == ["mixed", "mixed"]
        assert 1e-4 < infos[1].frame_rcond < 1e-3 < infos[0].frame_rcond
        with pytest.raises(GenericityViolation, match=(
                "^generator 1: triple ratios degenerate for the synthetic base: "
                "flag spanning vectors are linearly dependent$")):
            decide(ms, DEFAULT_TOLERANCES.override(rank_tol=1e-3), method="dim3")
        verdict, cert = decide(ms, method="dim3")
        assert verdict.answer == "yes" and verdict.method == METHOD_DIM3
        assert "synthetic hyperbolic base from elliptic eigendata" in cert.diagnostics


class TestDirect:
    def test_always_decides(self):
        for seed in range(6):
            pert = (0, 0.05) if seed % 2 else None
            inst = generate(InstanceSpec(k=3, n_generators=3,
                                         type_mix={"hyperbolic": 2, "elliptic": 1},
                                         seed=seed, perturbation=pert))
            verdict, cert = decide_direct(inst.matrices)
            assert verdict.answer == inst.answer
            if verdict.answer == "yes":
                assert cert.residual < 1e-7

    def test_non_generic_enumerates_labelings(self):
        # eigenvalues i, -i admit two labelings; the direct method still
        # certifies the rotation together with a real hyperbolic
        m1 = np.array([[0.0, -1.0], [1.0, 0.0]])   # eigenvalues +-i
        m2 = np.diag([2.0, 1.0])
        verdict, cert = decide([m1, m2])
        assert verdict.answer == "yes"
        assert verdict.method == METHOD_DIRECT
        assert cert.residual < 1e-9

    def test_infinite_multiplicity_reported(self):
        ms = [np.diag([2.0, 1.0, 3.0]), np.diag([5.0, 7.0, 1.0])]
        verdict, _ = decide(ms)
        assert verdict.answer == "yes"
        assert verdict.multiplicity is Multiplicity.INFINITE

    @pytest.mark.parametrize("k", range(2, 9))
    def test_yes_is_checked_by_its_certificate_alone(self, monkeypatch, k):
        # a witnessed conjugation commutes with every generator by
        # construction; the certificate checks it, not a per-generator pass
        def refuse(*args, **kwargs):
            raise AssertionError("preserves called")

        monkeypatch.setattr(importlib.import_module("realform.decide"), "preserves", refuse)
        monkeypatch.setattr(importlib.import_module("realform.rform"), "preserves", refuse)
        mix = {"hyperbolic": 2, "elliptic": 1} if k == 2 else {"hyperbolic": 2, "mixed": 1}
        for seed in (1, 2):
            inst = generate(InstanceSpec(k=k, n_generators=3, type_mix=mix, seed=seed))
            verdict, cert = decide(inst.matrices, method="direct")
            assert verdict.answer == inst.answer == "yes"
            assert cert.residual < DEFAULT_TOLERANCES.cert_tol
            assert [(c.name, c.value, c.requirement, c.passed) for c in cert.conditions] == [
                (f"preserves(M{i})", 0j, "commutes with conjugation", True) for i in range(3)]

    @pytest.mark.parametrize("case, answer, multiplicity, witness_calls", [
        ("reflection", "yes", Multiplicity.ONE, 1),
        ("reflection-no", "no", Multiplicity.ZERO, 2),
        # the first labeling combination admits no conjugation, the second decides
        ("two-lines", "yes", Multiplicity.ONE, 2),
        ("two-lines-no", "no", Multiplicity.ZERO, 2),
    ])
    def test_non_generic_generator_pinned(self, monkeypatch, case, answer, multiplicity,
                                          witness_calls):
        # each first generator's eigenvalues lie on two lines: two labelings,
        # so two combinations; every outcome as the preserves pass gave it
        dec = importlib.import_module("realform.decide")
        rng = np.random.default_rng(7)
        v, w = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        u, u2 = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2))
        r4 = rng.normal(size=(4, 4))
        hyp = np.array([[2.0, 1.0], [0.5, 1.0]])
        # a real matrix with eigenvalues +-1, +-2i (two lines) times i: its
        # real form's labeling comes second
        lines = 1j * np.block([[np.diag([1.0, -1.0]), np.zeros((2, 2))],
                               [np.zeros((2, 2)), np.array([[0, -2.0], [2.0, 0]])]])
        pairs = {"reflection": ((v, np.diag([1.0, -1.0])), (v, hyp)),
                 "reflection-no": ((v, np.diag([1.0, -1.0])), (w, hyp)),
                 "two-lines": ((u, lines), (u, r4)),
                 "two-lines-no": ((u, lines), (u2, r4))}[case]
        ms = [g @ m @ np.linalg.inv(g) for g, m in pairs]
        assert [len(info.sclass.labelings) for info in prepare(ms)] == [2, 1]
        calls = []
        original = dec.conjugation_witness
        monkeypatch.setattr(dec, "conjugation_witness",
                            lambda *args: calls.append(1) or original(*args))
        verdict, cert = decide(ms, method="direct")
        assert verdict == Verdict(answer, multiplicity, METHOD_DIRECT)
        assert len(calls) == witness_calls
        if answer == "yes":
            assert cert.residual < DEFAULT_TOLERANCES.cert_tol
            assert [(c.name, c.value, c.requirement, c.passed) for c in cert.conditions] == [
                ("preserves(M0)", 0j, "commutes with conjugation", True),
                ("preserves(M1)", 0j, "commutes with conjugation", True)]
        else:
            assert cert.gamma is None and cert.conditions == []
            assert cert.diagnostics == ["no labeling admits a common real form"]

    @pytest.mark.parametrize("method", ["direct", "auto"])
    def test_never_searches_a_base(self, monkeypatch, rng, method):
        # the anchor eigenbasis is the solve's base: the greedy base search
        # serves eigendata lists only
        collections = [generate(InstanceSpec(k=k, n_generators=3, type_mix=mix, seed=k)).matrices
                       for k, mix in ((2, {"hyperbolic": 2, "elliptic": 1}),
                                      (5, {"hyperbolic": 1, "mixed": 2}),
                                      (8, {"hyperbolic": 2, "mixed": 1}))]
        # a real matrix with eigenvalues +-i and +-2, which lie on two lines:
        # two labelings, so two combinations
        rotation = np.block([[np.array([[0, -1], [1, 0]]), np.zeros((2, 2))],
                             [np.zeros((2, 2)), np.diag([2, -2])]])
        v = random_invertible(rng, 4)
        collections.append([v @ m @ np.linalg.inv(v) for m in (rotation, rng.normal(size=(4, 4)))])
        expected = [decide(ms, method=method)[0] for ms in collections]

        def refuse(*args):
            raise AssertionError("base search on decide's path")

        monkeypatch.setattr(importlib.import_module("realform.rform"), "_base", refuse)
        assert [decide(ms, method=method)[0] for ms in collections] == expected
        assert [v.answer for v in expected] == ["yes"] * 4


class TestVerifyCertificate:
    def test_real_with_identity(self, rng):
        ms = [rng.normal(size=(3, 3)) for _ in range(3)]
        assert verify_certificate(ms, np.eye(3)) < 1e-12

    def test_constructed_instance(self):
        inst = generate(InstanceSpec(k=4, n_generators=3,
                                     type_mix={"hyperbolic": 2, "elliptic": 1}, seed=17))
        assert verify_certificate(inst.matrices, inst.gamma) < 1e-10

    def test_wrong_gamma_large(self, rng):
        inst = generate(InstanceSpec(k=3, n_generators=2,
                                     type_mix={"hyperbolic": 2}, seed=19))
        wrong = random_invertible(rng, 3)
        assert verify_certificate(inst.matrices, wrong) > 1e-3

    @pytest.mark.parametrize("scale", [1e170, 1e200, 1e-200])
    def test_residual_independent_of_scale(self, rng, scale):
        # n * n overflowed (or underflowed) here, and a wrong gamma read 0
        inst = generate(InstanceSpec(k=3, n_generators=2,
                                     type_mix={"hyperbolic": 2}, seed=19))
        wrong = random_invertible(rng, 3)
        scaled = [scale * m for m in inst.matrices]
        assert verify_certificate(scaled, wrong) == pytest.approx(
            verify_certificate(inst.matrices, wrong), rel=1e-12)
        assert verify_certificate(scaled, inst.gamma) < 1e-10

    @pytest.mark.parametrize("k_ms, k_gamma", [(3, 2), (2, 3)])
    def test_gamma_size_must_match(self, rng, k_ms, k_gamma):
        ms = [rng.normal(size=(k_ms, k_ms)) for _ in range(2)]
        with pytest.raises(ValueError, match=rf"gamma has shape \({k_gamma}, {k_gamma}\) but the "
                                             rf"matrices \({k_ms}, {k_ms}\)"):
            verify_certificate(ms, np.eye(k_gamma))

    def test_non_finite_residual_is_inf(self):
        # max(0.0, nan) is 0.0: a NaN residual used to pass
        ms = [np.eye(2), np.full((2, 2), np.nan)]
        assert verify_certificate(ms, np.eye(2)) == np.inf


class TestDispatch:
    def test_methods_agree_and_certs_portable(self):
        for seed in range(10):
            pert = (1, 0.05) if seed % 3 == 0 else None
            inst = generate(InstanceSpec(k=3, n_generators=3,
                                         type_mix={"hyperbolic": 2, "elliptic": 1},
                                         seed=seed, perturbation=pert))
            answers = {}
            for method in ("dim3", "cross", "direct"):
                try:
                    v, cert = decide(inst.matrices, method=method)
                except (GenericityViolation, SpectralPreconditionError):
                    continue
                answers[method] = v.answer
                if v.answer == "yes":
                    assert verify_certificate(inst.matrices, cert.gamma) < 1e-7
            assert len(set(answers.values())) == 1

    def test_verdict_invariant_under_conjugation(self, rng):
        inst = generate(InstanceSpec(k=3, n_generators=3,
                                     type_mix={"hyperbolic": 2, "elliptic": 1}, seed=23,
                                     perturbation=(0, 0.05)))
        base, _ = decide(inst.matrices)
        for _ in range(5):
            g = random_invertible(rng, 3)
            gi = np.linalg.inv(g)
            moved, _ = decide([g @ m @ gi for m in inst.matrices])
            assert moved.answer == base.answer

    def test_fallback_reasons_recorded(self):
        m1 = np.diag([2.0, 1.0])
        m2 = np.diag([5.0, 1.0])
        verdict, cert = decide([m1, m2])
        assert verdict.method == METHOD_DIRECT
        assert any("dim2" in d for d in cert.diagnostics)

    NON_GENERIC = ("generators [0] have non-generic eigenvalues; coordinate methods need a "
                   "unique labeling")

    def test_auto_records_the_non_generic_reason(self):
        # the collection of test_non_generic_enumerates_labelings: eigenvalues
        # +-i admit two labelings, so dim2 refuses and the answer is direct's
        ms = [np.array([[0.0, -1.0], [1.0, 0.0]]), np.diag([2.0, 1.0])]
        verdict, cert = decide(ms)
        assert verdict == decide(ms, method="direct")[0]
        assert cert.diagnostics == [f"dim2: {self.NON_GENERIC}"]

    def test_auto_records_each_route_refusing_a_non_generic_spectrum(self, rng):
        # diag(i, -i, 2, -2) has two admissible lines; with a hyperbolic
        # generator, conjugated together by one complex matrix
        rotation = np.block([[np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2))],
                             [np.zeros((2, 2)), np.diag([2.0, -2.0])]])
        v = random_invertible(rng, 4, complex_=False)
        hyperbolic = v @ np.diag([0.5, -1.0, 1.5, 2.5]) @ np.linalg.inv(v)
        g = random_invertible(rng, 4)
        ms = [g @ m @ np.linalg.inv(g) for m in (rotation, hyperbolic)]
        verdict, cert = decide(ms)
        direct, direct_cert = decide(ms, method="direct")
        assert verdict == direct and verdict.answer == "yes"
        assert cert.diagnostics == ([f"fg: {self.NON_GENERIC}", f"cross: {self.NON_GENERIC}"]
                                    + direct_cert.diagnostics)

    ROUTE_GLOBALS = {"dim2": "decide_pgl2", "dim3": "decide_pgl3", "fg": "decide_pglk_fg",
                     "cross": "decide_pglk_cross_only", "direct": "decide_direct"}

    def count_routes(self, monkeypatch):
        """Put a counting wrapper on each route's module global."""
        dec = importlib.import_module("realform.decide")
        calls = Counter()
        for route, name in self.ROUTE_GLOBALS.items():
            def counted(*args, route=route, original=getattr(dec, name), **kwargs):
                calls[route] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(dec, name, counted)
        return calls

    @pytest.mark.parametrize("route, k, mix", [
        ("dim2", 2, {"hyperbolic": 2}),
        ("dim3", 3, {"hyperbolic": 2, "elliptic": 1}),
        ("fg", 4, {"hyperbolic": 3}),
        ("cross", 4, {"hyperbolic": 3}),
        ("direct", 4, {"hyperbolic": 3}),
    ])
    def test_forced_route_calls_the_module_global(self, monkeypatch, route, k, mix):
        inst = generate(InstanceSpec(k=k, n_generators=sum(mix.values()), type_mix=mix, seed=1))
        calls = self.count_routes(monkeypatch)
        decide(inst.matrices, method=route)
        # a forced coordinate route solves with the direct method itself
        assert calls == Counter({route: 1, "direct": 1})

    def test_auto_calls_the_module_globals(self, monkeypatch):
        # fg needs two strictly hyperbolic generators: auto goes on to cross
        inst = generate(InstanceSpec(k=4, n_generators=3,
                                     type_mix={"hyperbolic": 1, "elliptic": 2}, seed=1))
        calls = self.count_routes(monkeypatch)
        _, cert = decide(inst.matrices)
        assert calls == Counter({"direct": 1, "fg": 1, "cross": 1})
        assert any(d.startswith("fg: ") for d in cert.diagnostics)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            decide([np.diag([2.0, 1.0])], method="bogus")

    def test_dimension_above_the_range_rejected(self):
        with pytest.raises(ValueError, match=r"^matrix 0: dimension 9 outside supported range \[2, 8\]$"):
            decide([np.diag(np.arange(1.0, 10.0))] * 2)


class TestMiddleDirectionPerturbation:
    def test_triple_ratio_catches_interior_eigendirection(self):
        # moving a middle eigendirection leaves the flag lines (and all
        # cross ratios) intact; only a triple ratio can fail
        from realform.projlin import eig

        inst = generate(InstanceSpec(k=3, n_generators=3,
                                     type_mix={"hyperbolic": 3}, seed=31))
        ms = list(inst.matrices)
        es = eig(ms[2])
        vecs = np.column_stack([d.coords for d in es.directions])
        rng = np.random.default_rng(0)
        delta = rng.normal(size=3) + 1j * rng.normal(size=3)
        vecs[:, 1] = vecs[:, 1] + 0.05 * delta / np.linalg.norm(delta)
        ms[2] = vecs @ np.diag(es.eigenvalues) @ np.linalg.inv(vecs)
        verdict, cert = decide(ms, method="dim3")
        assert verdict.answer == "no"
        failing = [c for c in cert.conditions if not c.passed]
        assert failing and all(c.name.startswith("r3") for c in failing)


def conjugated_k4_yes(seed):
    """A k = 4 Yes instance moved by Gamma = U diag(logspace(0, 2, 4)) U^H,
    cond(Gamma) = 100, with U unitary from a fixed complex normal draw."""
    inst = generate(InstanceSpec(k=4, n_generators=3, type_mix={"hyperbolic": 3}, seed=seed))
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    g = u @ np.diag(np.logspace(0, 2, 4)) @ u.conj().T
    gi = np.linalg.inv(g)
    return [g @ m @ gi for m in inst.matrices]


class TestDecisionContract:
    def test_auto_falls_back_on_any_route_error(self):
        ms = conjugated_k4_yes(seed=2)
        with pytest.raises(DegenerateTriple):
            decide(ms, method="fg")
        verdict, cert = decide(ms)
        assert verdict.answer == "yes"
        assert cert.residual < DEFAULT_TOLERANCES.cert_tol
        assert any(d.startswith("fg: ") for d in cert.diagnostics)

    @pytest.mark.parametrize("method", ["auto", "dim2", "cross", "direct"])
    def test_every_yes_passes_cert_tol_k2(self, method):
        ms = [np.array([[3j - 1, 3j - 3], [-3j - 3, -3j - 1]]),
              np.array([[1 + 1j, 0], [0, 1 - 1j]])]
        with pytest.raises(NumericalDegeneracy):
            decide(ms, DEFAULT_TOLERANCES.override(cert_tol=1e-18), method=method)

    @pytest.mark.parametrize("method", ["auto", "fg", "cross", "direct"])
    def test_every_yes_passes_cert_tol_k4(self, method):
        ms = conjugated_k4_yes(seed=1)
        verdict, cert = decide(ms, method=method)
        assert verdict.answer == "yes" and cert.residual > 1e-16
        with pytest.raises(NumericalDegeneracy):
            decide(ms, DEFAULT_TOLERANCES.override(cert_tol=1e-16), method=method)

    def test_auto_runs_direct_once_when_certification_fails(self, monkeypatch):
        # the package exports a function named decide, so fetch the module
        dec = importlib.import_module("realform.decide")
        calls = {"decide_direct": 0, "conjugation_witness": 0}

        def counted(name):
            original = getattr(dec, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        ms = conjugated_k4_yes(seed=1)
        cfg = DEFAULT_TOLERANCES.override(cert_tol=1e-16)
        with pytest.raises(NumericalDegeneracy) as direct_exc:
            decide(ms, cfg, method="direct")
        for name in calls:
            monkeypatch.setattr(dec, name, counted(name))
        with pytest.raises(NumericalDegeneracy) as auto_exc:
            decide(ms, cfg)
        assert str(auto_exc.value) == str(direct_exc.value)
        # auto solves once, first, and that solve's failure is the answer
        assert calls == {"decide_direct": 1, "conjugation_witness": 1}


def test_disagreement_is_inconclusive():
    # fg's conditions fail while direct certifies a form
    ms = perturbed(6, 0, 1e-8)
    _, direct = decide(ms, method="direct")
    verdict, cert = decide(ms)
    assert verdict == Verdict(INCONCLUSIVE, None, METHOD_FG)
    assert cert.gamma is None and cert.residual is None
    assert any(not c.passed for c in cert.conditions)
    assert direct.residual < DEFAULT_TOLERANCES.cert_tol
    assert cert.diagnostics == ["coordinate conditions fail but the direct method answers yes"]


@pytest.mark.parametrize("k", [3, 6, 8])
def test_perturbation_sweep_has_no_contradiction(k):
    # at eps 1e-9 to 1e-7 float64 cannot separate yes from no: a coordinate
    # route and direct may disagree, but neither answer may stand against the other
    for eps in (1e-7, 1e-8, 1e-9):
        for seed in range(10):
            ms = perturbed(k, seed, eps)
            direct = decide(ms, method="direct")[0].answer
            for method in ("auto", "dim3" if k == 3 else "fg", "cross"):
                try:
                    answer = decide(ms, method=method)[0].answer
                except RealformError:   # the forced route does not apply
                    continue
                assert {answer, direct} != {"yes", "no"}, (k, eps, seed, method)


@pytest.mark.parametrize("k,seed", [(k, seed) for k in (3, 4, 6, 8) for seed in range(10)])
@pytest.mark.parametrize("method", ["direct", "auto"])
def test_yes_at_condition_1e3(k, seed, method):
    # the conditioning sweep's first row; the involution test on S conj(S)
    # over all k^2 entries measured defects above 1e-7 here and answered No
    verdict, cert = decide(conditioned_yes(k, seed), method=method)
    assert verdict.answer == "yes"
    assert cert.residual < DEFAULT_TOLERANCES.cert_tol


def test_cross_one_sided_rule_at_condition_1e3():
    # the cross conditions miss this Yes by rounding, two conjugate-pair
    # defects just above cr_tol: direct's Yes stands, with the diagnostic
    ms = conditioned_yes(3, 7)
    direct, _ = decide(ms, method="direct")
    verdict, cert = decide(ms, method="cross")
    assert verdict == direct and verdict.answer == "yes"
    assert cert.residual < DEFAULT_TOLERANCES.cert_tol
    assert cert.diagnostics == ["cross-only conditions failed but the direct method found a form"]
    conditions, _ = _cross_conditions(prepare(ms), DEFAULT_TOLERANCES)
    failed = [c.value.real for c in conditions if not c.passed]
    assert failed and all(DEFAULT_TOLERANCES.cr_tol < v < 2 * DEFAULT_TOLERANCES.cr_tol
                          for v in failed)


@pytest.mark.xfail(strict=True, reason="wrong definite No at cond(Gamma) = 1e3: the "
                   "eigenbases have cond about 6e3 and 7e3")
@pytest.mark.parametrize("method", ["auto", "direct", "cross"])
def test_two_hyperbolic_yes_at_condition_1e3(method):
    verdict, _ = decide(conditioned_yes(3, 29, mix={"hyperbolic": 2}), method=method)
    assert verdict.answer == "yes"


@pytest.mark.xfail(strict=True, reason="wrong answer at cond(Gamma) = 1e3: direct answers No, "
                   "auto and cross inconclusive")
@pytest.mark.parametrize("method", ["auto", "direct", "cross"])
@pytest.mark.parametrize("seed,mix", [(18, {"hyperbolic": 1, "elliptic": 1}), (42, {"mixed": 3})],
                         ids=["hyperbolic-elliptic", "mixed"])
def test_k6_yes_at_condition_1e3(seed, mix, method):
    verdict, _ = decide(conditioned_yes(6, seed, mix=mix), method=method)
    assert verdict.answer == "yes"


@pytest.mark.xfail(strict=True, reason="wrong definite No at cond(Gamma) = 1e4: direct answers No, "
                   "and auto answers it through cross at k = 3 and 6, through direct at k = 8")
@pytest.mark.parametrize("method", ["auto", "direct"])
@pytest.mark.parametrize("k,seed", [(3, 9), (6, 4), (6, 5), (8, 4), (8, 5)])
def test_yes_at_condition_1e4(k, seed, method):
    verdict, _ = decide(conditioned_yes(k, seed, exponent=4), method=method)
    assert verdict.answer == "yes"


@pytest.mark.parametrize("k", [3, 4, 6, 8])
def test_condition_1e4_has_no_contradiction(k):
    # at cond(Gamma) = 1e4 some answers are refusals or wrong No's of direct
    # itself, but no route may answer opposite to direct
    for seed in range(10):
        ms = conditioned_yes(k, seed, exponent=4)
        try:
            direct = decide(ms, method="direct")[0].answer
        except RealformError:   # a refusal, shared by every route
            continue
        for method in ("auto", "dim3" if k == 3 else "fg", "cross"):
            try:
                answer = decide(ms, method=method)[0].answer
            except RealformError:
                continue
            assert {answer, direct} != {"yes", "no"}, (k, seed, method)


# (k, type mix, perturbation): together they reach every route and every requirement
TYPED_INSTANCES = [
    (2, {"hyperbolic": 2, "elliptic": 1}, None),
    (2, {"hyperbolic": 1, "elliptic": 2}, None),
    (2, {"hyperbolic": 1, "elliptic": 1}, None),
    (3, {"hyperbolic": 2, "elliptic": 1}, None),
    (3, {"hyperbolic": 1, "elliptic": 2}, (1, 0.05)),
    (4, {"hyperbolic": 2, "elliptic": 1}, (2, 0.05)),
    (5, {"mixed": 2, "hyperbolic": 1}, None),
    (6, {"elliptic": 2, "hyperbolic": 1}, None),
    (7, {"mixed": 2, "hyperbolic": 1}, (0, 0.05)),
]


def test_conditions_carry_plain_python_types():
    # passed is a bool and value a complex, never their numpy counterparts
    seen = set()
    for seed, (k, mix, pert) in enumerate(TYPED_INSTANCES):
        inst = generate(InstanceSpec(k, sum(mix.values()), mix, seed=seed, perturbation=pert))
        for method in ("auto", "dim2", "dim3", "fg", "cross", "direct"):
            try:
                verdict, cert = decide(inst.matrices, method=method)
            except RealformError:
                continue
            for c in cert.conditions:
                assert type(c.passed) is bool and type(c.value) is complex, (k, method, c)
                seen.add((verdict.method, c.requirement, c.passed))
    assert {m for m, *_ in seen} == {METHOD_DIM2, METHOD_DIM3, METHOD_FG, METHOD_CROSS, METHOD_DIRECT}
    assert {r for _, r, _ in seen} == {
        "extended real", "positive real", "unit circle", "conjugate pair", "real",
        "0 mod 2pi", "product == 1", "conjugate of product", "commutes with conjugation"}
    assert {p for *_, p in seen} == {True, False}


def _realizable(k):
    """Generator types the oracle realizes at dimension k."""
    if k == 2:
        return ("hyperbolic", "elliptic")
    return ("hyperbolic", "elliptic", "mixed") if k == 3 or k % 2 == 0 else ("hyperbolic", "mixed")


def _conjugate_by_random_gamma(ms, rng):
    g = random_invertible(rng, len(ms[0]), max_cond=10.0)
    gi = np.linalg.inv(g)
    return [g @ m @ gi for m in ms]


# each keeps the answer: the group generated in PGL(k, C) stays the same up to
# one conjugation in PGL(k, C) and the entrywise complex conjugate
RELATIONS = {
    "permute": lambda ms, rng: [ms[i] for i in rng.permutation(len(ms))],
    "conjugate": lambda ms, rng: [m.conj() for m in ms],
    "product": lambda ms, rng: [*ms, np.matmul(*(ms[i] for i in
                                                 rng.choice(len(ms), 2, replace=False)))],
    "inverse": lambda ms, rng: [*ms, np.linalg.inv(ms[rng.integers(len(ms))])],
    "gamma": _conjugate_by_random_gamma,
    "scale": lambda ms, rng: [m * 10 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.uniform())
                              for m in ms],
}


def _answer(ms, method):
    try:
        return decide(ms, method=method)[0].answer
    except RealformError:   # a refusal
        return None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(k=st.integers(2, 8), data=st.data(), no=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_metamorphic_relations_never_swap_yes_and_no(k, data, no, seed):
    # an answer may become inconclusive or a refusal, never the opposite one
    types = data.draw(st.lists(st.sampled_from(_realizable(k)), min_size=2, max_size=3))
    pert = (data.draw(st.integers(0, len(types) - 1)), 0.05) if no else None
    ms = generate(InstanceSpec(k, len(types), dict(Counter(types)), seed=seed,
                               perturbation=pert)).matrices
    rng = np.random.default_rng(seed)
    for method in ("auto", "direct"):
        before = _answer(ms, method)
        for name, relation in RELATIONS.items():
            after = _answer(relation(ms, rng), method)
            assert {before, after} != {"yes", "no"}, (method, name, before, after)


def _small_rank_tol_yes(k, seed):
    """An oracle Yes instance of three generators, one of them elliptic at
    k = 2 and mixed above."""
    return generate(InstanceSpec(k, 3, {"hyperbolic": 2, "elliptic" if k == 2 else "mixed": 1},
                                 seed=seed))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="wrong definite No at rank_tol <= 1e-13: rform's null-space cut counts "
                   "eigenvector rounding as rank (at k = 2, 3, 4, 6 and 8, seeds 0-5, on 1, 10 and "
                   "30 of the 30 instances at 1e-13, 1e-14 and 1e-16)")
@pytest.mark.parametrize("rank_tol, k, seed", [(1e-13, 8, 0), (1e-14, 6, 0), (1e-16, 2, 0)])
def test_direct_yes_at_small_rank_tol(rank_tol, k, seed):
    ms = _small_rank_tol_yes(k, seed).matrices
    verdict, _ = decide(ms, DEFAULT_TOLERANCES.override(rank_tol=rank_tol), method="direct")
    assert verdict.answer == "yes"


@pytest.mark.parametrize("rank_tol", [1e-13, 1e-14, 1e-16])
def test_auto_gives_no_wrong_answer_at_small_rank_tol(rank_tol):
    # auto reads direct's No against the coordinate routes, which pass: inconclusive
    cfg = DEFAULT_TOLERANCES.override(rank_tol=rank_tol)
    for k in (2, 3, 4, 6, 8):
        for seed in range(6):
            inst = _small_rank_tol_yes(k, seed)
            assert inst.answer == "yes"
            assert decide(inst.matrices, cfg)[0].answer != "no", (k, seed)


def quaternionic_collection(k, seed, n=3):
    """n members [[A, -conj B], [B, conj A]] (A, B complex k/2 x k/2),
    scrambled by one random complex Gamma: an antilinear S with
    S conj(S) = -I commutes with each, a quaternionic structure, so no
    change of basis makes them projectively real, though every spectrum
    is closed under conjugation."""
    rng = np.random.default_rng([k, seed])
    h = k // 2

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    g = random_invertible(rng, k)
    gi = np.linalg.inv(g)
    return [g @ np.block([[a, -b.conj()], [b, a.conj()]]) @ gi
            for a, b in ((cnormal(h, h), cnormal(h, h)) for _ in range(n))]


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_quaternionic_collections_never_get_a_yes(k):
    for seed in range(4):
        ms = quaternionic_collection(k, seed)
        # each spectrum pairs about a line, so only the solve can tell them from a Yes
        assert all(info.sclass.compatible for info in prepare(ms))
        answers = {}
        for method in FORCED_METHODS:
            try:
                answers[method] = decide(ms, method=method)[0].answer
            except RealformError:   # a refusal
                continue
        assert set(answers.values()) == {"no"}, (k, seed, answers)
        assert {"auto", "direct"} <= answers.keys(), (k, seed, answers)
