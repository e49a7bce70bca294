import importlib

import numpy as np
import pytest

from realform.decide import (
    METHOD_CROSS,
    METHOD_DIM2,
    METHOD_DIM3,
    METHOD_DIRECT,
    METHOD_FG,
    condition_functions_pgl2,
    decide,
    decide_direct,
    decide_pgl2,
    decide_pglk_cross_only,
    verify_certificate,
)
from realform.config import DEFAULT_TOLERANCES
from realform.errors import (
    DegenerateTriple,
    GenericityViolation,
    IncompatibleEigenvalues,
    NumericalDegeneracy,
    RepeatedEigenvalues,
    SharedEigendirections,
    SpectralPreconditionError,
)
from realform.oracle import InstanceSpec, generate
from realform.projlin import ProjPoint, proj_dist
from realform.rform import Multiplicity

from conftest import no_common_circle_pair, random_invertible, unit_circle_collection


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
        with pytest.raises(GenericityViolation):
            decide(inst.matrices, method="cross")


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

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            decide([np.diag([2.0, 1.0])], method="bogus")


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
        # fg's own certification, then its direct fallback, which raises
        assert calls == {"decide_direct": 1, "conjugation_witness": 2}
