import numpy as np
import pytest

from realform import oracle
from realform.decide import decide, verify_certificate
from realform.errors import InfeasibleSpec
from realform.oracle import InstanceSpec, brute_rform_search, generate

from conftest import no_common_circle_pair


class TestInstanceSpec:
    def test_mix_must_sum(self):
        with pytest.raises(InfeasibleSpec):
            generate(InstanceSpec(k=2, n_generators=2, type_mix={"hyperbolic": 1}))

    def test_odd_k_elliptic_infeasible(self):
        with pytest.raises(InfeasibleSpec):
            generate(InstanceSpec(k=5, n_generators=1, type_mix={"elliptic": 1}))

    def test_k3_elliptic_feasible(self):
        inst = generate(InstanceSpec(k=3, n_generators=1, type_mix={"elliptic": 1}, seed=1))
        assert len(inst.matrices) == 1

    def test_mixed_needs_k3(self):
        with pytest.raises(InfeasibleSpec):
            generate(InstanceSpec(k=2, n_generators=1, type_mix={"mixed": 1}))

    @pytest.mark.parametrize("k, n", [(1, 1), (9, 1), (3, 0)])
    def test_k_and_generator_count_in_range(self, k, n):
        with pytest.raises(InfeasibleSpec):
            InstanceSpec(k=k, n_generators=n, type_mix={"hyperbolic": n}).validate()

    def test_negative_seed(self):
        with pytest.raises(InfeasibleSpec, match="seed"):
            generate(InstanceSpec(k=3, n_generators=2, type_mix={"hyperbolic": 2}, seed=-1))

    def test_bad_perturbation_index(self):
        with pytest.raises(InfeasibleSpec):
            generate(InstanceSpec(k=2, n_generators=2, type_mix={"hyperbolic": 2},
                                  perturbation=(5, 0.05)))

    @pytest.mark.parametrize("mag", [0.0, float("nan"), float("inf")])
    def test_perturbation_magnitude_positive_and_finite(self, mag):
        with pytest.raises(InfeasibleSpec):
            InstanceSpec(k=2, n_generators=2, type_mix={"hyperbolic": 2},
                         perturbation=(1, mag)).validate()


class TestGenerate:
    def test_seed_determinism(self):
        spec = InstanceSpec(k=3, n_generators=3, type_mix={"hyperbolic": 2, "elliptic": 1}, seed=5)
        a = generate(spec)
        b = generate(spec)
        for m1, m2 in zip(a.matrices, b.matrices):
            assert np.array_equal(m1, m2)

    def test_yes_instances_verify_tightly(self):
        for seed in range(6):
            inst = generate(InstanceSpec(k=4, n_generators=3,
                                         type_mix={"hyperbolic": 2, "elliptic": 1}, seed=seed))
            assert inst.answer == "yes"
            assert verify_certificate(inst.matrices, inst.gamma) < 1e-10

    def test_no_instances_decide_no(self):
        for seed in range(6):
            inst = generate(InstanceSpec(k=3, n_generators=3,
                                         type_mix={"hyperbolic": 2, "elliptic": 1},
                                         seed=seed, perturbation=(1, 0.05)))
            assert inst.answer == "no" and inst.gamma is None
            verdict, _ = decide(inst.matrices)
            assert verdict.answer == "no"

    def test_unscrambled_matrices_are_real(self):
        inst = generate(InstanceSpec(k=3, n_generators=2, type_mix={"hyperbolic": 2},
                                     seed=2, scramble="none"))
        for m in inst.matrices:
            assert np.max(np.abs(np.asarray(m, dtype=complex).imag)) < 1e-12

    def test_unexpected_errors_propagate(self, monkeypatch):
        # only a missed gate is retried; a bug must not turn into InfeasibleSpec
        def broken(rng, k, gtype):
            raise TypeError("broken generator")

        monkeypatch.setattr(oracle, "_generator", broken)
        with pytest.raises(TypeError):
            generate(InstanceSpec(k=3, n_generators=2, type_mix={"hyperbolic": 2}, seed=0))


class TestBruteSearch:
    def test_yes_instance_small_defect(self):
        inst = generate(InstanceSpec(k=2, n_generators=2, type_mix={"hyperbolic": 2}, seed=2))
        assert brute_rform_search(inst.matrices, grid=60) < 1e-3

    def test_elliptic_yes_instance(self):
        inst = generate(InstanceSpec(k=2, n_generators=3, type_mix={"elliptic": 3}, seed=4))
        assert brute_rform_search(inst.matrices, grid=60) < 1e-3

    def test_no_pair_large_defect(self):
        assert brute_rform_search(no_common_circle_pair(), grid=60) > 1e-2

    def test_single_matrix_near_zero(self):
        inst = generate(InstanceSpec(k=2, n_generators=1, type_mix={"hyperbolic": 1}, seed=3))
        assert brute_rform_search(inst.matrices, grid=40) < 1e-3

    def test_line_preserving_collection(self):
        inst = generate(InstanceSpec(k=2, n_generators=2, type_mix={"hyperbolic": 2},
                                     seed=2, scramble="none"))
        assert brute_rform_search(inst.matrices, grid=40) < 1e-3
