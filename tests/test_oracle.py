import numpy as np
import pytest

from realform import oracle
from realform.config import DEFAULT_TOLERANCES
from realform.decide import decide, verify_certificate
from realform.errors import InfeasibleSpec
from realform.oracle import InstanceSpec, brute_rform_search, generate
from realform.spectrum import KIND_HYPERBOLIC

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

    # each passed validation: an empty or short instance, or a TypeError while drawing
    @pytest.mark.parametrize("mix, perturbation, match", [
        ({"parabolic": 2}, None, "type mix must map hyperbolic, elliptic, mixed to integer"),
        ({"hyperbolic": 1, "Elliptic": 1}, None, "type mix must map"),
        ({"hyperbolic": 1.0, "elliptic": 1}, None, "type mix must map"),
        ({"hyperbolic": "2"}, None, "type mix must map"),
        ({"hyperbolic": 2}, (0.5, 0.05), "perturbation index not an integer in range"),
    ])
    def test_unrealizable_spec_rejected(self, mix, perturbation, match):
        with pytest.raises(InfeasibleSpec, match=match):
            generate(InstanceSpec(k=4, n_generators=2, type_mix=mix, perturbation=perturbation))

    def test_numpy_integer_counts_accepted(self):
        spec = InstanceSpec(k=4, n_generators=2, type_mix={"hyperbolic": np.int64(2)},
                            seed=3, perturbation=(np.int64(1), 0.05))
        assert len(generate(spec).matrices) == 2


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

    @pytest.mark.parametrize("kwargs, match", [
        ({"ms": [np.eye(3)]}, "matrix 0.*2x2.*shape \\(3, 3\\)"),
        ({"grid": 1}, "grid >= 2.*grid=1"),
        ({"grid": 0}, "grid >= 2.*grid=0"),
        ({"refine": -1}, "refine >= 0.*refine=-1"),
    ])
    def test_unsearchable_input_raises(self, kwargs, match):
        args = {"ms": no_common_circle_pair(), "grid": 10, "refine": 1, **kwargs}
        with pytest.raises(ValueError, match=match):
            brute_rform_search(args.pop("ms"), **args)


# the per-circle and per-line kernels the grid kernels replaced: each
# evaluates a flat list of circles or lines, one entry per candidate

def _ref_gap_vec(z, w):
    zinf = ~np.isfinite(z)
    if np.isinf(w):
        out = np.empty(z.shape)
        out[zinf] = 0.0
        zf = z[~zinf]
        out[~zinf] = 2.0 / np.sqrt(1 + np.abs(zf) ** 2)
        return out
    out = np.empty(z.shape)
    out[zinf] = 2.0 / np.sqrt(1 + abs(w) ** 2)
    zf = z[~zinf]
    out[~zinf] = 2 * np.abs(zf - w) / np.sqrt((1 + np.abs(zf) ** 2) * (1 + abs(w) ** 2))
    return out


def _ref_invert_vec(z, c, r):
    if np.isinf(z):
        return c.copy()
    d = z - c
    small = np.abs(d) < 1e-300
    out = np.empty_like(c)
    out[small] = np.inf
    out[~small] = c[~small] + (r[~small] ** 2) / np.conj(d[~small])
    return out


def _ref_circle_defects(points_kinds, c, r):
    worst = np.zeros(c.shape)
    for (p, q), kind in points_kinds:
        ip, iq = _ref_invert_vec(p, c, r), _ref_invert_vec(q, c, r)
        if kind == KIND_HYPERBOLIC:
            d = np.maximum(_ref_gap_vec(ip, p), _ref_gap_vec(iq, q))
        else:
            d = np.maximum(_ref_gap_vec(ip, q), _ref_gap_vec(iq, p))
        worst = np.maximum(worst, d)
    return worst


def _ref_reflect_vec(z, e2, p0):
    if np.isinf(z):
        return np.full(e2.shape, np.inf, dtype=complex)
    return e2 * np.conj(z - p0) + p0


def _ref_line_defects(points_kinds, alpha, offset):
    e = np.exp(1j * alpha)
    e2 = e * e
    p0 = offset * 1j * e
    worst = np.zeros(alpha.shape)
    for (p, q), kind in points_kinds:
        rp, rq = _ref_reflect_vec(p, e2, p0), _ref_reflect_vec(q, e2, p0)
        if kind == KIND_HYPERBOLIC:
            d = np.maximum(_ref_gap_vec(rp, p), _ref_gap_vec(rq, q))
        else:
            d = np.maximum(_ref_gap_vec(rp, q), _ref_gap_vec(rq, p))
        worst = np.maximum(worst, d)
    return worst


KERNEL_CASES = {
    "hyperbolic": lambda: generate(InstanceSpec(2, 2, {"hyperbolic": 2}, seed=1)).matrices,
    "elliptic": lambda: generate(InstanceSpec(2, 2, {"elliptic": 2}, seed=1)).matrices,
    "both kinds": lambda: generate(InstanceSpec(2, 3, {"hyperbolic": 2, "elliptic": 1},
                                                seed=3, perturbation=(0, 0.05))).matrices,
    # with extent 3 and 13 grid steps, 0 and 1 are grid centers exactly; one
    # generator each, so no other pair's defect hides the point on a center
    "hyperbolic, fixed points infinity and 1": lambda: [np.array([[1, 1], [0, 2]])],
    "elliptic, fixed points 0 and infinity": lambda: [np.diag([1 + 1j, 1 - 1j])],
}


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_grid_kernels_match_the_per_candidate_kernels(case):
    # the search keeps the perturbation phase with the largest defect, so
    # the grid kernels must return the per-candidate values bit for bit
    points_kinds = [(tuple(pts), kind) for pts, kind in
                    (oracle._fixed_points_cp1(np.asarray(m, dtype=complex), DEFAULT_TOLERANCES)
                     for m in KERNEL_CASES[case]())]
    xs = np.linspace(-3.0, 3.0, 13)
    assert 0.0 in xs and 1.0 in xs
    c = (xs[:, None] + 1j * xs[None, :]).ravel()
    rs = np.geomspace(0.05, 6.0, 13)
    got = oracle._circle_defects(points_kinds, c, rs)
    assert got.shape == (c.size, rs.size)
    want = _ref_circle_defects(points_kinds, np.repeat(c, rs.size), np.tile(rs, c.size))
    assert np.array_equal(got.ravel(), want)

    # a batch of grids, as the refinement evaluates all its starts at once
    cb, rb = c.reshape(13, 13), np.stack([rs, rs[::-1] / 3])
    got = oracle._circle_defects(points_kinds, cb[:2], rb)
    for row in range(2):
        want = _ref_circle_defects(points_kinds, np.repeat(cb[row], 13), np.tile(rb[row], 13))
        assert np.array_equal(got[row].ravel(), want)

    alphas = np.linspace(0, np.pi, 13, endpoint=False)
    got = oracle._line_defects(points_kinds, alphas, xs)
    want = _ref_line_defects(points_kinds, np.repeat(alphas, 13), np.tile(xs, 13))
    assert got.shape == (13, 13) and np.array_equal(got.ravel(), want)
