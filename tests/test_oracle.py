import numpy as np
import pytest

from realform import oracle
from realform.config import DEFAULT_TOLERANCES
from realform.decide import decide, verify_certificate
from realform.errors import InfeasibleSpec, SingularMatrix
from realform.oracle import InstanceSpec, brute_rform_search, generate
from realform.projlin import eig
from realform.spectrum import KIND_HYPERBOLIC, type_transformation

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
        spec = InstanceSpec(k=np.int64(4), n_generators=np.int32(2),
                            type_mix={"hyperbolic": np.int64(2)}, seed=np.uint64(3),
                            perturbation=(np.int64(1), np.float64(0.05)))
        plain = InstanceSpec(k=4, n_generators=2, type_mix={"hyperbolic": 2}, seed=3,
                             perturbation=(1, 0.05))
        got, want = generate(spec), generate(plain)
        assert len(got.matrices) == 2 and got.answer == "no"
        assert all(np.array_equal(a, b) for a, b in zip(got.matrices, want.matrices))

    # each reached the draw: a TypeError, ValueError or AttributeError there,
    # a float kept in the spec, or an unscrambled Yes instance
    @pytest.mark.parametrize("fields, match", [
        ({"k": 3.0}, "k must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"n_generators": 2.0}, "n_generators must be an integer"),
        ({"perturbation": (0, 0.05, 1)}, "perturbation must be a"),
        ({"perturbation": 0.05}, "perturbation must be a"),
        ({"perturbation": (0, "0.1")}, "perturbation index not an integer in range or magnitude"),
        ({"type_mix": [("hyperbolic", 2)]}, "type mix must map"),
        ({"scramble": "bogus"}, "scramble must be 'none' or 'random_gamma'"),
        # True is an Integral and a Real: a bool field drew a one-generator No
        ({"k": True}, "k must be an integer"),
        ({"n_generators": True, "type_mix": {"hyperbolic": True}},
         "n_generators must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"type_mix": {"hyperbolic": True, "elliptic": 1}}, "type mix must map"),
        ({"perturbation": (False, 0.05)}, "perturbation index not an integer in range"),
        ({"perturbation": (0, True)}, "perturbation index not an integer in range or magnitude"),
    ])
    def test_malformed_spec_rejected_before_the_draw(self, monkeypatch, fields, match):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew from a malformed spec")

        monkeypatch.setattr(oracle.np.random, "default_rng", no_draw)
        spec = InstanceSpec(**{"k": 3, "n_generators": 2, "type_mix": {"hyperbolic": 2},
                               **fields})
        with pytest.raises(InfeasibleSpec, match=match):
            generate(spec)


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


def _ref_spectra(ms, cfg):
    """One eig and one classification per matrix, up to the first matrix
    eig refuses: the loop the stacked pass replaced."""
    systems, spectra = [], []
    for m in ms:
        try:
            es = eig(m, cfg)
        except Exception as exc:   # the stacked pass returns the error instead
            return systems, spectra, exc
        systems.append(es)
        spectra.append(type_transformation(es, cfg))
    return systems, spectra, None


_ROTATION = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])   # elliptic
_JORDAN = np.array([[2.0, 1.0], [0.0, 2.0]])                                       # repeated
_SINGULAR = np.array([[1.0, 0.0], [0.0, 0.0]])
_HYPERBOLIC = np.diag([1.0, 2.0])


class TestStackedGates:
    """generate gates its generators with one eig and one classification
    pass over the stack; a gate of matrix i still comes before an eig
    error of matrix j > i."""

    SPEC = InstanceSpec(k=2, n_generators=2, type_mix={"hyperbolic": 2}, seed=7)

    @staticmethod
    def draw_first(monkeypatch, *matrices):
        # the crafted matrices make the first draw and take nothing from
        # the rng, so a resample then draws what a clean run draws first
        real, queue = oracle._generator, list(matrices)
        monkeypatch.setattr(oracle, "_generator",
                            lambda rng, k, t: queue.pop(0) if queue else real(rng, k, t))

    @pytest.mark.parametrize("first, second", [(_ROTATION, _JORDAN), (_ROTATION, _SINGULAR),
                                               (_HYPERBOLIC, _JORDAN)],
                             ids=["wrong type, repeated", "wrong type, singular", "repeated"])
    def test_resamples(self, monkeypatch, first, second):
        # a wrong type at matrix 0 wins over matrix 1's eig error, even one
        # that is no reason to resample
        clean = generate(self.SPEC)
        self.draw_first(monkeypatch, first, second)
        got = generate(self.SPEC)
        assert all(np.array_equal(a, b) for a, b in zip(got.matrices, clean.matrices))

    @pytest.mark.parametrize("first, second", [(_HYPERBOLIC, _SINGULAR), (_SINGULAR, _ROTATION)])
    def test_a_singular_member_raises(self, monkeypatch, first, second):
        self.draw_first(monkeypatch, first, second)
        with pytest.raises(SingularMatrix):
            generate(self.SPEC)

    def test_same_matrices_as_the_per_matrix_loop(self, monkeypatch):
        rng = np.random.default_rng(22)
        specs = []
        for i in range(40):
            k = 2 + i % 7
            kinds = ["hyperbolic"] + (["elliptic"] if k % 2 == 0 or k == 3 else []) + (
                ["mixed"] if k >= 3 else [])
            n = int(rng.integers(1, 4))
            mix = {}
            for t in rng.choice(kinds, size=n):
                mix[str(t)] = mix.get(str(t), 0) + 1
            specs.append(InstanceSpec(k, n, mix, seed=int(rng.integers(2**32)),
                                      perturbation=(0, 0.05) if i % 3 == 0 else None))
        stacked = [generate(s) for s in specs]
        monkeypatch.setattr(oracle, "_spectra", _ref_spectra)
        monkeypatch.setattr(oracle, "eigensystems", lambda ms, cfg: _ref_spectra(ms, cfg)[::2])
        for spec, got in zip(specs, stacked):
            want = generate(spec)
            assert got.answer == want.answer
            assert all(np.array_equal(a, b) for a, b in zip(got.matrices, want.matrices)), spec


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
        ({"grid": 2.5}, "grid and refine must be integers.*grid=2.5"),
        ({"refine": 1.5}, "grid and refine must be integers.*refine=1.5"),
        # True is an Integral: refine=True ran one round of each refinement
        ({"grid": True}, "grid and refine must be integers.*grid=True"),
        ({"refine": True}, "grid and refine must be integers.*refine=True"),
        ({"stop_at": True}, "stop_at must be a real number.*stop_at=True"),
        ({"stop_at": float("nan")}, "stop_at must be a real number.*stop_at=nan"),
        ({"stop_at": "0.1"}, "stop_at must be a real number.*stop_at='0.1'"),
        ({"stop_at": 0.1j}, "stop_at must be a real number"),
    ])
    def test_unsearchable_input_raises(self, kwargs, match):
        args = {"ms": no_common_circle_pair(), "grid": 10, "refine": 1, **kwargs}
        with pytest.raises(ValueError, match=match):
            brute_rform_search(args.pop("ms"), **args)

    def test_empty_collection_has_zero_defect(self):
        assert brute_rform_search([], grid=10, refine=1) == 0.0


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


def _ref_points_kinds(ms, cfg=DEFAULT_TOLERANCES):
    """Fixed points and kind of each matrix, one eig and one classification
    per matrix, as the search took them before the stacked pass."""
    out = []
    for m in ms:
        es = eig(np.asarray(m, dtype=complex), cfg)
        pts = tuple(complex(np.inf) if abs(b) <= cfg.deg_tol else a / b
                    for a, b in (d.coords for d in es.directions))
        out.append((pts, type_transformation(es, cfg).kind))
    return out


def _ref_brute_rform_search(ms, grid=200, refine=4, cfg=DEFAULT_TOLERANCES):
    """The search before the bounds: every generator at every circle of the
    coarse chunks and the refinement grids, on the per-candidate kernels."""
    points_kinds = _ref_points_kinds(ms, cfg)
    extent = 2.0
    for pts, _ in points_kinds:
        for p in pts:
            if not np.isinf(p):
                extent = max(extent, 1.5 * abs(p))
    xs = np.linspace(-extent, extent, grid)
    rs = np.geomspace(0.05, 2 * extent, grid)
    cgrid = (xs[:, None] + 1j * xs[None, :]).ravel()

    best = np.inf
    seeds = []
    step = max(1, oracle._CHUNK // grid)
    for start in range(0, cgrid.size, step):
        cs = cgrid[start:start + step]
        d = _ref_circle_defects(points_kinds, np.repeat(cs, grid), np.tile(rs, cs.size))
        order = np.argsort(d)[:oracle._STARTS]
        seeds.extend((float(d[i]), cs[i // grid].real, cs[i // grid].imag, rs[i % grid])
                     for i in order)
        best = min(best, float(d[order[0]]))
    seeds.sort()
    _, cx, cy, r = np.array(seeds[:oracle._STARTS]).T

    alphas = np.linspace(0, np.pi, grid, endpoint=False)
    dline = _ref_line_defects(points_kinds, np.repeat(alphas, grid), np.tile(xs, grid))
    li = int(np.argmin(dline))
    la, lo = alphas[li // grid], xs[li % grid]
    best = min(best, float(dline[li]))

    aspan, ospan = 2 * np.pi / grid, 4 * extent / grid
    for _ in range(3 * refine):
        na = np.linspace(la - aspan, la + aspan, 15)
        no = np.linspace(lo - ospan, lo + ospan, 15)
        d = _ref_line_defects(points_kinds, np.repeat(na, 15), np.tile(no, 15))
        i = int(np.argmin(d))
        if d[i] < best:
            best = float(d[i])
        la, lo = na[i // 15], no[i % 15]
        aspan /= 2.5
        ospan /= 2.5

    span = 4 * extent / grid
    rspan = 2 * r * (rs[1] / rs[0] - 1) + 4 * extent / grid
    each = np.arange(cx.size)
    for _ in range(3 * refine):
        nx = np.linspace(cx - span, cx + span, 11, axis=-1)
        ny = np.linspace(cy - span, cy + span, 11, axis=-1)
        nr = np.linspace(np.maximum(r - rspan, 1e-4), r + rspan, 11, axis=-1)
        cc = (nx[:, :, None] + 1j * ny[:, None, :]).reshape(cx.size, 121)
        d = np.stack([_ref_circle_defects(points_kinds, np.repeat(cc[s], 11), np.tile(nr[s], 121))
                      for s in each])
        i = np.argmin(d, axis=1)
        best = float(min(best, *d[each, i]))
        cx, cy, r = cc[each, i // 11].real, cc[each, i // 11].imag, nr[each, i % 11]
        span /= 2.5
        rspan /= 2.5
    return float(best)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_grid_kernels_match_the_per_candidate_kernels(case):
    # the search keeps the perturbation phase with the largest defect, so
    # the grid kernels must return the per-candidate values bit for bit
    ms = KERNEL_CASES[case]()
    points_kinds = oracle._fixed_points_cp1(np.array(ms, dtype=complex), DEFAULT_TOLERANCES)
    assert points_kinds == _ref_points_kinds(ms)
    xs = np.linspace(-3.0, 3.0, 13)
    assert 0.0 in xs and 1.0 in xs
    c = (xs[:, None] + 1j * xs[None, :]).ravel()
    rs = np.geomspace(0.05, 6.0, 13)
    want = _ref_circle_defects(points_kinds, np.repeat(c, rs.size), np.tile(rs, c.size))
    for order in (np.arange(len(ms)), np.arange(len(ms))[::-1]):
        got = oracle._circle_defects(points_kinds, c[None], rs[None], np.array([np.inf]), order)
        assert got.shape == (1, c.size * rs.size)
        assert np.array_equal(got[0], want)

    # a batch of grids, as the refinement evaluates all its starts at once
    cb, rb = c.reshape(13, 13), np.stack([rs, rs[::-1] / 3])
    got = oracle._circle_defects(points_kinds, cb[:2], rb, np.full(2, np.inf), np.arange(len(ms)))
    for row in range(2):
        want = _ref_circle_defects(points_kinds, np.repeat(cb[row], 13), np.tile(rb[row], 13))
        assert np.array_equal(got[row], want)

    alphas = np.linspace(0, np.pi, 13, endpoint=False)
    got = oracle._line_defects(points_kinds, alphas, xs)
    want = _ref_line_defects(points_kinds, np.repeat(alphas, 13), np.tile(xs, 13))
    assert got.shape == (13, 13) and np.array_equal(got.ravel(), want)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_middle_circle_kernel_matches_the_per_candidate_kernel(case):
    # the refinement's middle circles take every one-point term in one
    # broadcast, as the line grids do (checked above); each generator's row
    # must be its per-candidate value
    ms = KERNEL_CASES[case]()
    points_kinds = _ref_points_kinds(ms)
    xs = np.linspace(-3.0, 3.0, 13)
    c = np.repeat((xs[:, None] + 1j * xs[None, :]).ravel(), 13)
    r = np.tile(np.geomspace(0.05, 6.0, 13), 169)
    got = oracle._generator_defects(points_kinds, c, r ** 2)
    assert got.shape == (len(ms), c.size)
    for g, row in enumerate(got):
        assert np.array_equal(row, _ref_circle_defects(points_kinds[g:g + 1], c, r))
    assert np.array_equal(got.max(axis=0), _ref_circle_defects(points_kinds, c, r))


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_bounded_kernel_keeps_every_circle_within_the_bound(case):
    # each grid's own bound: a circle at or below it keeps its exact value
    # whichever generator comes first, and every other circle reads inf
    ms = KERNEL_CASES[case]()
    points_kinds = _ref_points_kinds(ms)
    xs = np.linspace(-3.0, 3.0, 13)
    cb = (xs[:, None] + 1j * xs[None, :])[:3]
    rb = np.stack([np.geomspace(0.05, 6.0, 13), np.geomspace(0.1, 3.0, 13), np.full(13, 1.0)])
    want = np.stack([_ref_circle_defects(points_kinds, np.repeat(cb[s], 13), np.tile(rb[s], 13))
                     for s in range(3)])
    bound = np.stack([np.quantile(w, q) for w, q in zip(want, (0.0, 0.1, 0.5))])
    for order in (np.arange(len(ms)), np.arange(len(ms))[::-1]):
        got = oracle._circle_defects(points_kinds, cb, rb, bound, order)
        assert np.array_equal(got, np.where(want <= bound[:, None], want, np.inf))


def _perturbed_k2(seed):
    n = 2 + seed % 3
    mix = ({"hyperbolic": n}, {"elliptic": n}, {"hyperbolic": 1, "elliptic": n - 1})[seed % 3]
    return generate(InstanceSpec(2, n, mix, seed=seed, perturbation=(seed % n, 0.05))).matrices


class TestSearchMatchesTheUnboundedSearch:
    """The bounds drop only circles that cannot be kept, so the search
    returns the float of the search that evaluates every circle."""

    @pytest.mark.parametrize("case", KERNEL_CASES)
    @pytest.mark.parametrize("grid, refine", [(40, 3), (13, 2)])
    def test_kernel_cases(self, case, grid, refine):
        # the two one-generator cases tie exactly at the coarse cut (13 and
        # 10 circles share the fourth smallest defect at grid 40), and the
        # bounded chunk picks other tied circles as starts than quicksort
        # on the whole chunk; what is asserted there is the same float
        ms = KERNEL_CASES[case]()
        assert (brute_rform_search(ms, grid=grid, refine=refine)
                == _ref_brute_rform_search(ms, grid=grid, refine=refine))

    @pytest.mark.parametrize("seed", range(8))
    def test_perturbed_draws(self, seed):
        ms = _perturbed_k2(seed)
        for grid, refine in ((40, 3), (60, 4)):
            assert (brute_rform_search(ms, grid=grid, refine=refine)
                    == _ref_brute_rform_search(ms, grid=grid, refine=refine))

    @pytest.mark.parametrize("grid", [2, 3])
    def test_chunks_smaller_than_the_subsample_needs(self, grid):
        # 8 and 27 circles: every 7th leaves 2 (no bound) and 4 (a bound)
        for ms in (no_common_circle_pair(), _perturbed_k2(1)):
            assert (brute_rform_search(ms, grid=grid, refine=2)
                    == _ref_brute_rform_search(ms, grid=grid, refine=2))

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_and_one_generator(self, n):
        ms = _perturbed_k2(2)[:n]
        assert (brute_rform_search(ms, grid=20, refine=2)
                == _ref_brute_rform_search(ms, grid=20, refine=2))

    def test_many_chunks(self, monkeypatch):
        # 7 centers (91 circles) a chunk, the last one a single center
        collections = (no_common_circle_pair(), _perturbed_k2(4))
        monkeypatch.setattr(oracle, "_CHUNK", 100)
        for ms in collections:
            assert (brute_rform_search(ms, grid=13, refine=2)
                    == _ref_brute_rform_search(ms, grid=13, refine=2))


class TestStopAt:
    """``stop_at`` ends the search once its best defect is at most that
    value; a search whose defect stays above it runs in full."""

    @pytest.mark.parametrize("seed", range(3))
    def test_above_or_at_most_the_stop(self, seed):
        ms = _perturbed_k2(seed)
        full = brute_rform_search(ms, grid=40, refine=3)
        for stop in (-np.inf, -1.0, 0.0, full / 2, np.nextafter(full, 0), full, 2 * full, np.inf):
            got = brute_rform_search(ms, grid=40, refine=3, stop_at=stop)
            if full > stop:
                assert got == full
            else:
                assert got <= stop

    def test_stops_before_the_later_stages(self, monkeypatch):
        # a stop above every coarse circle's defect ends the search after
        # the coarse chunk: no refinement round and no line is evaluated
        ms, lines = _perturbed_k2(1), []
        real = oracle._line_defects
        monkeypatch.setattr(oracle, "_line_defects", lambda *a: lines.append(1) or real(*a))
        assert brute_rform_search(ms, grid=40, refine=3, stop_at=10.0) <= 10.0
        assert lines == []
        brute_rform_search(ms, grid=40, refine=3)
        assert len(lines) == 1 + 3 * 3


def _ref_probe(ms, g_idx, magnitude, rng, gamma, cfg):
    """The phase probe before the stop: all four full searches, the first
    phase with the largest defect kept."""
    es, vecs, delta, _ = oracle._perturbation_delta(ms[g_idx], rng, gamma, cfg)
    cands, defects = [], []
    for j in range(4):
        cand = list(ms)
        cand[g_idx] = oracle._apply_perturbation(es, vecs, delta * np.exp(1j * np.pi * j / 4),
                                                 magnitude)
        cands.append(cand)
        defects.append(brute_rform_search(cand, grid=40, refine=3, cfg=cfg))
    j = int(np.argmax(defects))
    return cands[j], defects[j]


class TestPhaseProbe:
    """The k = 2 probe stops a phase that cannot beat the best so far, and
    keeps the phase and defect of the four full searches."""

    @pytest.mark.parametrize("seed", range(9))
    def test_same_phase_and_defect_as_the_full_searches(self, seed):
        n = 2 + seed % 3
        mix = ({"hyperbolic": n}, {"elliptic": n}, {"hyperbolic": 1, "elliptic": n - 1})[seed % 3]
        inst = generate(InstanceSpec(2, n, mix, seed=seed))
        g_idx, cfg = seed % n, DEFAULT_TOLERANCES
        got = oracle._perturb_eigendirection(inst.matrices, g_idx, 0.05,
                                             np.random.default_rng(seed), inst.gamma, cfg)
        want = _ref_probe(inst.matrices, g_idx, 0.05, np.random.default_rng(seed), inst.gamma, cfg)
        assert got[1] == want[1]
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))

    @pytest.mark.parametrize("seed", range(3))
    def test_generate_matches_the_full_searches(self, monkeypatch, seed):
        spec = InstanceSpec(2, 3, {"hyperbolic": 2, "elliptic": 1}, seed=seed,
                            perturbation=(seed, 0.05))
        got = generate(spec)
        monkeypatch.setattr(oracle, "_perturb_eigendirection", _ref_probe)
        want = generate(spec)
        assert all(np.array_equal(a, b) for a, b in zip(got.matrices, want.matrices))

    def test_calls_the_module_global(self, monkeypatch):
        # the benchmark's tracer times the oracle by wrapping this global
        stops = []
        real = oracle.brute_rform_search

        def counting(*args, **kwargs):
            stops.append(kwargs["stop_at"])
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "brute_rform_search", counting)
        generate(InstanceSpec(2, 2, {"hyperbolic": 2}, seed=0, perturbation=(0, 0.05)))
        assert len(stops) == 4 and stops[0] == -1.0
