import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realform.coords import (
    CrossRatio,
    conj_pair_defect,
    cross_ratio,
    config_cross_ratio,
    cross_ratio_lists,
    cross_ratio_set,
    fg_cross_ratio,
    frame_cross_ratio_sets,
    in_unit_circle,
    is_real,
    is_real_extended,
    is_real_positive,
    row_cross_ratios,
    triple_ratio,
    triple_ratio_cp2,
    triple_ratio_set,
)
from realform.errors import (
    DegenerateTriple,
    GenericityViolation,
    IndeterminateCrossRatio,
    RealformError,
)
from realform.flags import (
    Flag,
    first_nongeneric_coords,
    generic_position,
    generic_with_point,
    make_flag,
    quotient_cp1,
    quotient_cp2,
)
from realform.config import DEFAULT_TOLERANCES
from realform.projlin import ProjPoint

from conftest import pp, random_invertible

INF = pp(1, 0)


def aff(z):
    return pp(z, 1)


def quad_strategy():
    reals = st.floats(-4, 4, allow_nan=False)
    return st.tuples(*(st.tuples(reals, reals) for _ in range(4))).filter(
        lambda q: min(
            abs(complex(*q[i]) - complex(*q[j])) for i in range(4) for j in range(i + 1, 4)
        ) > 1e-2
    )


class TestCrossRatio:
    def test_normalization(self):
        assert abs(cross_ratio(INF, aff(5), aff(0), aff(1)).value - 5) < 1e-12

    def test_rotation_fixed_points(self):
        # [inf, i, 0, -i] equals the ratio i / (-i)
        assert abs(cross_ratio(INF, aff(1j), aff(0), aff(-1j)).value + 1) < 1e-12

    def test_equal_second_and_fourth(self):
        assert abs(cross_ratio(INF, aff(1), aff(0), aff(1)).value - 1) < 1e-12

    def test_infinite_value(self):
        inf_cr = cross_ratio(aff(1), aff(1), aff(0), aff(2))  # first slots coincide
        assert inf_cr.infinite
        assert is_real_extended(inf_cr, 1e-9)

    def test_indeterminate(self):
        with pytest.raises(IndeterminateCrossRatio):
            cross_ratio(aff(1), aff(1), aff(0), aff(1))

    def test_rows_indeterminate(self):
        # the second of two quadruples is [x, x, 0, x]: 0/0, and the whole evaluation raises
        a = np.array([[1, 0], [1, 1]], dtype=complex)
        c = np.array([[0, 1], [0, 1]], dtype=complex)
        d = np.array([[1, 1], [1, 1]], dtype=complex)
        with pytest.raises(IndeterminateCrossRatio, match="^0/0 cross ratio: too many coincident points$"):
            row_cross_ratios(a, a, c, d)

    def test_fg_normalization(self):
        for x in (0.7, 2.5, -1.25, 1 + 2j):
            assert abs(fg_cross_ratio(INF, aff(-1), aff(0), aff(x)).value - x) < 1e-12
        assert abs(fg_cross_ratio(INF, aff(-1), aff(0), aff(1)).value - 1) < 1e-12

    @given(quad_strategy())
    @settings(max_examples=200, deadline=None)
    def test_dictionary_between_normalizations(self, quad):
        a, b, c, d = (aff(complex(*z)) for z in quad)
        main = cross_ratio(a, b, c, d).value
        # corrected dictionary: swapping the 2nd and 4th slots negates
        assert abs(main + fg_cross_ratio(a, d, c, b).value) < 1e-9 * (1 + abs(main))
        # equivalently a product identity with the reversed slots
        prod = main * fg_cross_ratio(b, a, d, c).value
        assert abs(prod + 1) < 1e-9 * (1 + abs(main))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_projective_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = [ProjPoint(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(4)]
        try:
            base = cross_ratio(*pts).value
        except IndeterminateCrossRatio:
            return
        g = random_invertible(rng, 2)
        moved = [ProjPoint(g @ p.coords) for p in pts]
        assert abs(cross_ratio(*moved).value - base) < 1e-7 * (1 + abs(base))


def concyclic_oracle(zs):
    """Determinant test: four finite points on a common circle or line."""
    rows = [[abs(z) ** 2, z.real, z.imag, 1.0] for z in zs]
    return abs(np.linalg.det(np.array(rows)))


class TestRealnessGeometry:
    def test_real_iff_concyclic(self, rng):
        hits = 0
        for _ in range(200):
            center = complex(rng.normal(), rng.normal())
            radius = rng.uniform(0.5, 2.0)
            angles = rng.uniform(0, 2 * np.pi, size=4)
            zs = [center + radius * np.exp(1j * t) for t in angles]
            if min(abs(zs[i] - zs[j]) for i in range(4) for j in range(i + 1, 4)) < 1e-2:
                continue
            cr = cross_ratio(*(aff(z) for z in zs))
            assert is_real_extended(cr, 1e-8)
            assert concyclic_oracle(zs) < 1e-8
            off = zs[:3] + [zs[3] + 0.3 + 0.4j]
            cr2 = cross_ratio(*(aff(z) for z in off))
            if concyclic_oracle(off) > 1e-3:
                assert not is_real(cr2, 1e-7)
                hits += 1
        assert hits > 100

    def test_sign_encodes_separation(self):
        # sign convention checked against the defining formula: a real
        # cross ratio is positive exactly when the 2nd and 4th points do
        # not separate the 1st and 3rd along their common circle
        angles_pos = [0.0, 1.5, 3.0, 0.7]        # b, d inside the same a..c arc
        a, b, c, d = (aff(np.exp(1j * t)) for t in angles_pos)
        assert is_real_positive(cross_ratio(a, b, c, d), 1e-8)
        angles_neg = [0.0, 1.0, 1.5, 2.5]        # consecutive order: b, d separated by a, c
        a, b, c, d = (aff(np.exp(1j * t)) for t in angles_neg)
        cr = cross_ratio(a, b, c, d)
        assert is_real(cr, 1e-8) and (cr.num * np.conj(cr.den)).real < 0
        # the affine normalization pins the convention: [inf, x, 0, 1] = x
        assert is_real_positive(cross_ratio(INF, aff(0.5), aff(0), aff(1)), 1e-8)
        cr = cross_ratio(INF, aff(-0.5), aff(0), aff(1))
        assert is_real(cr, 1e-8) and (cr.num * np.conj(cr.den)).real < 0

    def test_modulus_one_iff_inversion_swap(self, rng):
        # modulus 1 exactly when the 2nd and 4th points are swapped by
        # inversion about a circle through the 1st and 3rd (the
        # normalized case [inf, b, 0, d] = b/d with |b| = |d|)
        for _ in range(100):
            center = complex(rng.normal(), rng.normal())
            radius = rng.uniform(0.5, 2.0)
            ta, tc = rng.uniform(0, 2 * np.pi, size=2)
            if abs(np.exp(1j * ta) - np.exp(1j * tc)) < 1e-2:
                continue
            a = center + radius * np.exp(1j * ta)
            c = center + radius * np.exp(1j * tc)
            b = complex(rng.normal(), rng.normal())
            if abs(b - center) < 0.1:
                continue
            d = center + radius**2 / np.conj(b - center)
            cr = cross_ratio(aff(a), aff(b), aff(c), aff(d))
            assert in_unit_circle(cr, 1e-7)
            cr2 = cross_ratio(aff(a), aff(b), aff(c), aff(d + 0.3))
            if abs(abs(cr2.value) - 1) > 1e-3:
                assert not in_unit_circle(cr2, 1e-7)


class TestCrossRatioSet:
    def test_successive_ratios(self):
        a = make_flag(list(np.eye(3, dtype=complex)))
        c = a.reversed()
        crs = cross_ratio_set(a, pp(2, 4, 8), c, pp(1, 1, 1))
        assert [round(abs(cr.value), 12) for cr in crs] == [0.5, 0.5]

    def test_reference_line_gives_ones(self):
        a = make_flag(list(np.eye(3, dtype=complex)))
        c = a.reversed()
        crs = cross_ratio_set(a, pp(1, 1, 1), c, pp(1, 1, 1))
        assert all(abs(cr.value - 1) < 1e-12 for cr in crs)

    def test_real_line_gives_reals(self, rng):
        a = make_flag(list(np.eye(4, dtype=complex)))
        c = a.reversed()
        b1 = ProjPoint(rng.uniform(0.5, 2, size=4))
        crs = cross_ratio_set(a, b1, c, pp(1, 1, 1, 1))
        assert all(is_real(cr, 1e-9) for cr in crs)

    def test_genericity_gate(self):
        # cross_ratio_set leaves genericity to its callers, which gate on this
        a = make_flag(list(np.eye(3, dtype=complex)))
        c = a.reversed()
        assert first_nongeneric_coords(np.array([[1, 0, 1]]), np.ones(3)) == 0
        assert not generic_with_point(a, pp(1, 0, 1), c, pp(1, 1, 1))

    def test_count(self, rng):
        for k in range(3, 9):
            a = make_flag(list(np.eye(k, dtype=complex)))
            c = a.reversed()
            b1 = ProjPoint(rng.normal(size=k) + 1j * rng.normal(size=k))
            crs = cross_ratio_set(a, b1, c, ProjPoint(np.ones(k)))
            assert len(crs) == k - 1


class TestCrossRatioSets:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_shared_bases_match_per_line_quotients(self, rng, k):
        a = make_flag(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        c = a.reversed()
        d1 = ProjPoint(rng.normal(size=k) + 1j * rng.normal(size=k))
        lines = [ProjPoint(rng.normal(size=k) + 1j * rng.normal(size=k)) for _ in range(4)]
        got = frame_coords_cross_ratios(a, lines, d1)
        assert len(got) == len(lines)
        for line, crs in zip(lines, got):
            expect = [config_cross_ratio(quotient_cp1(a, line, c, d1, i, k - 2 - i))
                      for i in range(k - 1)]
            assert [cr.provenance for cr in crs] == [cr.provenance for cr in expect]
            assert close([cr.value for cr in crs], [cr.value for cr in expect])
            single = cross_ratio_set(a, line, c, d1)
            assert close([cr.value for cr in single], [cr.value for cr in crs])

    def test_one_nongeneric_line_fails_the_set(self):
        a = make_flag(list(np.eye(3, dtype=complex)))
        c = a.reversed()
        assert first_nongeneric_coords(np.array([[1, 2, 1], [1, 0, 1]]), np.ones(3)) == 1
        assert [generic_with_point(a, v, c, pp(1, 1, 1)) for v in (pp(1, 2, 1), pp(1, 0, 1))] == \
            [True, False]

    def test_needs_the_reversed_flag(self, rng):
        a = make_flag(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        c = make_flag(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        with pytest.raises(ValueError, match="C = A reversed"):
            cross_ratio_set(a, pp(1, 2, 3), c, pp(1, 1, 1))


def close(got, expected, rtol=1e-9):
    """Complex values equal to rtol relative, or both infinite."""
    got, expected = np.asarray(got, complex), np.asarray(expected, complex)
    both_inf = np.isinf(got) & np.isinf(expected)
    return bool(np.all(both_inf | (np.abs(got - expected) <= rtol * np.abs(expected))))


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def first_raise(fn):
    """(type, message) of what fn raises, or None."""
    try:
        fn()
    except (RealformError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def per_line_cross_ratios(a, lines, c, d1, cfg=DEFAULT_TOLERANCES):
    """One quotient_cp1 per (line, i): [([A,B,C,D], [[A,B,C,D]], provenance)] per line."""
    k = a.dim
    out = []
    for line in lines:
        row = []
        for i in range(k - 1):
            config = quotient_cp1(a, line, c, d1, i, k - 2 - i, cfg)
            cr, fg = config_cross_ratio(config), fg_cross_ratio(*config.points)
            row.append((cr.value, fg.value, cr.provenance))
        out.append(row)
    return out


def frame_coords_cross_ratios(a, lines, d1):
    """frame_cross_ratio_sets on the lines' and d1's coordinates in A's basis,
    one list of CrossRatios per line."""
    frame = np.linalg.inv(a.vectors)
    return cross_ratio_lists(
        frame_cross_ratio_sets(np.array([v.coords for v in lines]) @ frame, d1.coords @ frame))


def closed_form_cross_ratios(a, lines, d1):
    """frame_cross_ratio_sets and cross_ratio_set in the layout of per_line_cross_ratios;
    [[A,B,C,D]] = -1 / [A,B,C,D]."""
    sets = frame_coords_cross_ratios(a, lines, d1)
    again = [cross_ratio_set(a, line, a.reversed(), d1) for line in lines]
    assert all(close([cr.value for cr in crs], [cr.value for cr in other])
               for crs, other in zip(sets, again))
    return [[(cr.value, CrossRatio(-cr.den, cr.num).value, cr.provenance) for cr in crs]
            for crs in sets]


def nongeneric_line(a, lines, d1):
    """first_nongeneric_coords on the lines' and d1's coordinates in A's basis."""
    frame = np.linalg.inv(a.vectors)
    return first_nongeneric_coords(np.array([v.coords for v in lines]) @ frame, d1.coords @ frame)


def per_quotient_triple_ratios(a, b, c):
    """One quotient_cp2 per (p, q, r), in triple_ratio_set's order."""
    k = a.dim
    return [triple_ratio_cp2(*quotient_cp2(a, b, c, p, k - 3 - p - q, q),
                             provenance=(p, q, k - 3 - p - q))
            for p in range(k - 2) for q in range(k - 2 - p)]


def random_setup(seed, k, n_lines, gaussian_integers=False):
    """Flags A, B, C, a reference point and lines; Gaussian-integer entries
    make ties in magnitude, exact zeros and coincidences common."""
    rng = np.random.default_rng(seed)
    draw = ((lambda *shape: rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape))
            if gaussian_integers else lambda *shape: complex_normal(rng, *shape))
    vecs = draw(3 * k + 1 + n_lines, k)
    if not np.abs(vecs).max(axis=1).all():   # a zero vector
        return None
    try:
        a, b, c = (make_flag(vecs[n * k:(n + 1) * k]) for n in range(3))
    except GenericityViolation:
        return None
    return rng, a, b, c, ProjPoint(vecs[3 * k]), [ProjPoint(v) for v in vecs[3 * k + 1:]]


class TestBatchedKernels:
    """The closed forms, which replaced the batched quotient kernels, against
    the single-quotient API: values to 1e-9 relative, and every raise of the
    quotients is a raise or a failed genericity test of the closed forms."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_cross_ratios_match_per_line_quotients(self, seed, k, n_lines, integers):
        setup = random_setup(seed, k, n_lines, integers)
        if setup is None:
            return
        _, a, _, _, d1, lines = setup
        c = a.reversed()
        bad = nongeneric_line(a, lines, d1)
        generic = [generic_with_point(a, v, c, d1) for v in lines]
        assert bad == (generic.index(False) if False in generic else None)
        if bad is None:
            got, expected = closed_form_cross_ratios(a, lines, d1), per_line_cross_ratios(a, lines, c, d1)
            for row, ref in zip(got, expected):
                assert [p for *_, p in row] == [p for *_, p in ref]
                assert close([v for v, _, _ in row], [v for v, _, _ in ref])
                assert close([f for _, f, _ in row], [f for _, f, _ in ref])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_triple_ratios_match_per_quotient(self, seed, k, integers):
        setup = random_setup(seed, k, 0, integers)
        if setup is None:
            return
        _, a, b, c, _, _ = setup
        got = first_raise(lambda: triple_ratio_set(a, b, c))
        expected = first_raise(lambda: per_quotient_triple_ratios(a, b, c))
        if got is None:
            assert expected is None
            closed, ref = triple_ratio_set(a, b, c), per_quotient_triple_ratios(a, b, c)
            assert [t.provenance for t in closed] == [t.provenance for t in ref]
            assert close([t.value for t in closed], [t.value for t in ref])
        else:   # a vanishing minor is a composition generic_position rejects too
            assert got[0] is GenericityViolation and not generic_position([a, b, c])

    @given(st.integers(0, 2**32 - 1), st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_line_in_quotiented_subspace(self, seed, k):
        rng, a, _, _, d1, lines = random_setup(seed, k, 3)
        c = a.reversed()
        i, n = int(rng.integers(k - 1)), int(rng.integers(3))
        rows = np.vstack([a.vectors[:i], c.vectors[:k - 2 - i]])
        lines[n] = ProjPoint(complex_normal(rng, k - 2) @ rows)
        expected = (GenericityViolation, "B line lies in the quotiented subspace")
        assert first_raise(lambda: per_line_cross_ratios(a, lines, c, d1)) == expected
        assert nongeneric_line(a, lines, d1) == n
        assert not generic_with_point(a, lines[n], c, d1)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.sampled_from("ACD"))
    @settings(max_examples=30, deadline=None)
    def test_step_or_reference_in_quotiented_subspace(self, seed, k, which):
        rng, a, _, _, d1, lines = random_setup(seed, k, 2)
        if which in "AC":   # a step of A in the span of others: A is no basis, so no frame
            rows = a.vectors.copy()
            rows[k - 2] = complex_normal(rng, k - 2) @ rows[:k - 2]
            a = Flag(vectors=rows if which == "A" else rows[::-1].copy())
            message = "next A step" if which == "A" else "next C step"
            with pytest.raises(GenericityViolation, match="linearly dependent"):
                make_flag(a.vectors)
        else:
            i = int(rng.integers(k - 1))
            rows = np.vstack([a.vectors[:i], a.vectors[i + 2:]])
            d1 = ProjPoint(complex_normal(rng, k - 2) @ rows)
            message = "D line"
            assert nongeneric_line(a, lines, d1) == 0
        expected = (GenericityViolation, f"{message} lies in the quotiented subspace")
        got = first_raise(lambda: per_line_cross_ratios(a, lines, a.reversed(), d1))
        assert got == expected or (which == "C" and got[0] is GenericityViolation)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_improper_images(self, seed, k):
        rng, a, _, _, d1, lines = random_setup(seed, k, 2)
        rows = a.vectors.copy()
        rows[k - 2, 0] = np.nan
        a = Flag(vectors=rows)
        # a quotient's SVD or its image of A's step is non-finite; so is the frame
        assert issubclass(first_raise(lambda: per_line_cross_ratios(a, lines, a.reversed(), d1))[0],
                          ValueError)
        assert nongeneric_line(a, lines, d1) == 0

    @given(st.integers(0, 2**32 - 1), st.integers(4, 8))
    @settings(max_examples=30, deadline=None)
    def test_degenerate_quotient(self, seed, k):
        rng, a, _, _, d1, lines = random_setup(seed, k, 2)
        t, u = sorted(rng.choice(k - 2, size=2, replace=False))
        rows = a.vectors[::-1].copy()
        rows[u] = (1 + 2j) * rows[t]
        c = Flag(vectors=rows)
        a = c.reversed()
        expected = (GenericityViolation, "quotient subspace is degenerate")
        assert first_raise(lambda: per_line_cross_ratios(a, lines, c, d1)) == expected
        with pytest.raises(GenericityViolation, match="linearly dependent"):
            make_flag(a.vectors)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_indeterminate_cross_ratio(self, seed, k):
        rng, a, _, _, _, lines = random_setup(seed, k, 2)
        c = a.reversed()
        i = int(rng.integers(k - 1))
        rows = np.vstack([a.vectors[:i], c.vectors[:k - 2 - i], np.zeros((1, k))])
        # B and d1 both project to the next A step in quotient i
        lines[1] = ProjPoint(a.vectors[i] + complex_normal(rng, k - 1) @ rows)
        d1 = ProjPoint(a.vectors[i] + complex_normal(rng, k - 1) @ rows)
        expected = (IndeterminateCrossRatio, "0/0 cross ratio: too many coincident points")
        assert first_raise(lambda: per_line_cross_ratios(a, lines, c, d1)) == expected
        assert first_raise(lambda: closed_form_cross_ratios(a, lines, d1)) == expected
        assert nongeneric_line(a, lines, d1) == 0

    @given(st.integers(0, 2**32 - 1), st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_degenerate_triple(self, seed, k):
        rng, a, b, _, _, _ = random_setup(seed, k, 0)
        # C's line lies in A's plane in the quotient by A_{k-3}: Delta(k-1, 0, 1) = 0
        c = make_flag([complex_normal(rng, k - 1) @ a.vectors[:k - 1], *complex_normal(rng, k - 1, k)])
        expected = (DegenerateTriple, "triple ratio denominator vanishes")
        assert first_raise(lambda: per_quotient_triple_ratios(a, b, c)) == expected
        # the vanishing minor fails the genericity test before the denominator is formed
        assert first_raise(lambda: triple_ratio_set(a, b, c))[0] is GenericityViolation
        assert not generic_position([a, b, c])

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_degenerate_triple_below_rank_tol(self, k):
        rng, a, b, _, _, _ = random_setup(k, k, 0)
        c = make_flag([complex_normal(rng, k - 1) @ a.vectors[:k - 1], *complex_normal(rng, k - 1, k)])
        cfg = DEFAULT_TOLERANCES.override(rank_tol=1e-40)
        with pytest.raises(DegenerateTriple, match="triple ratio denominator vanishes"):
            triple_ratio_set(a, b, c, cfg)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_collapsed_plane(self, seed, k):
        rng, a, b, c, _, _ = random_setup(seed, k, 0)
        # B's plane collapses in the first quotient, by C_{k-3}
        rows = b.vectors.copy()
        rows[1] = rows[0] + complex_normal(rng, k - 3) @ c.vectors[:k - 3]
        b = Flag(vectors=rows)
        expected = (GenericityViolation, "B plane collapses in the quotient")
        assert first_raise(lambda: per_quotient_triple_ratios(a, b, c)) == expected
        assert first_raise(lambda: triple_ratio_set(a, b, c))[0] is GenericityViolation

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_svd_counts(self, monkeypatch, k):
        _, a, b, c, d1, lines = random_setup(k, k, 3)
        calls = []
        svd = np.linalg.svd

        def counted(m, *args, **kwargs):
            calls.append(m.shape)
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        frame_coords_cross_ratios(a, lines, d1)
        cross_ratio_set(a, lines[0], a.reversed(), d1)
        triple_ratio_set(a, b, c)
        assert calls == []   # no complement basis is built


def normalized_triple_flags(b, bp):
    """The flag triple (A, B, C) in the two-hyperbolic normalization."""
    e = np.eye(3, dtype=complex)
    a = np.stack([e[0], e[1]])
    c = np.stack([e[2], e[1]])
    bf = np.stack([np.asarray(b, complex), np.asarray(bp, complex)])
    return a, bf, c


class TestTripleRatio:
    def test_closed_form_second_flag(self):
        # r3 of the flags (A, C, D) with D = ([1,1,1], b') reduces to
        # (b3' - b2') / (b2' - b1')
        e = np.eye(3, dtype=complex)
        bp = np.array([0.0, 1.0, 2.0], dtype=complex)
        a = np.stack([e[0], e[1]])
        c = np.stack([e[2], e[1]])
        d = np.stack([np.ones(3, dtype=complex), bp])
        got = triple_ratio_cp2(a, c, d).value
        assert abs(got - 1.0) < 1e-12

    def test_closed_forms_match_functional(self, rng):
        for _ in range(50):
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            bp = rng.normal(size=3) + 1j * rng.normal(size=3)
            a, bf, c = normalized_triple_flags(b, bp)
            s1 = triple_ratio_cp2(a, bf, c).value
            closed1 = (b[0] * bp[1] * b[2] - bp[0] * b[1] * b[2]) / (
                b[0] * b[1] * bp[2] - b[0] * bp[1] * b[2])
            assert abs(s1 - closed1) < 1e-9 * (1 + abs(closed1))
            d = np.stack([np.ones(3, dtype=complex), np.asarray(bp, complex)])
            s2 = triple_ratio_cp2(a, c, d).value
            closed2 = (bp[2] - bp[1]) / (bp[1] - bp[0])
            assert abs(s2 - closed2) < 1e-9 * (1 + abs(closed2))

    def test_inverse_and_cycle(self, rng):
        for _ in range(30):
            flags = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(3)]
            a, b, c = flags
            r_abc = triple_ratio_cp2(a, b, c).value
            assert abs(r_abc * triple_ratio_cp2(a, c, b).value - 1) < 1e-9
            assert abs(r_abc - triple_ratio_cp2(b, c, a).value) < 1e-9 * (1 + abs(r_abc))

    def test_functional_form(self):
        va, fa = [1, 0, 0], [0, 0, 1]
        vb, fb = [1, 1, 1], [1, -2, 1]
        vc, fc = [0, 0, 1], [1, 0, 0]
        t = triple_ratio(va, fa, vb, fb, vc, fc)
        # direct evaluation of the defining product
        num = 1 * 1 * 1        # fa(vb) fb(vc) fc(va)
        den = 1 * 1 * 1        # fa(vc) fb(va) fc(vb)
        assert abs(t.value - num / den) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_projective_invariance_of_sets(self, seed):
        rng = np.random.default_rng(seed)
        k = 4
        a = make_flag(list(np.eye(k, dtype=complex)))
        c = a.reversed()
        b = make_flag(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        base = [t.value for t in triple_ratio_set(a, b, c)]
        g = random_invertible(rng, k)
        moved = [make_flag([g @ v for v in f.vectors]) for f in (a, b, c)]
        new = [t.value for t in triple_ratio_set(*moved)]
        assert np.allclose(new, base, rtol=1e-7, atol=1e-9)

    def test_set_counts(self, rng):
        for k in (3, 4, 5):
            a = make_flag(list(np.eye(k, dtype=complex)))
            c = a.reversed()
            b = make_flag(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
            n = len(triple_ratio_set(a, b, c))
            assert n == (k - 1) * (k - 2) // 2

    def test_k3_set_is_direct_value(self, rng):
        a = make_flag(list(np.eye(3, dtype=complex)))
        c = a.reversed()
        b = make_flag(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        s = triple_ratio_set(a, b, c)
        direct = triple_ratio_cp2(a.vectors[:2], b.vectors[:2], c.vectors[:2])
        assert len(s) == 1
        assert abs(s[0].value - direct.value) < 1e-10


def test_conj_pair_defect_symmetry():
    cr1 = cross_ratio(INF, aff(2 + 1j), aff(0), aff(1))
    cr2 = cross_ratio(INF, aff(2 - 1j), aff(0), aff(1))
    assert conj_pair_defect(cr1, cr2) < 1e-12
    cr3 = cross_ratio(INF, aff(2 + 1.1j), aff(0), aff(1))
    assert conj_pair_defect(cr3, cr2) > 1e-3
