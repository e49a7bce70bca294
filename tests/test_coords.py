import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realform.coords import (
    conj_pair_defect,
    cross_ratio,
    config_cross_ratio,
    cross_ratio_set,
    cross_ratio_sets,
    fg_cross_ratio,
    in_unit_circle,
    is_real,
    is_real_extended,
    is_real_positive,
    triple_ratio,
    triple_ratio_cp2,
    triple_ratio_set,
)
from realform.errors import GenericityViolation, IndeterminateCrossRatio
from realform.flags import make_flag, quotient_cp1
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
        crs = cross_ratio_set(a, pp(1, 1, 1), c, pp(1, 1, 1), check_genericity=False)
        assert all(abs(cr.value - 1) < 1e-12 for cr in crs)

    def test_real_line_gives_reals(self, rng):
        a = make_flag(list(np.eye(4, dtype=complex)))
        c = a.reversed()
        b1 = ProjPoint(rng.uniform(0.5, 2, size=4))
        crs = cross_ratio_set(a, b1, c, pp(1, 1, 1, 1), check_genericity=False)
        assert all(is_real(cr, 1e-9) for cr in crs)

    def test_genericity_gate(self):
        a = make_flag(list(np.eye(3, dtype=complex)))
        c = a.reversed()
        with pytest.raises(GenericityViolation):
            cross_ratio_set(a, pp(1, 0, 1), c, pp(1, 1, 1))

    def test_count(self, rng):
        for k in range(3, 9):
            a = make_flag(list(np.eye(k, dtype=complex)))
            c = a.reversed()
            b1 = ProjPoint(rng.normal(size=k) + 1j * rng.normal(size=k))
            crs = cross_ratio_set(a, b1, c, ProjPoint(np.ones(k)), check_genericity=False)
            assert len(crs) == k - 1


class TestCrossRatioSets:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_shared_bases_match_per_line_quotients(self, rng, k):
        a = make_flag(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        c = make_flag(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        d1 = ProjPoint(rng.normal(size=k) + 1j * rng.normal(size=k))
        lines = [ProjPoint(rng.normal(size=k) + 1j * rng.normal(size=k)) for _ in range(4)]
        got = cross_ratio_sets(a, lines, c, d1)
        assert len(got) == len(lines)
        for line, crs in zip(lines, got):
            expect = [config_cross_ratio(quotient_cp1(a, line, c, d1, i, k - 2 - i))
                      for i in range(k - 1)]
            assert [(cr.num, cr.den, cr.provenance) for cr in crs] == \
                [(cr.num, cr.den, cr.provenance) for cr in expect]
            single = cross_ratio_set(a, line, c, d1)
            assert [(cr.num, cr.den) for cr in single] == [(cr.num, cr.den) for cr in crs]

    def test_one_nongeneric_line_fails_the_set(self):
        a = make_flag(list(np.eye(3, dtype=complex)))
        c = a.reversed()
        with pytest.raises(GenericityViolation):
            cross_ratio_sets(a, [pp(1, 2, 1), pp(1, 0, 1)], c, pp(1, 1, 1))


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
