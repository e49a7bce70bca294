import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realform.coords import config_cross_ratio, triple_ratio_cp2, triple_ratio_set
from realform.errors import GenericityViolation
from realform.flags import (
    flag_pair_from_eigensystem,
    generic_position,
    generic_with_point,
    make_flag,
    mirrored_pair_flag,
    point_flag,
    quotient_cp1,
    quotient_cp2,
)
from realform.projlin import ProjPoint, eig

from conftest import pp, random_invertible

EYE3 = np.eye(3, dtype=complex)
EYE4 = np.eye(4, dtype=complex)


def standard_pair(k):
    a = make_flag(list(np.eye(k, dtype=complex)))
    return a, a.reversed()


class TestFlagConstruction:
    def test_pair_from_eigensystem(self):
        es = eig(np.diag([1.0, 2.0, 4.0]))
        fp = flag_pair_from_eigensystem(es)
        assert np.allclose(fp.flag.vectors, np.eye(3))
        assert np.allclose(fp.reverse.vectors, np.eye(3)[::-1])

    def test_worked_matrix_flags(self):
        es = eig(np.array([[3j - 1, 3j - 3], [-3j - 3, -3j - 1]]))
        fp = flag_pair_from_eigensystem(es)
        assert abs(fp.flag.vectors[0][0] / fp.flag.vectors[0][1] + 1) < 1e-9  # [-1, 1]
        assert abs(fp.flag.vectors[1][0] / fp.flag.vectors[1][1] + 1j) < 1e-9  # [-i, 1]

    def test_dependent_vectors_rejected(self):
        with pytest.raises(GenericityViolation):
            make_flag([EYE3[0], EYE3[1], EYE3[0] + EYE3[1]])

    def test_mirrored_flag_reverse_lists_partners(self):
        pairs = [(pp(1j, 1, 0, 0), pp(-1j, 1, 0, 0)), (pp(0, 0, 1j, 1), pp(0, 0, -1j, 1))]
        f = mirrored_pair_flag(pairs, [])
        rev = f.reversed()
        # step j of the reverse spans the partners of step j of the flag
        assert np.allclose(np.abs(rev.vectors[0]), np.abs(f.vectors[0]))


class TestGenericPosition:
    def test_standard_pair(self):
        a, c = standard_pair(3)
        assert generic_position([a, c])

    def test_shared_line_fails(self):
        a = make_flag([EYE3[0], EYE3[1], EYE3[2]])
        b = make_flag([EYE3[0], EYE3[2], EYE3[1]])
        assert not generic_position([a, b])

    def test_genericity_notions_incomparable(self):
        # one direction: every line generic with the base, yet no flag
        # ordering is generic as a 4-tuple (spans of direction pairs meet
        # base lines)
        a, c = standard_pair(3)
        d = pp(1, 1, 1)
        dirs = [pp(1, 2, 1), pp(1, 2, -1), pp(-1, 2, 1)]
        assert all(generic_with_point(a, v, c, d) for v in dirs)
        import itertools
        for order in itertools.permutations(range(3)):
            beta = make_flag([dirs[i] for i in order])
            assert not generic_position([a, beta, c, beta.reversed()])
        # other direction: a 4-tuple in generic position whose line fails
        # the per-direction condition (it lies in the span of the base
        # reference and a base line)
        beta = make_flag([[1, 1, -1], [1, -2 + 1j, 1.5], [2.5, -1, 2 + 1j]])
        assert generic_position([a, beta, c, beta.reversed()])
        assert not generic_with_point(a, ProjPoint(beta.vectors[0]), c, d)

    def test_invariance_under_basis_change(self, rng):
        a, c = standard_pair(3)
        beta = make_flag([[1, 2, 1], [1, -1, 2], [3, 1, 1]])
        assert generic_position([a, beta, c])
        g = random_invertible(rng, 3)
        moved = [make_flag([g @ v for v in f.vectors]) for f in (a, beta, c)]
        assert generic_position(moved)


class TestGenericWithPoint:
    def test_good_directions(self):
        a, c = standard_pair(3)
        d = pp(1, 1, 1)
        for v in (pp(1, 2, 1), pp(1, 2, -1), pp(-1, 2, 1)):
            assert generic_with_point(a, v, c, d)

    def test_line_through_reference_sum_fails(self):
        a, c = standard_pair(3)
        assert not generic_with_point(a, pp(1, 1, -1), c, pp(1, 1, 1))

    def test_zero_coordinate_fails(self):
        a, c = standard_pair(3)
        assert not generic_with_point(a, pp(1, 0, 1), c, pp(1, 1, 1))


class TestQuotientCP1:
    def test_component_ratios(self):
        a, c = standard_pair(3)
        b1, d1 = pp(2, 3, 5), pp(1, 1, 1)
        cfg0 = quotient_cp1(a, b1, c, d1, 0, 1)
        assert abs(config_cross_ratio(cfg0).value - 2 / 3) < 1e-12
        cfg1 = quotient_cp1(a, b1, c, d1, 1, 0)
        assert abs(config_cross_ratio(cfg1).value - 3 / 5) < 1e-12

    def test_coincident_lines_allowed(self):
        a, c = standard_pair(3)
        d1 = pp(1, 1, 1)
        cfg0 = quotient_cp1(a, d1, c, d1, 0, 1)
        assert abs(config_cross_ratio(cfg0).value - 1) < 1e-12

    def test_degenerate_line_raises(self):
        a, c = standard_pair(3)
        with pytest.raises(GenericityViolation):
            quotient_cp1(a, pp(0, 0, 1), c, pp(1, 1, 1), 0, 1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        a, c = standard_pair(3)
        b1 = ProjPoint(rng.normal(size=3) + 1j * rng.normal(size=3))
        d1 = pp(1, 1, 1)
        base = config_cross_ratio(quotient_cp1(a, b1, c, d1, 1, 0)).value
        g = random_invertible(rng, 3)
        am = make_flag([g @ v for v in a.vectors])
        cm = make_flag([g @ v for v in c.vectors])
        moved = config_cross_ratio(
            quotient_cp1(am, ProjPoint(g @ b1.coords), cm, ProjPoint(g @ d1.coords), 1, 0)
        ).value
        assert abs(moved - base) < 1e-7 * (1 + abs(base))

    def test_inverse_mapping(self, rng):
        # the successive ratios rebuild the line up to scale
        a, c = standard_pair(4)
        b1 = ProjPoint(rng.normal(size=4) + 1j * rng.normal(size=4))
        d1 = pp(1, 1, 1, 1)
        ratios = [config_cross_ratio(quotient_cp1(a, b1, c, d1, i, 2 - i)).value for i in range(3)]
        rebuilt = np.ones(4, dtype=complex)
        for i in range(2, -1, -1):
            rebuilt[i] = ratios[i] * rebuilt[i + 1]
        rebuilt = ProjPoint(rebuilt)
        assert np.max(np.abs(rebuilt.coords - b1.coords)) < 1e-9


class TestQuotientCP2:
    def test_identity_quotient_k3(self):
        a, c = standard_pair(3)
        b = make_flag([[1, 2, 1], [1, -1, 2], [3, 1, 1]])
        qa, qb, qc = quotient_cp2(a, b, c, 0, 0, 0)
        t_quot = triple_ratio_cp2(qa, qb, qc)
        t_direct = triple_ratio_cp2(a.vectors[:2], b.vectors[:2], c.vectors[:2])
        assert abs(t_quot.value - t_direct.value) < 1e-10

    def test_drop_coordinate_k4(self, rng):
        # quotient by A_1 with standard flags is coordinate deletion
        a, c = standard_pair(4)
        rows = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = make_flag(rows)
        qa, qb, qc = quotient_cp2(a, b, c, 1, 0, 0)
        dropped = make_flag([v[1:] for v in b.vectors[:3]])
        expect = triple_ratio_cp2(
            np.stack([np.eye(3)[0], np.eye(3)[1]]).astype(complex),
            dropped.vectors[:2],
            np.stack([np.eye(3)[2], np.eye(3)[1]]).astype(complex),
        )
        got = triple_ratio_cp2(qa, qb, qc)
        assert abs(got.value - expect.value) < 1e-9 * (1 + abs(expect.value))

    def test_non_generic_raises(self):
        a, c = standard_pair(4)
        bad = make_flag([EYE4[0], EYE4[1] + EYE4[2], EYE4[2], EYE4[3]])
        with pytest.raises(GenericityViolation):
            quotient_cp2(a, bad, c, 1, 0, 0)  # line of bad lies inside A_1

    def test_counts(self, rng):
        for k in (3, 4, 5):
            a, c = standard_pair(k)
            b = make_flag(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
            assert len(triple_ratio_set(a, b, c)) == (k - 1) * (k - 2) // 2
