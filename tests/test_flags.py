import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realform.config import DEFAULT_TOLERANCES
from realform.coords import cross_ratio, frame_triple_ratio_sets, triple_ratio_cp2, triple_ratio_set
from realform.decide import _triple_windows
from realform.errors import DegenerateTriple, GenericityViolation
from realform.flags import (
    _compositions,
    first_nongeneric_coords,
    flag_pair_from_eigensystem,
    frame_generic,
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
    return a, a[::-1]


def naive_generic_position(flags, rank_tol=DEFAULT_TOLERANCES.rank_tol):
    """Reference: every composition of k from all index tuples, one SVD
    each.  Every SVD runs before the answer, so a NaN entry raises
    whichever composition fails first."""
    k = flags[0].shape[1]
    ok = []
    for combo in itertools.product(*(range(len(f) + 1) for f in flags)):
        if sum(combo) != k:
            continue
        rows = np.vstack([f[:n] for f, n in zip(flags, combo) if n > 0])
        s = np.linalg.svd(rows, compute_uv=False)
        ok.append(s[-1] > rank_tol * s[0])
    return all(ok)


def random_flag(rng, k, height):
    return make_flag(rng.normal(size=(height, k)) + 1j * rng.normal(size=(height, k)))


class TestFlagConstruction:
    def test_pair_from_eigensystem(self):
        es = eig(np.diag([1.0, 2.0, 4.0]))
        flag, reverse = flag_pair_from_eigensystem(es)
        assert np.allclose(flag, np.eye(3))
        assert np.allclose(reverse, np.eye(3)[::-1])

    def test_worked_matrix_flags(self):
        es = eig(np.array([[3j - 1, 3j - 3], [-3j - 3, -3j - 1]]))
        flag, _ = flag_pair_from_eigensystem(es)
        assert abs(flag[0][0] / flag[0][1] + 1) < 1e-9  # [-1, 1]
        assert abs(flag[1][0] / flag[1][1] + 1j) < 1e-9  # [-i, 1]

    def test_dependent_vectors_rejected(self):
        with pytest.raises(GenericityViolation):
            make_flag([EYE3[0], EYE3[1], EYE3[0] + EYE3[1]])

    def test_mirrored_flag_reverse_lists_partners(self):
        pairs = [(pp(1j, 1, 0, 0), pp(-1j, 1, 0, 0)), (pp(0, 0, 1j, 1), pp(0, 0, -1j, 1))]
        f = mirrored_pair_flag(pairs, [])
        rev = f[::-1]
        # step j of the reverse spans the partners of step j of the flag
        assert np.allclose(np.abs(rev[0]), np.abs(f[0]))


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
            assert not generic_position([a, beta, c, beta[::-1]])
        # other direction: a 4-tuple in generic position whose line fails
        # the per-direction condition (it lies in the span of the base
        # reference and a base line)
        beta = make_flag([[1, 1, -1], [1, -2 + 1j, 1.5], [2.5, -1, 2 + 1j]])
        assert generic_position([a, beta, c, beta[::-1]])
        assert not generic_with_point(a, ProjPoint(beta[0]), c, d)

    def test_invariance_under_basis_change(self, rng):
        a, c = standard_pair(3)
        beta = make_flag([[1, 2, 1], [1, -1, 2], [3, 1, 1]])
        assert generic_position([a, beta, c])
        g = random_invertible(rng, 3)
        moved = [make_flag([g @ v for v in f]) for f in (a, beta, c)]
        assert generic_position(moved)


def recursive_compositions(heights, k):
    """Reference: the compositions by their recursive definition, each
    first part from its least to its greatest feasible value."""
    if not heights:
        return [()] if k == 0 else []
    rest = heights[1:]
    low = max(0, k - sum(rest))
    return [(i,) + tail for i in range(low, min(heights[0], k) + 1)
            for tail in recursive_compositions(rest, k - i)]


class TestBatchedGenericPosition:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_compositions_match_the_recursive_definition(self, k):
        # four flags of height k (generic_position of a quadruple) and three
        # of height k - 1 (the triple-ratio minors)
        for heights in ((k,) * 4, (k - 1,) * 3):
            assert _compositions(heights, k) == recursive_compositions(heights, k)

    @pytest.mark.parametrize("heights,k", [((3, 3), 3), ((4, 1, 4, 1), 4), ((2, 3, 1), 5),
                                           ((1, 1), 3), ((8, 8, 8, 8), 8)])
    def test_compositions_match_filtered_product(self, heights, k):
        expect = [combo for combo in itertools.product(*(range(h + 1) for h in heights))
                  if sum(combo) == k]
        assert _compositions(heights, k) == expect

    @pytest.mark.parametrize("k,heights", [(3, (3, 3, 3)), (4, (4, 1, 4, 1)), (5, (5, 2, 5)),
                                           (6, (6, 6, 6, 6)), (4, (1, 1))])
    def test_random_flags_match_reference(self, rng, k, heights):
        flags = [random_flag(rng, k, h) for h in heights]
        assert generic_position(flags) == naive_generic_position(flags)

    @pytest.mark.parametrize("k,heights", [(3, (3, 3, 3)), (4, (4, 1, 4, 1)), (5, (3, 2, 5))])
    def test_each_composition_made_deficient(self, rng, k, heights):
        # rebuild the last vector a composition uses from its other rows,
        # so that exactly this composition (at least) loses rank
        for combo in _compositions(heights, k):
            flags = [random_flag(rng, k, h) for h in heights]
            last = max(j for j, n in enumerate(combo) if n)
            others = np.vstack([f[:n] for j, (f, n) in enumerate(zip(flags, combo))
                                if n and j != last] + [flags[last][:combo[last] - 1]])
            vectors = flags[last].copy()
            vectors[combo[last] - 1] = rng.normal(size=k - 1) @ others
            flags[last] = vectors
            assert naive_generic_position(flags) is False
            assert generic_position(flags) is False


def outcome(fn, flags):
    """fn(flags), or the type of the LinAlgError it raises."""
    try:
        return fn(flags)
    except np.linalg.LinAlgError as exc:
        return type(exc)


class TestDeterminantScreen:
    """generic_position, one batched SVD, answers as the plain definition
    does at the cut, at extreme scales and on a NaN entry."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 4),
           st.sampled_from([None, -1, 1]), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, seed, k, m, near, scaled, nan):
        rng = np.random.default_rng(seed)
        heights = tuple(int(h) for h in rng.integers(1, k + 1, size=m))
        rows = [rng.normal(size=(h, k)) + 1j * rng.normal(size=(h, k)) for h in heights]
        combos = _compositions(heights, k)
        if near is not None and combos:
            # one composition's stack gets s_min / s_max = rank_tol * (1 +- 1e-3)
            combo = combos[rng.integers(len(combos))]
            u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
            v, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
            s = np.concatenate([[1.0], rng.uniform(1e-3, 1.0, size=k - 2),
                                [DEFAULT_TOLERANCES.rank_tol * (1 + near * 1e-3)]])[:k]
            stack = (u * s) @ v.conj().T
            starts = np.cumsum((0,) + combo[:-1])
            for r, n, start in zip(rows, combo, starts):
                r[:n] = stack[start:start + n]
        if scaled:
            for r in rows:
                r *= 10.0 ** (150 * rng.integers(-1, 2, size=(len(r), 1)))
        if nan:
            r = rows[rng.integers(m)]
            r[rng.integers(len(r)), rng.integers(k)] = np.nan
        flags = rows
        got = outcome(generic_position, flags)
        assert got == outcome(naive_generic_position, flags)
        if near is not None and combos and not scaled and not nan:
            assert got is (near > 0)

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_cut_is_kept_at_the_threshold(self, rng, k, factor):
        # all but the last singular value 1, the last a factor 1 +- 1e-3 from the cut
        u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        s = np.ones(k)
        s[-1] = DEFAULT_TOLERANCES.rank_tol * factor
        flag = u * s
        assert generic_position([flag]) is (factor > 1) is naive_generic_position([flag])


def frame_coordinates(a, points):
    """Coordinates of points in the basis of A's vectors, one row each."""
    return np.array([p.coords for p in points]) @ np.linalg.inv(a)


class TestFirstNongenericLine:
    """The closed-form line genericity against (A, C = A reversed) and d."""

    def test_returns_first_failing_index(self, rng):
        a, c = standard_pair(4)
        d = pp(1, 1, 1, 1)
        good = [ProjPoint(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(5)]
        bad = [pp(1, 0, 1, 1), pp(1, 1, -1, -1)]
        lines = good[:2] + [bad[0]] + good[2:4] + [bad[1]] + good[4:]
        flags_of = [[a, point_flag(v), c, point_flag(d)] for v in lines]
        expect = next(n for n, fl in enumerate(flags_of) if not naive_generic_position(fl))
        assert expect == 2
        x, dx = frame_coordinates(a, lines), d.coords
        assert first_nongeneric_coords(x, dx) == 2
        assert first_nongeneric_coords(x[3:], dx) == 2
        assert first_nongeneric_coords(frame_coordinates(a, good), dx) is None
        assert first_nongeneric_coords(np.zeros((0, 4)), dx) is None

    def test_nongeneric_base_fails_every_line(self, rng):
        a, c = standard_pair(4)
        d = pp(1, 0, 0, 0)  # lies in A_1
        lines = [ProjPoint(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(3)]
        assert not generic_position([a, c, point_flag(d)])
        assert first_nongeneric_coords(frame_coordinates(a, lines), d.coords) == 0

    @pytest.mark.parametrize("k", [3, 5, 8])
    @pytest.mark.parametrize("which", ["line coordinate", "reference coordinate", "consecutive minor"])
    def test_exact_zeros_fail_both_tests(self, rng, k, which):
        a = random_flag(rng, k, k)
        c = a[::-1]
        y = rng.normal(size=(3, k)) + 1j * rng.normal(size=(3, k))
        dy = rng.normal(size=k) + 1j * rng.normal(size=k)
        i = int(rng.integers(k - 1))
        if which == "line coordinate":
            y[1, i] = 0
        elif which == "reference coordinate":
            dy[i] = 0
        else:   # x_i d_{i+1} - x_{i+1} d_i = 0
            y[1, i + 1] = y[1, i] * dy[i + 1] / dy[i]
        lines, d = [ProjPoint(v @ a) for v in y], ProjPoint(dy @ a)
        first = 0 if which == "reference coordinate" else 1
        assert first_nongeneric_coords(frame_coordinates(a, lines), frame_coordinates(a, [d])[0]) == first
        assert [generic_with_point(a, v, c, d) for v in lines] == [first == 1 and n != 1 for n in range(3)]
        assert naive_generic_position([a, point_flag(lines[first]), c, point_flag(d)]) is False

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_generic_position(self, seed, k, integers):
        # Gaussian-integer entries make exact zeros and coincidences common
        rng = np.random.default_rng(seed)
        draw = ((lambda *shape: rng.integers(-1, 2, shape) + 1j * rng.integers(-1, 2, shape))
                if integers else lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape))
        vecs = draw(k + 4, k)
        if not np.abs(vecs).max(axis=1).all():
            return
        try:
            a = make_flag(vecs[:k])
        except GenericityViolation:
            return
        lines, d = [ProjPoint(v) for v in vecs[k + 1:]], ProjPoint(vecs[k])
        c = a[::-1]
        got = first_nongeneric_coords(frame_coordinates(a, lines), frame_coordinates(a, [d])[0])
        flags = [generic_with_point(a, v, c, d) for v in lines]
        assert got == (flags.index(False) if False in flags else None)


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
        assert abs(cross_ratio(*cfg0, provenance=(0, 1)).value - 2 / 3) < 1e-12
        cfg1 = quotient_cp1(a, b1, c, d1, 1, 0)
        assert abs(cross_ratio(*cfg1, provenance=(1, 0)).value - 3 / 5) < 1e-12

    def test_coincident_lines_allowed(self):
        a, c = standard_pair(3)
        d1 = pp(1, 1, 1)
        cfg0 = quotient_cp1(a, d1, c, d1, 0, 1)
        assert abs(cross_ratio(*cfg0, provenance=(0, 1)).value - 1) < 1e-12

    def test_degenerate_line_raises(self):
        a, c = standard_pair(3)
        with pytest.raises(GenericityViolation):
            quotient_cp1(a, pp(0, 0, 1), c, pp(1, 1, 1), 0, 1)

    @pytest.mark.parametrize("i, j, height, message", [
        (1, 1, 3, "need i \\+ j = k - 2 with i, j >= 0"),
        (2, -1, 3, "need i \\+ j = k - 2 with i, j >= 0"),
        (1, 0, 1, "flag heights too small for the requested quotient"),
    ], ids=["sum", "negative", "short"])
    def test_bad_quotient_raises(self, i, j, height, message):
        a, c = standard_pair(3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            quotient_cp1(a[:height], pp(2, 3, 5), c, pp(1, 1, 1), i, j)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        a, c = standard_pair(3)
        b1 = ProjPoint(rng.normal(size=3) + 1j * rng.normal(size=3))
        d1 = pp(1, 1, 1)
        base = cross_ratio(*quotient_cp1(a, b1, c, d1, 1, 0), provenance=(1, 0)).value
        g = random_invertible(rng, 3)
        am = make_flag([g @ v for v in a])
        cm = make_flag([g @ v for v in c])
        moved = cross_ratio(
            *quotient_cp1(am, ProjPoint(g @ b1.coords), cm, ProjPoint(g @ d1.coords), 1, 0),
            provenance=(1, 0)).value
        assert abs(moved - base) < 1e-7 * (1 + abs(base))

    def test_inverse_mapping(self, rng):
        # the successive ratios rebuild the line up to scale
        a, c = standard_pair(4)
        b1 = ProjPoint(rng.normal(size=4) + 1j * rng.normal(size=4))
        d1 = pp(1, 1, 1, 1)
        ratios = [cross_ratio(*quotient_cp1(a, b1, c, d1, i, 2 - i), provenance=(i, 2 - i)).value
                  for i in range(3)]
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
        t_direct = triple_ratio_cp2(a[:2], b[:2], c[:2])
        assert abs(t_quot.value - t_direct.value) < 1e-10

    def test_drop_coordinate_k4(self, rng):
        # quotient by A_1 with standard flags is coordinate deletion
        a, c = standard_pair(4)
        rows = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = make_flag(rows)
        qa, qb, qc = quotient_cp2(a, b, c, 1, 0, 0)
        dropped = make_flag([v[1:] for v in b[:3]])
        expect = triple_ratio_cp2(
            np.stack([np.eye(3)[0], np.eye(3)[1]]).astype(complex),
            dropped[:2],
            np.stack([np.eye(3)[2], np.eye(3)[1]]).astype(complex),
        )
        got = triple_ratio_cp2(qa, qb, qc)
        assert abs(got.value - expect.value) < 1e-9 * (1 + abs(expect.value))

    def test_non_generic_raises(self):
        a, c = standard_pair(4)
        bad = make_flag([EYE4[0], EYE4[1] + EYE4[2], EYE4[2], EYE4[3]])
        with pytest.raises(GenericityViolation):
            quotient_cp2(a, bad, c, 1, 0, 0)  # line of bad lies inside A_1

    @pytest.mark.parametrize("ijl, height, message", [
        ((1, 1, 0), 4, "need i \\+ j \\+ l = k - 3 with i, j, l >= 0"),
        ((2, -1, 0), 4, "need i \\+ j \\+ l = k - 3 with i, j, l >= 0"),
        ((1, 0, 0), 2, "flag height too small for the requested quotient"),
    ], ids=["sum", "negative", "short"])
    def test_bad_quotient_raises(self, ijl, height, message):
        a, c = standard_pair(4)
        b = make_flag([[1, 2, 1, 3], [1, -1, 2, 1], [3, 1, 1, 2], [1, 1, 1, 1]])
        with pytest.raises(ValueError, match=f"^{message}$"):
            quotient_cp2(a[:height], b, c, *ijl)

    def test_counts(self, rng):
        for k in (3, 4, 5):
            a, c = standard_pair(k)
            b = make_flag(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
            assert len(triple_ratio_set(a, b, c)) == (k - 1) * (k - 2) // 2

    def test_short_flags_raise(self):
        a, c = standard_pair(4)
        with pytest.raises(ValueError, match="^flag height too small for the requested quotient$"):
            triple_ratio_set(a, a[:2], c)


def frame_kernel(a, flags, cfg=DEFAULT_TOLERANCES):
    """The frame-minor kernel as the flag routes call it: (A, B_n, C, D)
    genericity of every flag B_n (C = A reversed, D = B_0 reversed), and
    the triple ratios r3(A, B_0, C), r3(A, C, D), r3(A, B_n, C) for n >= 1,
    each as its values or its (error type, message)."""
    k = a.shape[0]
    s = np.linalg.svd(a, compute_uv=False)
    x, minors, generic = frame_generic(a, np.linalg.inv(a), s[-1] / s[0], flags, cfg)
    b_pos, d_pos = _triple_windows(k)
    values, errors = frame_triple_ratio_sets(
        a, np.concatenate([flags[:1], flags[:1, ::-1], flags[1:]]),
        np.concatenate([minors[:1, b_pos], minors[:1, d_pos], minors[1:, b_pos]]), cfg, inverted=(1,))
    return generic.tolist(), [v if e is None else (type(e), str(e)) for v, e in zip(values, errors)]


def reference_kernel(a, flags, cfg=DEFAULT_TOLERANCES):
    """The same answers from ``generic_position`` and ``triple_ratio_set``
    on the flags themselves."""
    b = flags[0]
    c, d = a[::-1], b[::-1]
    generic = [generic_position([a, f, c, d], cfg) for f in flags]
    triples = []
    for x, y, z in [(a, b, c), (a, c, d)] + [(a, f, c) for f in flags[1:]]:
        try:
            triples.append(np.array([t.value for t in triple_ratio_set(x, y, z, cfg)]))
        except (GenericityViolation, DegenerateTriple) as exc:
            triples.append((type(exc), str(exc)))
    return generic, triples


def assert_kernel_matches(a, flags, cfg=DEFAULT_TOLERANCES, rtol=1e-9, atol=0.0):
    """The kernel's genericity answers and errors are the references';
    its values agree within rtol of the largest value of the set, plus
    atol (a set of ratios whose minors vanish is rounding noise in both)."""
    generic, triples = frame_kernel(a, flags, cfg)
    ref_generic, ref_triples = reference_kernel(a, flags, cfg)
    assert generic == ref_generic
    for got, want in zip(triples, ref_triples):
        if isinstance(want, tuple):
            assert got == want
        else:
            assert not isinstance(got, tuple)
            assert np.abs(got - want).max() <= rtol * np.abs(want).max() + atol
    return generic, triples


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rows(rng, k, n=1):
    return np.array([random_flag(rng, k, k) for _ in range(n)])


class TestFrameKernel:
    """``flags.frame_generic`` and ``coords.frame_triple_ratio_sets`` read
    every flag in A's eigen-coordinate frame; ``generic_position`` and
    ``triple_ratio_set`` stay the references."""

    @given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_flags_match_reference(self, seed, k, n, ill):
        rng = np.random.default_rng(seed)
        a = rows(rng, k)[0]
        if ill:   # an ill-conditioned frame: two rows of A nearly parallel
            a[1] = a[0] + 1e-4 * complex_normal(rng, k)
            a /= np.abs(a).max(axis=1, keepdims=True)
        generic, triples = assert_kernel_matches(a, rows(rng, k, n))
        assert all(generic)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_each_composition_made_deficient(self, rng, k):
        # the flag's last row a composition uses rebuilt from the stack's other rows
        a, flags = rows(rng, k)[0], rows(rng, k, 2)
        stack = {"A": a, "C": a[::-1], "D": flags[0, ::-1]}
        for i, j, l, m in _compositions((k,) * 4, k):
            if not j or (i, l) == (0, 0) and j == k:
                continue
            f = flags[1].copy()
            others = np.vstack([stack["A"][:i], f[:j - 1], stack["C"][:l], stack["D"][:m]])
            f[j - 1] = complex_normal(rng, k - 1) @ others
            f[j - 1] /= np.abs(f[j - 1]).max()
            generic, _ = assert_kernel_matches(a, np.array([flags[0], f]))
            assert generic == [True, False]

    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-9, 1e-11])
    def test_near_the_cut(self, rng, k, eps):
        # one row close to the span of its stack: the screen leaves it to the SVD,
        # whose answer must be generic_position's; the values are as
        # ill-conditioned as the stack (the relative tolerance is loosened by 1/eps)
        a, flags = rows(rng, k)[0], rows(rng, k, 2)
        f = flags[1]
        f[k - 2] = complex_normal(rng, 2) @ np.vstack([a[:1], f[:1]]) + eps * complex_normal(rng, k)
        f[k - 2] /= np.abs(f[k - 2]).max()
        assert_kernel_matches(a, flags, rtol=1e-12 / eps)

    def test_shared_line_fails_the_base(self):
        # commuting diagonal matrices: the base flags share their coordinate lines
        a = np.eye(3, dtype=complex)
        generic, _ = assert_kernel_matches(a, np.eye(3, dtype=complex)[[1, 0, 2]][None])
        assert generic == [False]

    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("which", ["numerator", "denominator", "D"])
    def test_degenerate_triples(self, rng, k, which):
        # a vanishing minor fails the genericity cut; below a tiny rank_tol a
        # vanishing denominator raises DegenerateTriple, as in triple_ratio_set
        a, flags = rows(rng, k)[0], rows(rng, k, 2)
        if which == "numerator":     # Delta(k - 1, 1, 0) of r3(A, b, C) vanishes
            flags[1, 0] = complex_normal(rng, k - 1) @ a[:k - 1]
        elif which == "denominator":  # Delta(k - 2, 2, 0) of r3(A, b, C) vanishes
            flags[1, 1] = complex_normal(rng, k - 1) @ np.vstack([a[:k - 2], flags[1, :1]])
        else:                        # D's first line in A_{k-1}: a vanishing minor of r3(A, C, D)
            flags[0, k - 1] = complex_normal(rng, k - 1) @ a[:k - 1]
        flags /= np.abs(flags).max(axis=2, keepdims=True)
        n = 1 if which == "D" else 2
        _, triples = assert_kernel_matches(a, flags)
        assert triples[n] == (GenericityViolation, "flags are not in generic position for a triple ratio")
        _, triples = assert_kernel_matches(a, flags, DEFAULT_TOLERANCES.override(rank_tol=1e-40),
                                           atol=1e-12)
        if which != "numerator":
            assert triples[n] == (DegenerateTriple, "triple ratio denominator vanishes")

    def test_inverted_set_is_r3_acd(self, rng):
        # r3(A, C, D)[p, q, r] = 1 / r3(A, D, C)[p, r, q]
        for k in range(3, 9):
            a, flags = rows(rng, k)[0], rows(rng, k, 1)
            _, (abc, acd) = frame_kernel(a, flags)
            adc = np.array([t.value for t in triple_ratio_set(a, flags[0, ::-1], a[::-1])])
            quotients = [(p, q, k - 3 - p - q) for p in range(k - 2) for q in range(k - 2 - p)]
            swapped = adc[[quotients.index((p, r, q)) for p, q, r in quotients]]
            assert np.abs(acd * swapped - 1).max() < 1e-9
