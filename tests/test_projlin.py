import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realform.config import DEFAULT_TOLERANCES
from realform.decide import prepare
from realform.errors import DegenerateFrame, NonDiagonalizable, RepeatedEigenvalues, SingularMatrix
from realform.projlin import (
    EigenSystem,
    ProjPoint,
    canonical_matrix,
    check_matrix,
    eig,
    eigensystems,
    frame_from_points,
    homography,
    in_band,
    matrices_proportional,
    proj_dist,
    proj_eq,
)

from conftest import pp, random_diagonalizable, random_invertible


class TestProjPoint:
    def test_canonical_scaling(self):
        p = pp(2, 2j)
        assert np.allclose(p.coords, [1, 1j])

    def test_tie_breaks_to_lowest_index(self):
        p = pp(3j, -3)
        assert p.coords[0] == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            pp(0, 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            pp(np.nan, 1)

    def test_one_coordinate_rejected(self):
        with pytest.raises(ValueError, match="^projective points need at least 2 coordinates$"):
            pp(1)

    def test_repr_shows_the_canonical_representative(self):
        assert repr(pp(2, 2j)) == "ProjPoint([1.+0.j 0.+1.j])"


class TestProjEq:
    def test_scalar_multiple(self):
        assert proj_eq(pp(2, 2j), pp(1, 1j), 1e-12)

    def test_distinct_points(self):
        assert not proj_eq(pp(1, 0), pp(0, 1), 1e-6)

    def test_different_dimensions(self):
        assert not proj_eq(pp(1, 0), pp(1, 0, 0), 1.0)

    def test_complex_scale(self):
        # oracle: (1+i) * [1, 1-i] = [1+i, 2]
        lhs = (1 + 1j) * np.array([1, 1 - 1j])
        assert np.allclose(lhs, [1 + 1j, 2])
        assert proj_eq(pp(1 + 1j, 2), pp(1, 1 - 1j), 1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_proj_dist_scale_invariant(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        s = complex(rng.normal(), rng.normal())
        if abs(s) < 1e-3 or np.linalg.norm(v) < 1e-3:
            return
        assert proj_dist(ProjPoint(v), ProjPoint(s * v)) < 1e-10


class TestEig:
    def test_diagonal_elliptic(self):
        es = eig(np.array([[1 + 1j, 0], [0, 1 - 1j]]))
        assert set(np.round(es.eigenvalues, 12)) == {1 + 1j, 1 - 1j}
        dirs = {tuple(np.round(d.coords, 12)) for d in es.directions}
        assert dirs == {(1, 0), (0, 1)}

    def test_worked_hyperbolic_matrix(self):
        # the printed representative is twice the one with spectrum {1, -2}
        es = eig(np.array([[3j - 1, 3j - 3], [-3j - 3, -3j - 1]]))
        ratio = es.eigenvalues[0] / es.eigenvalues[1]
        assert abs(ratio - (1 / -2)) < 1e-12
        assert proj_dist(es.directions[0], pp(-1, 1)) < 1e-12
        assert proj_dist(es.directions[1], pp(-1j, 1)) < 1e-12

    def test_repeated_eigenvalues(self):
        with pytest.raises(RepeatedEigenvalues):
            eig(np.eye(2))

    def test_non_square(self):
        m = np.ones((2, 3))
        assert eigensystems(m[None])[0] is None
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            eig(m)

    def test_deterministic_order(self):
        m = np.array([[0, -2.0], [2.0, 0]])  # eigenvalues +-2i
        es1, es2 = eig(m), eig(m.copy())
        assert np.array_equal(es1.eigenvalues, es2.eigenvalues)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_conjugation_preserves_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        d = np.diag([1.0, 2.0, -1.5])
        v = random_invertible(rng, 3, complex_=False)
        g = random_invertible(rng, 3)
        m = v @ d @ np.linalg.inv(v)
        es1 = eig(m)
        es2 = eig(g @ m @ np.linalg.inv(g))
        assert np.allclose(np.sort(es1.eigenvalues), np.sort(es2.eigenvalues), atol=1e-8)
        for lam, d1 in zip(es1.eigenvalues, es1.directions):
            j = int(np.argmin(np.abs(es2.eigenvalues - lam)))
            moved = ProjPoint(g @ d1.coords)
            assert proj_dist(moved, es2.directions[j]) < 1e-7


def reference_eig(m, cfg=DEFAULT_TOLERANCES):
    """The pair-by-pair and column-by-column loop that eig replaced."""
    a = check_matrix(m, cfg)
    lam, vecs = np.linalg.eig(a)
    order = np.lexsort((np.abs(lam), np.angle(lam)))
    lam = lam[order]
    vecs = vecs[:, order]
    k = a.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            gap = abs(lam[i] - lam[j]) / max(abs(lam[i]), abs(lam[j]))
            if gap <= cfg.sep_tol:
                raise RepeatedEigenvalues(
                    f"eigenvalues {lam[i]:.6g} and {lam[j]:.6g} are projectively equal")
    scale = max(1.0, float(np.abs(a).max()))
    dirs, refused = [], None
    for j in range(k):
        try:
            p = ProjPoint(vecs[:, j], cfg)
            v = p.coords
        except ValueError as exc:
            # a direction ProjPoint refuses is an eigensystem error, raised
            # once every residual has passed
            p, v = None, vecs[:, j]
            refused = refused or NonDiagonalizable(str(exc))
        res = np.linalg.norm(a @ v - lam[j] * v) / (np.linalg.norm(v) * scale)
        if res >= cfg.eig_tol:
            raise NonDiagonalizable(f"eigenvector residual {res:.3g} for eigenvalue {lam[j]:.6g}")
        dirs.append(p)
    if refused is not None:
        raise refused
    return EigenSystem(eigenvalues=lam, directions=tuple(dirs), matrix=a)


def _eig_outcome(fn, m):
    try:
        es = fn(m)
    except Exception as exc:  # the exception type and message are part of the outcome
        return type(exc), str(exc)
    return es.eigenvalues.tobytes(), [d.coords.tobytes() for d in es.directions]


class TestEigMatchesReference:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_same_eigendata(self, rng, k):
        kinds = ["hyperbolic", "elliptic"] if k == 2 else ["hyperbolic", "mixed"] + (
            ["elliptic"] if k % 2 == 0 or k == 3 else [])
        for kind in kinds:
            for _ in range(5):
                g = random_invertible(rng, k)
                m = g @ random_diagonalizable(rng, k, kind) @ np.linalg.inv(g)
                assert _eig_outcome(eig, m) == _eig_outcome(reference_eig, m)
        for _ in range(10):
            m = random_invertible(rng, k)
            assert _eig_outcome(eig, m) == _eig_outcome(reference_eig, m)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_repeated_names_the_same_pair(self, rng, k):
        for _ in range(10):
            lams = rng.uniform(0.5, 3, k) * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
            i, j = rng.choice(k, size=2, replace=False)
            lams[j] = lams[i] * (1 + rng.uniform(-5e-7, 5e-7))
            if k > 3 and rng.random() < 0.5:
                p, q = [x for x in range(k) if x not in (i, j)][:2]
                lams[q] = lams[p] * (1 + 1e-7j)
            v = random_invertible(rng, k)
            m = v @ np.diag(lams) @ np.linalg.inv(v)
            got = _eig_outcome(eig, m)
            assert got[0] is RepeatedEigenvalues
            assert got == _eig_outcome(reference_eig, m)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_nondiagonalizable_at_the_same_column(self, rng, monkeypatch, k):
        # a decomposition with spoiled eigenvectors: both versions must stop
        # at the first spoiled column of the sorted order, with the same message
        true_eig = np.linalg.eig
        for _ in range(5):
            m = random_invertible(rng, k)
            lam, vecs = true_eig(m)
            bad = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
            spoiled = vecs.copy()
            spoiled[:, bad] += 0.3 * (rng.normal(size=(k, bad.size)) + 1j * rng.normal(size=(k, bad.size)))
            # eig decomposes a stack of one matrix, the reference one matrix
            monkeypatch.setattr(np.linalg, "eig", lambda a: (
                np.broadcast_to(lam, a.shape[:-1]), np.broadcast_to(spoiled, a.shape)))
            got = _eig_outcome(eig, m)
            assert got[0] is NonDiagonalizable
            assert got == _eig_outcome(reference_eig, m)
            monkeypatch.undo()


class TestDirectionGate:
    """An eigenvector with no entry above deg_tol, or a non-finite one, is
    refused as an eigensystem error, as a large residual is."""

    def test_non_finite_eigenvector(self, monkeypatch):
        true_eig = np.linalg.eig

        def nan_eig(a):
            lam, vecs = true_eig(a)
            vecs = vecs.copy()
            vecs[..., 0] = np.nan
            return lam, vecs

        monkeypatch.setattr(np.linalg, "eig", nan_eig)
        with pytest.raises(NonDiagonalizable, match="^non-finite coordinates$"):
            eig(np.diag([2.0, 1.0, -3.0]))

    def test_direction_gate_matches_the_reference(self):
        # H diag(1, 1.2) H: s_min / s_max = 0.83 passes the singular gate at
        # deg_tol 0.75, but the eigenvectors (1, +-1)/sqrt(2) top out at 0.707
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        m = h @ np.diag([1.0, 1.2]) @ h
        cfg = DEFAULT_TOLERANCES.override(deg_tol=0.75)
        message = "zero vector does not define a projective point"
        assert _eig_outcome(lambda x: eig(x, cfg), m) == (NonDiagonalizable, message)
        assert _eig_outcome(lambda x: reference_eig(x, cfg), m) == (NonDiagonalizable, message)
        with pytest.raises(NonDiagonalizable, match=f"^matrix 0: {message}$"):
            prepare([m], cfg)

    def test_direction_below_deg_tol(self):
        # the unit eigenvectors of the cyclic shift have entries of size 8^-1/2
        with pytest.raises(NonDiagonalizable,
                           match="^zero vector does not define a projective point$"):
            eig(np.roll(np.eye(8), 1, axis=0), DEFAULT_TOLERANCES.override(deg_tol=0.9))


class TestFrames:
    def test_standard_frame(self):
        f = frame_from_points([pp(1, 0), pp(0, 1), pp(1, 1)])
        assert np.allclose(f.basis, np.eye(2))

    def test_worked_hyperbolic_frame(self):
        f = frame_from_points([pp(-1, 1), pp(-1j, 1), pp(1, 1)])
        assert np.allclose(f.basis[:, 0], [1j, -1j])
        assert np.allclose(f.basis[:, 1], [1 - 1j, 1 + 1j])

    def test_worked_elliptic_frame(self):
        f = frame_from_points([pp(1, 0), pp(0, 1), pp(-1j, 3)])
        # canonical representative of [-i, 3] is [-i/3, 1]
        assert np.allclose(f.basis[:, 0] * 3, [-1j, 0])
        assert np.allclose(f.basis[:, 1] * 3, [0, 3])

    def test_degenerate_frame(self):
        with pytest.raises(DegenerateFrame):
            frame_from_points([pp(1, 0), pp(2, 0), pp(1, 1)])

    def test_wrong_point_count(self):
        with pytest.raises(ValueError, match="^need 3 points for a frame in dimension 2$"):
            frame_from_points([pp(1, 0), pp(0, 1)])

    def test_sum_is_last_point(self, rng):
        for _ in range(20):
            pts = [ProjPoint(rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in range(4)]
            try:
                f = frame_from_points(pts)
            except DegenerateFrame:
                continue
            total = ProjPoint(f.basis.sum(axis=1))
            assert proj_dist(total, pts[3]) < 1e-8


class TestHomography:
    def test_identity(self):
        f = frame_from_points([pp(1, 0), pp(0, 1), pp(1, 1)])
        g = homography(f, f)
        assert matrices_proportional(np.eye(2), g, 1e-12)

    def test_diagonal_target(self):
        src = frame_from_points([pp(1, 0), pp(0, 1), pp(1, 1)])
        dst = frame_from_points([pp(1, 0), pp(0, 1), pp(1j, 1)])
        g = homography(src, dst)
        # verified directly: image of each basis direction
        assert proj_dist(ProjPoint(g @ [1, 0]), pp(1, 0)) < 1e-12
        assert proj_dist(ProjPoint(g @ [0, 1]), pp(0, 1)) < 1e-12
        assert proj_dist(ProjPoint(g @ [1, 1]), pp(1j, 1)) < 1e-12
        assert matrices_proportional(np.diag([1j, 1]), g, 1e-12)

    def test_swap(self):
        src = frame_from_points([pp(1, 0), pp(0, 1), pp(1, 1)])
        dst = frame_from_points([pp(0, 1), pp(1, 0), pp(1, 1)])
        g = homography(src, dst)
        assert proj_dist(ProjPoint(g @ [1, 0]), pp(0, 1)) < 1e-12

    def test_composition(self, rng):
        def random_frame():
            while True:
                try:
                    return frame_from_points(
                        [ProjPoint(rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in range(4)]
                    )
                except DegenerateFrame:
                    continue

        f, g, h = random_frame(), random_frame(), random_frame()
        a = homography(f, g)
        b = homography(g, h)
        c = homography(f, h)
        assert matrices_proportional(c, b @ a, 1e-8)

    def test_dimension_mismatch(self):
        src = frame_from_points([pp(1, 0), pp(0, 1), pp(1, 1)])
        dst = frame_from_points([pp(1, 0, 0), pp(0, 1, 0), pp(0, 0, 1), pp(1, 1, 1)])
        with pytest.raises(ValueError, match="^frames live in different dimensions$"):
            homography(src, dst)

    def test_nothing_is_proportional_to_zero(self):
        assert not matrices_proportional(np.zeros((2, 2)), np.eye(2), 1.0)
        assert not matrices_proportional(np.zeros((2, 2)), np.zeros((2, 2)), 1.0)


def test_check_matrix_rejects_singular():
    with pytest.raises(ValueError):
        check_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_in_band_scales_by_powers_of_two_only_outside_the_band():
    a = np.array([[[1e300, 3j], [1, 2]], [[1, 2], [3, 4j]], [[1e-300j, 0], [0, 2e-301]]])
    inside = a[1:2]
    assert in_band(inside) is inside
    b = in_band(a)
    assert (b[1] == a[1]).all()
    for i in (0, 2):
        top = np.maximum(np.abs(a[i].real), np.abs(a[i].imag)).max()
        # the largest entry's binary exponent is taken off every entry, exactly
        assert (b[i] == a[i] * 2.0 ** -np.frexp(top)[1]).all()
        assert 0.5 <= np.maximum(np.abs(b[i].real), np.abs(b[i].imag)).max() < 1


def test_singular_at_a_huge_scale_has_no_close_pair_warning():
    # two exact zero eigenvalues read 0/0 in the separation test
    big = 1.7976931348623157e308
    m = np.array([[big * 1j, 1, 1], [-big, 1, 1], [1, 1, 1j]])
    stack, exc = eigensystems(m[None])
    assert len(stack.rows) == 0 and isinstance(exc, SingularMatrix)


def test_canonical_matrix_largest_entry_one():
    g = canonical_matrix(np.array([[2j, 1], [0.5, -1]]))
    assert abs(np.abs(g).max() - 1) < 1e-12


def test_frame_round_trip_up_to_common_scale(rng):
    # basis -> (points + sum) -> frame recovers the basis up to one scalar
    b = random_invertible(rng, 3)
    pts = [ProjPoint(b[:, j]) for j in range(3)] + [ProjPoint(b.sum(axis=1))]
    f = frame_from_points(pts)
    coeffs = np.linalg.solve(b, f.basis)
    off_diag = coeffs - np.diag(np.diag(coeffs))
    assert np.max(np.abs(off_diag)) < 1e-9
    diag = np.diag(coeffs)
    assert np.max(np.abs(diag - diag[0])) < 1e-9 * max(1, abs(diag[0]))
