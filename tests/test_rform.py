import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realform.errors import NoConjugation, UnderdeterminedConjugation
from realform.projlin import ProjPoint, proj_dist
from realform.config import DEFAULT_TOLERANCES
from realform.rform import (
    Conjugation,
    _constraint_rows,
    _nullspace,
    Multiplicity,
    conjugation_from_eigendata,
    conjugation_witness,
    elliptic_pair,
    hyperbolic_datum,
    preserves,
    realifier,
    rform_from_conjugation,
    rform_multiplicity,
)

from conftest import pp, random_invertible


def null_projector(vectors):
    """Orthogonal projector onto the span of the given vectors."""
    b = np.array([np.ravel(v) for v in vectors])
    return b.T @ b.conj()


class TestNullspace:
    @pytest.mark.parametrize("k,n_rows,rank", [(3, 6, 5), (3, 12, 8), (4, 20, 11), (4, 40, 15)])
    def test_matches_full_svd(self, rng, k, n_rows, rank):
        # rank-deficient rows, fewer and more than k^2 of them
        rows = ((rng.normal(size=(n_rows, rank)) + 1j * rng.normal(size=(n_rows, rank)))
                @ (rng.normal(size=(rank, k * k)) + 1j * rng.normal(size=(rank, k * k))))
        _, s, vh = np.linalg.svd(rows)
        full_rank = int(np.sum(s > DEFAULT_TOLERANCES.rank_tol * s[0]))
        expect = [vh[i].conj() for i in range(full_rank, k * k)]
        got = _nullspace(rows, k, DEFAULT_TOLERANCES.rank_tol)
        assert len(got) == len(expect) == k * k - rank
        assert np.max(np.abs(null_projector(got) - null_projector(expect))) < 1e-12

    @pytest.mark.parametrize("n_points", [2, 4])
    def test_constraint_rows_of_real_frame(self, rng, n_points):
        # fixed real directions: 3 rows each, below and above k^2 = 9
        rows = np.vstack([_constraint_rows(v, v) for v in rng.normal(size=(n_points, 3)) + 0j])
        got = _nullspace(rows, 3, DEFAULT_TOLERANCES.rank_tol)
        _, s, vh = np.linalg.svd(rows)
        rank = int(np.sum(s > DEFAULT_TOLERANCES.rank_tol * s[0]))
        assert len(got) == 9 - rank
        assert np.max(np.abs(null_projector(got) - null_projector(vh[rank:].conj()))) < 1e-12


def random_conjugation(rng, k):
    """Conjugation fixing the columns of a random basis."""
    b = random_invertible(rng, k)
    s = b @ np.linalg.inv(np.conj(b))
    return Conjugation(S=s), b


class TestConjugationFromEigendata:
    def test_real_frame_gives_standard_conjugation(self):
        data = [hyperbolic_datum(p) for p in (pp(1, 0, 0), pp(0, 1, 0), pp(0, 0, 1), pp(1, 1, 1))]
        c = conjugation_from_eigendata(data)
        assert np.allclose(c.S, np.eye(3))

    def test_incompatible_rotation_pairs(self):
        data = [*elliptic_pair(pp(1, 0), pp(0, 1)), *elliptic_pair(pp(1, 1), pp(-1, 1))]
        with pytest.raises(NoConjugation):
            conjugation_from_eigendata(data)

    def test_unit_circle_from_elliptic_data(self):
        data = [*elliptic_pair(pp(1, 0), pp(0, 1)), *elliptic_pair(pp(-1j, 3), pp(-3j, 1))]
        c = conjugation_from_eigendata(data)
        # fixed set is {[z, 1]: |z| = 1}
        for z in (1, -1, 1j, np.exp(0.3j)):
            v = np.array([z, 1.0])
            img = ProjPoint(c.apply(v))
            assert proj_dist(img, ProjPoint(v)) < 1e-9
        off = ProjPoint([2.0, 1.0])
        assert proj_dist(ProjPoint(c.apply(off.coords)), off) > 0.1

    def test_underdetermined_carries_witness(self):
        data = [hyperbolic_datum(p) for p in (pp(1, 0, 0), pp(0, 1, 0), pp(0, 0, 1), pp(0, 1, 1))]
        with pytest.raises(UnderdeterminedConjugation) as exc:
            conjugation_from_eigendata(data)
        witness = exc.value.witness
        for d in data:
            img = ProjPoint(witness.apply(d.direction.coords))
            assert proj_dist(img, d.direction) < 1e-8

    def test_frame_points_on_fixed_set(self, rng):
        pts = [ProjPoint(rng.normal(size=3)) for _ in range(4)]
        data = [hyperbolic_datum(p) for p in pts]
        c, _ = conjugation_witness(data)
        for p in pts:
            assert proj_dist(ProjPoint(c.apply(p.coords)), p) < 1e-8

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        c, _ = random_conjugation(rng, 3)
        # S conj(S) = I makes applying twice the identity
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.allclose(c.apply(c.apply(v)), v, atol=1e-8)


class TestMultiplicity:
    def test_staged_sets(self):
        base = [
            *elliptic_pair(pp(-1j, 1, 0), pp(1j, 1, 0)),
            *elliptic_pair(pp(1 + 1j, 1, 0), pp(1 - 1j, 1, 0)),
            hyperbolic_datum(pp(0, 0, 1)),
        ]
        assert rform_multiplicity(base) is Multiplicity.INFINITE
        stage2 = base + [hyperbolic_datum(pp(0, 1, 1))]
        assert rform_multiplicity(stage2) is Multiplicity.ONE
        stage3 = stage2 + [*elliptic_pair(pp(1, 0, 1), pp(2, 0, 2))]
        assert rform_multiplicity(stage3) is Multiplicity.ZERO

    def test_disjoint_hyperbolic_supports(self):
        data = [hyperbolic_datum(p) for p in (pp(1, 0, 0), pp(0, 1, 0), pp(0, 0, 1), pp(0, 1, 1))]
        assert rform_multiplicity(data) is Multiplicity.INFINITE


class TestRFormBasis:
    def test_identity_conjugation(self):
        form = rform_from_conjugation(Conjugation(S=np.eye(2, dtype=complex)))
        assert abs(np.linalg.det(form.basis)) > 0.5
        assert np.allclose(form.basis.imag, 0)

    def test_swap_conjugation_fixed_basis(self):
        c = Conjugation(S=np.array([[0, 1], [1, 0]], dtype=complex))
        form = rform_from_conjugation(c)
        for j in range(2):
            u = form.basis[:, j]
            assert np.allclose(c.apply(u), u, atol=1e-10)
        # the classic fixed pair spans the same real form
        expected = np.column_stack([[1, 1], [1j, -1j]])
        coeffs = np.linalg.solve(form.basis, expected)
        assert np.allclose(coeffs.imag, 0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        c, _ = random_conjugation(rng, 3)
        form = rform_from_conjugation(c)
        for j in range(3):
            u = form.basis[:, j]
            assert np.allclose(c.apply(u), u, atol=1e-8)


class TestPreserves:
    def test_real_matrix_standard_conjugation(self, rng):
        m = rng.normal(size=(3, 3))
        assert preserves(m, Conjugation(S=np.eye(3, dtype=complex)))

    def test_rotation_scaling_not_real(self):
        m = np.diag([2j, 1])
        assert not preserves(m, Conjugation(S=np.eye(2, dtype=complex)))

    def test_rotation_preserved_by_imaginary_axis(self):
        m = np.array([[1, -1j], [-1j, 1]])
        assert not preserves(m, Conjugation(S=np.eye(2, dtype=complex)))
        # reflection about the imaginary axis swaps the fixed points +-1
        s = np.diag([-1.0, 1.0]).astype(complex)
        assert preserves(m, Conjugation(S=s))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conjugation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        c, basis = random_conjugation(rng, 3)
        m = basis @ rng.normal(size=(3, 3)) @ np.linalg.inv(basis)  # preserves the form of c
        assert preserves(m, c)
        g = random_invertible(rng, 3)
        moved = g @ m @ np.linalg.inv(g)
        s_new = g @ c.S @ np.conj(np.linalg.inv(g))
        assert preserves(moved, Conjugation(S=s_new))


class TestRealifier:
    def test_identity(self):
        g = realifier(Conjugation(S=np.eye(2, dtype=complex)))
        assert np.allclose(g.imag, 0)

    def test_unit_circle_realifier(self):
        c = Conjugation(S=np.array([[0, 1], [1, 0]], dtype=complex))
        g = realifier(c)
        inv = np.linalg.inv(g)
        # pulled back, the conjugation is plain entrywise conjugation
        for _ in range(5):
            v = np.random.default_rng(1).normal(size=2) + 1j * np.random.default_rng(2).normal(size=2)
            lhs = inv @ c.apply(g @ v)
            assert np.allclose(lhs, np.conj(v), atol=1e-9)

    def test_scenario_realifier_realifies(self):
        data = [*elliptic_pair(pp(1, 0), pp(0, 1)), *elliptic_pair(pp(-1j, 3), pp(-3j, 1))]
        c = conjugation_from_eigendata(data)
        g = realifier(c)
        m = np.diag([1 + 1j, 1 - 1j])
        n = np.linalg.inv(g) @ m @ g
        w = np.sum(n * n)
        n = n * np.exp(-0.5j * np.angle(w))
        assert np.max(np.abs(n.imag)) < 1e-9 * np.max(np.abs(n))


def test_conjugation_round_trip_up_to_phase(rng):
    # conjugation -> fixed basis -> conjugation fixing that basis is the
    # original involution up to the phase gauge
    c, _ = random_conjugation(rng, 3)
    form = rform_from_conjugation(c)
    b = form.basis
    s_back = b @ np.conj(np.linalg.inv(b))
    z = np.vdot(c.S, s_back) / np.vdot(c.S, c.S)
    assert abs(abs(z) - 1) < 1e-8
    assert np.linalg.norm(s_back - z * c.S) < 1e-8 * np.linalg.norm(s_back)
