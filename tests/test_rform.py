import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from realform.decide import _base_order, _eigendata, prepare
from realform.errors import NoConjugation, NumericalDegeneracy, UnderdeterminedConjugation
from realform.oracle import InstanceSpec, generate
from realform.projlin import ProjPoint, proj_dist
from realform.config import DEFAULT_TOLERANCES
from realform.rform import (
    Conjugation,
    Multiplicity,
    conjugation_from_eigendata,
    conjugation_witness,
    elliptic_pair,
    hyperbolic_datum,
    preserves,
    realifier,
    rform_multiplicity,
)

from conftest import pp, random_invertible


def _constraint_rows(src, tgt) -> np.ndarray:
    """Rows expressing S @ conj(src) parallel to tgt, linear in vec(S), for one
    pair of directions or stacks of them: P kron conj(src), P the projector
    off tgt, formed directly as the products P[i, j] * conj(src[l])."""
    src, tgt = np.atleast_2d(src, tgt)
    t = np.array([w / np.linalg.norm(w) for w in tgt])
    k = t.shape[1]
    proj = np.eye(k, dtype=complex) - t[:, :, None] * np.conj(t)[:, None, :]
    return (proj[:, :, :, None] * np.conj(src)[:, None, None, :]).reshape(-1, k * k)


def _nullspace(rows: np.ndarray, dim: int, rank_tol: float):
    if rows.shape[0] == 0:
        return list(np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim))
    _, s, vh = np.linalg.svd(rows, full_matrices=rows.shape[0] < dim * dim)
    rank = int(np.sum(s > rank_tol * s[0]))
    return [vh[i].conj().reshape(dim, dim) for i in range(rank, dim * dim)]


def reference_conjugation(data, cfg=DEFAULT_TOLERANCES):
    """The solve over all k^2 entries of S, kept as the reference.

    Returns ("one", S) with S @ conj(S) = I, ("infinite", free_real_dims)
    when the solutions form a space of dimension d > 1, or ("none", None)
    when there is no solution or the solution line holds no involution
    (the test on S @ conj(S) being a positive multiple of I, at 1e-7).
    """
    k = data[0].direction.dim
    if any(d.partner is not None and proj_dist(d.direction, d.partner) < cfg.sep_tol
           for d in data):
        return "none", None
    src = [d.direction.coords for d in data]
    tgt = [(d.direction if d.hyperbolic else d.partner).coords for d in data]
    null = _nullspace(_constraint_rows(src, tgt), k, cfg.rank_tol)
    if len(null) != 1:
        return ("infinite", 2 * len(null) - 2) if null else ("none", None)
    t = null[0] @ np.conj(null[0])
    c = np.trace(t) / k
    if np.linalg.norm(t - c * np.eye(k)) > 1e-7 * np.linalg.norm(t):
        return "none", None
    if abs(c.imag) > 1e-7 * abs(c) or c.real <= 0:
        return "none", None
    return "one", null[0] / np.sqrt(c.real)


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


def kron_rows(src, tgt):
    """The rows as first written: np.kron of the projector off tgt with conj(src)."""
    t = tgt / np.linalg.norm(tgt)
    proj = np.eye(t.size, dtype=complex) - np.outer(t, np.conj(t))
    return np.kron(proj, np.conj(src)[None, :])


@pytest.mark.parametrize("k", range(2, 9))
def test_constraint_rows_equal_kron_formula(rng, k):
    for n in (1, 2, k, 2 * k):
        src = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        tgt = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        assert np.array_equal(_constraint_rows(src, tgt),
                              np.vstack([kron_rows(s, t) for s, t in zip(src, tgt)]))
        assert np.array_equal(_constraint_rows(src[0], tgt[0]), kron_rows(src[0], tgt[0]))


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

    @pytest.mark.parametrize("solve", [conjugation_from_eigendata, rform_multiplicity])
    def test_empty_data_rejected(self, solve):
        with pytest.raises(ValueError, match="empty eigendata"):
            solve([])

    def test_witness_carries_the_multiplicity(self):
        frame = [hyperbolic_datum(p) for p in (pp(1, 0, 0), pp(0, 1, 0), pp(0, 0, 1), pp(1, 1, 1))]
        c, mult = conjugation_witness(frame)
        assert mult is Multiplicity.ONE and np.allclose(c.S, np.eye(3))
        loose = [hyperbolic_datum(p) for p in (pp(1, 0, 0), pp(0, 1, 0), pp(0, 0, 1), pp(0, 1, 1))]
        c, mult = conjugation_witness(loose)
        assert mult is Multiplicity.INFINITE
        for d in loose:
            assert proj_dist(ProjPoint(c.apply(d.direction.coords)), d.direction) < 1e-8

    def test_disjoint_hyperbolic_supports(self):
        data = [hyperbolic_datum(p) for p in (pp(1, 0, 0), pp(0, 1, 0), pp(0, 0, 1), pp(0, 1, 1))]
        assert rform_multiplicity(data) is Multiplicity.INFINITE


class TestRFormBasis:
    def test_identity_conjugation(self):
        g = realifier(Conjugation(S=np.eye(2, dtype=complex)))
        assert abs(np.linalg.det(g)) > 0.5
        assert np.allclose(g.imag, 0)

    def test_swap_conjugation_fixed_basis(self):
        c = Conjugation(S=np.array([[0, 1], [1, 0]], dtype=complex))
        g = realifier(c)
        for j in range(2):
            u = g[:, j]
            assert np.allclose(c.apply(u), u, atol=1e-10)
        # the classic fixed pair spans the same real form
        expected = np.column_stack([[1, 1], [1j, -1j]])
        coeffs = np.linalg.solve(g, expected)
        assert np.allclose(coeffs.imag, 0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        c, _ = random_conjugation(rng, 3)
        g = realifier(c)
        for j in range(3):
            u = g[:, j]
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
    b = realifier(c)
    s_back = b @ np.conj(np.linalg.inv(b))
    z = np.vdot(c.S, s_back) / np.vdot(c.S, c.S)
    assert abs(abs(z) - 1) < 1e-8
    assert np.linalg.norm(s_back - z * c.S) < 1e-8 * np.linalg.norm(s_back)


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_realifier_of_random_involution(k, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    assume(np.linalg.cond(g) < 1e4)
    c = Conjugation(S=g @ np.linalg.inv(np.conj(g)))
    gamma = realifier(c)
    # every column is fixed by v -> S conj(v)
    fixed = np.linalg.norm(c.apply(gamma) - gamma, axis=0)
    assert (fixed <= 1e-8 * np.linalg.norm(gamma, axis=0)).all()
    # a real-orthonormal basis of the real form
    assert np.allclose((gamma.conj().T @ gamma).real, np.eye(k), atol=1e-10)
    # a real matrix moved by g comes back projectively real
    moved = g @ rng.normal(size=(k, k)) @ np.linalg.inv(g)
    n = np.linalg.solve(gamma, moved @ gamma)
    w = np.sum(n * n)
    n = n * np.exp(-0.5j * np.angle(w))
    assert np.max(np.abs(n.imag)) < 1e-8 * np.max(np.abs(n))


def test_realifier_makes_one_svd(monkeypatch, rng):
    calls = []
    svd = np.linalg.svd

    def counted(m, *args, **kwargs):
        calls.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for k in (2, 5, 8):
        calls.clear()
        c, _ = random_conjugation(rng, k)
        realifier(c)
        assert calls == [(2 * k, 2 * k)]


def test_realifier_gates_an_ill_conditioned_form(rng):
    # S = -I fixes i R^3: the columns of I - S alone span it
    gamma = realifier(Conjugation(S=-np.eye(3, dtype=complex)))
    assert np.allclose(gamma.real, 0)
    # a real form with cond 1e8 leaves the k-th singular value of the
    # spanning set below 1e-6 of the first
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    g = u @ np.diag([1, 1e4, 1e8]) @ u.conj().T
    with pytest.raises(NumericalDegeneracy, match="independent fixed basis"):
        realifier(Conjugation(S=g @ np.linalg.inv(np.conj(g))))


def oracle_data(rng, k):
    """The eigendata decide_direct solves for an oracle instance, Yes or No."""
    kinds = (("hyperbolic", "elliptic") if k == 2 else ("hyperbolic", "mixed") if k % 2 and k > 3
             else ("hyperbolic", "elliptic", "mixed"))
    n = int(rng.integers(2, 5))
    mix = dict.fromkeys(kinds, 0)
    for kind in rng.choice(kinds, size=n):
        mix[str(kind)] += 1
    pert = (0, 0.05) if rng.random() < 0.5 else None
    spec = InstanceSpec(k=k, n_generators=n, type_mix=mix, seed=int(rng.integers(2**31)),
                        perturbation=pert)
    infos = prepare(generate(spec).matrices)
    return [d for j in _base_order(infos) for d in _eigendata(infos[j])]


def partial_data(rng, k):
    """Fixed directions and swapped pairs of a random real form: a
    partner-closed independent set of m <= k directions, then more data
    in its span."""
    b = random_invertible(rng, k)
    m = int(rng.integers(1, k + 1))
    n_pairs = int(rng.integers(0, m // 2 + 1))
    z = rng.normal(size=(n_pairs, k)) + 1j * rng.normal(size=(n_pairs, k))
    r = rng.normal(size=(m - 2 * n_pairs, k))
    data = [d for v in z for d in elliptic_pair(b @ v, b @ np.conj(v))]
    data += [hyperbolic_datum(b @ v) for v in r]
    real_span = np.vstack([r, z.real, z.imag]).T
    for _ in range(int(rng.integers(0, 4))):
        a = rng.normal(size=m)
        if rng.random() < 0.5:
            data.append(hyperbolic_datum(b @ real_span @ a))
        else:
            a = a + 1j * rng.normal(size=m)
            data += elliptic_pair(b @ real_span @ a, b @ real_span @ np.conj(a))
    return data


def quaternionic_data(rng, k):
    """Pairs (v, J conj(v)) of a quaternionic structure, J conj(J) = -I:
    k/2 + 2 pairs pin J down, and no conjugation swaps them."""
    b = random_invertible(rng, k)
    omega = np.kron(np.eye(k // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    j = b @ omega @ np.linalg.inv(np.conj(b))
    vs = rng.normal(size=(k // 2 + 2, k)) + 1j * rng.normal(size=(k // 2 + 2, k))
    return [d for v in vs for d in elliptic_pair(v, j @ np.conj(v))]


def solve_outcome(data):
    try:
        return "one", conjugation_from_eigendata(data)
    except UnderdeterminedConjugation as exc:
        return "infinite", exc
    except NoConjugation:
        return "none", None


@given(st.integers(0, 2**32 - 1), st.integers(2, 8),
       st.sampled_from(["oracle", "partial", "quaternionic"]))
@settings(max_examples=120, deadline=None)
def test_eigenbasis_solve_matches_reference(seed, k, case):
    rng = np.random.default_rng(seed)
    if case == "quaternionic":
        k += k % 2
    data = {"oracle": oracle_data, "partial": partial_data, "quaternionic": quaternionic_data}[case](rng, k)
    # compare only where the reference's rank cut is clear: with k^2
    # unknowns a badly conditioned draw can leave a singular value near it
    src = [d.direction.coords for d in data]
    tgt = [(d.direction if d.hyperbolic else d.partner).coords for d in data]
    s = np.linalg.svd(_constraint_rows(src, tgt), compute_uv=False)
    assume(not np.any((s > 1e-10 * s[0]) & (s < 1e-6 * s[0])))
    kind, ref = reference_conjugation(data)
    got, out = solve_outcome(data)
    assert got == kind
    if case == "quaternionic":
        assert kind == "none"
    if got == "none":
        return
    if got == "infinite":
        assert out.free_real_dims == ref
        out = out.witness
    else:
        z = np.vdot(ref, out.S) / np.vdot(ref, ref)
        assert abs(abs(z) - 1) < 1e-6
        assert np.linalg.norm(out.S - z * ref) < 1e-6 * np.linalg.norm(out.S)
    for d in data:
        tgt = d.direction if d.hyperbolic else d.partner
        assert proj_dist(ProjPoint(out.apply(d.direction.coords)), tgt) < 1e-8


def test_pairs_without_partner_closed_base_raise():
    # two pairs swapped by plain complex conjugation span C^3, but no
    # partner-closed independent subset of their directions does; the
    # solve over all k^2 entries finds S = I
    data = [*elliptic_pair([1, 1j, 0], [1, -1j, 0]), *elliptic_pair([0, 1, 1j], [0, 1, -1j])]
    kind, s = reference_conjugation(data)
    assert kind == "one" and np.allclose(s / s[0, 0], np.eye(3))
    with pytest.raises(NumericalDegeneracy):
        conjugation_from_eigendata(data)
