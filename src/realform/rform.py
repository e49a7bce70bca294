"""Real forms of C^k via conjugate-linear involutions.

A conjugation is the map v -> S @ conj(v) with S @ conj(S) = I; its
fixed vectors form a real form whose projectivization is a copy of
RP^{k-1} inside CP^{k-1}.  Given eigendata (hyperbolic directions to be
fixed, elliptic pairs to be swapped) the matrix S is the solution of a
linear system; solving it, counting how many projective real forms the
data allows, and producing the explicit change of basis that realifies
a compatible collection all live here.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import NoConjugation, NumericalDegeneracy, UnderdeterminedConjugation
from .projlin import ProjPoint, matrices_proportional, proj_dist


@dataclass(frozen=True)
class Conjugation:
    """Antilinear involution v -> S @ conj(v), normalized S @ conj(S) = I."""

    S: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.S @ np.conj(v)

    @property
    def dim(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True)
class RForm:
    """A real form: C-basis (columns) each fixed by the conjugation."""

    basis: np.ndarray
    conj: Conjugation


@dataclass(frozen=True)
class EigenDatum:
    """One projective direction with its conjugation behaviour.

    ``partner`` is None for hyperbolic directions (fixed by the
    conjugation) and the paired ProjPoint for elliptic ones (swapped).
    """

    direction: ProjPoint
    partner: ProjPoint | None = None

    @property
    def hyperbolic(self) -> bool:
        return self.partner is None


class Multiplicity(Enum):
    ZERO = "zero"
    ONE = "one"
    INFINITE = "infinite"


def hyperbolic_datum(p) -> EigenDatum:
    return EigenDatum(direction=p if isinstance(p, ProjPoint) else ProjPoint(p))


def elliptic_pair(p, q) -> tuple[EigenDatum, EigenDatum]:
    pp = p if isinstance(p, ProjPoint) else ProjPoint(p)
    qq = q if isinstance(q, ProjPoint) else ProjPoint(q)
    return EigenDatum(direction=pp, partner=qq), EigenDatum(direction=qq, partner=pp)


def _constraint_rows(src, tgt) -> np.ndarray:
    """Rows expressing S @ conj(src) parallel to tgt, linear in vec(S), for one
    pair of directions or stacks of them: P kron conj(src), P the projector
    off tgt, formed directly as the products P[i, j] * conj(src[l])."""
    src, tgt = np.atleast_2d(src, tgt)
    # one norm per vector: a batched norm sums in another order and moves the rows
    t = np.array([w / np.linalg.norm(w) for w in tgt])
    k = t.shape[1]
    proj = np.eye(k, dtype=complex) - t[:, :, None] * np.conj(t)[:, None, :]
    return (proj[:, :, :, None] * np.conj(src)[:, None, None, :]).reshape(-1, k * k)


def _nullspace(rows: np.ndarray, dim: int, rank_tol: float):
    if rows.shape[0] == 0:
        return [np.eye(dim, dtype=complex)] if dim == 1 else [
            m for m in np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
        ]
    # Vh must be square; with at least dim^2 rows the thin factorization
    # already gives that and skips the unused full U
    _, s, vh = np.linalg.svd(rows, full_matrices=rows.shape[0] < dim * dim)
    rank = int(np.sum(s > rank_tol * s[0]))
    return [vh[i].conj().reshape(dim, dim) for i in range(rank, dim * dim)]


def _normalize_involution(S: np.ndarray, rank_tol: float) -> np.ndarray | None:
    """Rescale S so S @ conj(S) = I, or None if that is impossible.

    Within the solution line C*S this works exactly when S @ conj(S) is
    a positive multiple of I; a negative multiple is the quaternionic
    case with no fixed real form.
    """
    t = S @ np.conj(S)
    c = np.trace(t) / t.shape[0]
    if np.linalg.norm(t - c * np.eye(t.shape[0])) > 1e-7 * max(np.linalg.norm(t), 1e-300):
        return None
    if abs(c.imag) > 1e-7 * max(abs(c), 1e-300) or c.real <= 0:
        return None
    return S / np.sqrt(c.real)


def _check_solution(S: np.ndarray, data, cfg) -> bool:
    for d in data:
        try:
            img = ProjPoint(S @ np.conj(d.direction.coords), cfg)
        except ValueError:
            return False
        tgt = d.direction if d.hyperbolic else d.partner
        if proj_dist(img, tgt) > 1e-6:
            return False
    return True


def _solve_in_coords(coord_data, dim, cfg, depth=0):
    """Solve for S acting on coordinate vectors; returns (S, n_free_complex).

    ``coord_data`` is a list of (src, tgt_or_None) with tgt None meaning
    the direction is fixed.  Recurses through support blocks when the
    solution space has extra dimensions.
    """
    pairs = [p for v, w in coord_data for p in ([(v, v)] if w is None else [(v, w), (w, v)])]
    stacked = _constraint_rows(*zip(*pairs)) if pairs else np.zeros((0, dim * dim), dtype=complex)
    basis_mats = _nullspace(stacked, dim, cfg.rank_tol)
    d = len(basis_mats)
    if d == 0:
        raise NoConjugation("antilinear system is inconsistent")
    if d == 1:
        S = _normalize_involution(basis_mats[0], cfg.rank_tol)
        if S is None:
            raise NoConjugation("solution line carries no involution (S conj(S) not a positive scalar)")
        return S, 1

    # Extra freedom: split into support blocks and solve each.
    if depth > dim:
        raise NumericalDegeneracy("block recursion failed to terminate")
    S = _solve_blockwise(coord_data, dim, cfg, depth)
    return S, d


def _greedy_basis(vectors, dim, rank_tol):
    cols = []
    for v in vectors:
        if not cols:
            cols.append(v / np.linalg.norm(v))
            continue
        m = np.column_stack(cols + [v / np.linalg.norm(v)])
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > rank_tol * s[0]:
            cols.append(v / np.linalg.norm(v))
        if len(cols) == dim:
            break
    for j in range(dim):
        if len(cols) == dim:
            break
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        m = np.column_stack(cols + [e])
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > rank_tol * s[0]:
            cols.append(e)
    return np.column_stack(cols)


def _solve_blockwise(coord_data, dim, cfg, depth):
    """Assemble a conjugation from independent support blocks.

    Directions are re-expressed in a greedy basis built from them; the
    union of coordinate supports (with elliptic partners co-located)
    splits the index set, and each block is solved on its own.
    """
    vectors = []
    for v, w in coord_data:
        vectors.append(v)
        if w is not None:
            vectors.append(w)
    U = _greedy_basis(vectors, dim, cfg.rank_tol)
    inv = np.linalg.inv(U)

    def support(x):
        m = np.abs(x)
        return frozenset(int(i) for i in np.nonzero(m > 1e-7 * m.max())[0])

    parent = list(range(dim))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    entries = []
    for v, w in coord_data:
        x = inv @ v
        y = inv @ w if w is not None else None
        sup = support(x) | (support(y) if y is not None else frozenset())
        entries.append((x, y, sup))
        sup = sorted(sup)
        for i in sup[1:]:
            union(sup[0], i)

    blocks = {}
    for i in range(dim):
        blocks.setdefault(find(i), []).append(i)
    blocks = [sorted(b) for _, b in sorted(blocks.items())]
    if len(blocks) == 1:
        return _solve_irreducible(entries, dim, cfg, depth)

    S_U = np.zeros((dim, dim), dtype=complex)
    for idx in blocks:
        members = [(x[idx], y[idx] if y is not None else None) for x, y, sup in entries if sup <= set(idx)]
        if not members:
            S_U[np.ix_(idx, idx)] = np.eye(len(idx))
            continue
        Sb, _ = _solve_in_coords(members, len(idx), cfg, depth + 1)
        S_U[np.ix_(idx, idx)] = Sb
    return U @ S_U @ np.conj(inv)


def _solve_irreducible(entries, dim, cfg, depth):
    """Base cases for a block the support graph cannot split further."""
    if dim == 1:
        # A single fixed direction: S = x / conj(x) is an involution.
        x = entries[0][0]
        return np.array([[x[0] / np.conj(x[0])]]) / abs(x[0] / np.conj(x[0]))
    if dim == 2 and len(entries) == 2 and entries[0][1] is not None:
        # One elliptic pair spanning the block: swap its two coordinates.
        x, y, _ = entries[0]
        B = np.column_stack([x, y])
        inv = np.linalg.inv(B)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        return B @ swap @ np.conj(inv)
    raise NumericalDegeneracy("cannot isolate an involution in an irreducible block")


def conjugation_from_eigendata(data, cfg: Tolerances = DEFAULT_TOLERANCES) -> Conjugation:
    """Solve for the conjugation respecting the given eigendata.

    Hyperbolic directions must be fixed projectively, elliptic pairs
    swapped.  Raises NoConjugation when the system is inconsistent (or
    only quaternionic) and UnderdeterminedConjugation, carrying one
    witness, when infinitely many projective real forms qualify.
    """
    data = list(data)
    k = data[0].direction.dim
    for d in data:
        if d.partner is not None and proj_dist(d.direction, d.partner) < cfg.sep_tol:
            raise NoConjugation("elliptic pair members are projectively equal; nothing can swap them")
    coord_data = [
        (d.direction.coords, d.partner.coords if d.partner is not None else None) for d in data
    ]
    S, d_free = _solve_in_coords(coord_data, k, cfg)
    S = _normalize_involution(S, cfg.rank_tol)
    if S is None:
        raise NoConjugation("assembled solution is not an involution")
    conj = Conjugation(S=S)
    if not _check_solution(S, data, cfg):
        raise NoConjugation("solution fails to reproduce the eigendata")
    if d_free > 1:
        raise UnderdeterminedConjugation(
            f"solution space has {2 * d_free - 2} real dimensions beyond gauge",
            witness=conj,
            free_real_dims=2 * d_free - 2,
        )
    return conj


def conjugation_witness(data, cfg: Tolerances = DEFAULT_TOLERANCES):
    """Like conjugation_from_eigendata but always returns a member.

    Returns (Conjugation, Multiplicity-one-or-infinite flag as bool
    ``unique``).  Raises NoConjugation when no real form qualifies.
    """
    try:
        return conjugation_from_eigendata(data, cfg), True
    except UnderdeterminedConjugation as exc:
        return exc.witness, False


def rform_multiplicity(data, cfg: Tolerances = DEFAULT_TOLERANCES) -> Multiplicity:
    """How many projective real forms respect the eigendata: 0, 1, oo."""
    try:
        _, unique = conjugation_witness(data, cfg)
    except NoConjugation:
        return Multiplicity.ZERO
    return Multiplicity.ONE if unique else Multiplicity.INFINITE


def rform_from_conjugation(c: Conjugation, cfg: Tolerances = DEFAULT_TOLERANCES) -> RForm:
    """A basis of fixed vectors of the conjugation.

    Candidates w + S conj(w) and i(w - S conj(w)) over the standard
    basis are all fixed; a greedy independent subset of size k always
    exists for a valid involution.
    """
    k = c.dim
    candidates = []
    for j in range(k):
        e = np.zeros(k, dtype=complex)
        e[j] = 1.0
        for u in (e + c.apply(e), 1j * (e - c.apply(e))):
            n = np.linalg.norm(u)
            if n > cfg.deg_tol:
                candidates.append(u / n)
    cols = []
    for u in candidates:
        trial = np.column_stack(cols + [u]) if cols else u[:, None]
        s = np.linalg.svd(trial, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            cols.append(u)
        if len(cols) == k:
            break
    if len(cols) < k:
        raise NumericalDegeneracy("could not assemble an independent fixed basis")
    return RForm(basis=np.column_stack(cols), conj=c)


def preserves(m: np.ndarray, c: Conjugation, tol: float = 1e-7) -> bool:
    """Does the transformation commute with the conjugation projectively?

    Tests S @ conj(M) @ conj(S) against M up to a complex scalar; with
    the involution normalization conj(S) = S^{-1} this is the
    commutation criterion for preserving the associated real form.
    """
    n = c.S @ np.conj(m) @ np.conj(c.S)
    return matrices_proportional(m, n, tol)


def realifier(c: Conjugation, cfg: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Change of basis whose columns span the real form of ``c``.

    For every M preserving the conjugation, gamma^{-1} @ M @ gamma has a
    projectively real representative.
    """
    return rform_from_conjugation(c, cfg).basis
