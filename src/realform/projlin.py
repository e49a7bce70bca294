"""Complex dense linear algebra and projective primitives for small k.

Matrices are plain complex ``numpy`` arrays validated by
:func:`check_matrix`; points of CP^{k-1} are :class:`ProjPoint` values
holding a canonical representative (largest-magnitude coordinate scaled
to 1, lowest index breaking ties).  Exact vector representatives, where
a construction fixes them (frame bases, flag spans), are carried as raw
arrays, never as projective classes.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateFrame, NonDiagonalizable, RepeatedEigenvalues, SingularMatrix

MIN_DIM = 2
MAX_DIM = 8
_SINGULAR = "matrix is singular within deg_tol"
_BAND = 2.0 ** 256


def in_band(a: np.ndarray) -> np.ndarray:
    """The stack a (n, k, k) with each matrix whose largest entry lies
    outside [2^-256, 2^256] scaled exactly by a power of two, its largest
    entry then in [1/2, 1); a stack already inside is returned as it is.
    The question is projective, so the scale changes no answer."""
    top = np.abs(np.ascontiguousarray(a).view(float)).max(axis=(1, 2))
    if 1 / _BAND <= min(top.tolist(), default=1.0) and max(top.tolist(), default=1.0) <= _BAND:
        return a
    e = np.frexp(top)[1]
    shift = np.where((top < 1 / _BAND) | (top > _BAND), -e, 0)[:, None, None]
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, shift), np.ldexp(a.imag, shift)
    return out


def as_stack(ms) -> np.ndarray:
    """The collection ms as one complex (n, k, k) array: the shape rule
    every collection meets before any matrix of it is decomposed.  An
    empty collection, or one whose matrices differ in shape, raises
    ValueError."""
    mats = [np.asarray(m, dtype=complex) for m in ms]
    if len({m.shape for m in mats}) != 1:
        raise ValueError("matrices have mismatched dimensions" if mats else "empty collection")
    return np.array(mats)


def _input_gate(a: np.ndarray, cfg: Tolerances):
    """Gate a stack a (n, ...) of matrices in one pass.

    Returns the leading matrices that are square, k x k with MIN_DIM <=
    k <= MAX_DIM and finite, brought ``in_band``; a mask of those
    singular within ``deg_tol`` (one SVD of the stack); and the error of
    the matrix after them (None when there is none).  The mask is None
    when a is no stack of supported k x k matrices.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        return None, None, ValueError(f"expected a square matrix, got shape {a.shape[1:]}")
    k = a.shape[1]
    if not (MIN_DIM <= k <= MAX_DIM):
        return None, None, ValueError(f"dimension {k} outside supported range [{MIN_DIM}, {MAX_DIM}]")
    finite = np.isfinite(a).all(axis=(1, 2)).tolist()
    n = finite.index(False) if False in finite else len(finite)
    a = in_band(a[:n])
    s = np.linalg.svd(a, compute_uv=False)
    late = ValueError("matrix has non-finite entries") if n < len(finite) else None
    return a, s[:, -1] <= cfg.deg_tol * s[:, 0], late


def check_matrix(m, cfg: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Validate a square invertible complex matrix and return it brought
    ``in_band``.

    Accepts anything ``np.asarray`` does, including nested [re, im]
    pairs already converted by the caller.
    """
    a, singular, exc = _input_gate(np.asarray(m, dtype=complex)[None], cfg)
    if singular is not None and True in singular.tolist():
        exc = SingularMatrix(_SINGULAR)
    if exc is not None:
        raise exc
    return a[0]


class ProjPoint:
    """A point of CP^{k-1}: a nonzero complex vector up to complex scale.

    The stored representative is canonical: the largest-magnitude
    coordinate equals 1 exactly (lowest index on ties), so two equal
    points have entrywise-close representatives.
    """

    __slots__ = ("coords",)

    def __init__(self, coords, cfg: Tolerances = DEFAULT_TOLERANCES):
        v = np.asarray(coords, dtype=complex).ravel()
        if v.size < MIN_DIM:
            raise ValueError("projective points need at least 2 coordinates")
        if not np.isfinite(v).all():
            raise ValueError("non-finite coordinates")
        mags = np.abs(v)
        idx = int(mags.argmax())
        if mags[idx] <= cfg.deg_tol:
            raise ValueError("zero vector does not define a projective point")
        self.coords = v / v[idx]

    @classmethod
    def canonical(cls, coords: np.ndarray) -> "ProjPoint":
        """The point whose representative ``coords`` is already canonical."""
        p = cls.__new__(cls)
        p.coords = coords
        return p

    @property
    def dim(self) -> int:
        return self.coords.size

    def __repr__(self):
        return f"ProjPoint({np.array2string(self.coords, precision=6)})"


def proj_eq(p: ProjPoint, q: ProjPoint, tol: float) -> bool:
    """Projective equality: canonical representatives within ``tol`` in max-norm."""
    if p.dim != q.dim:
        return False
    return bool(np.max(np.abs(p.coords - q.coords)) < tol)


def proj_dist(p: ProjPoint, q: ProjPoint) -> float:
    """Sine of the angle between the lines; 0 iff projectively equal.

    Computed as the norm of the projection residual, which is stable
    both near coincidence and when coordinate magnitudes tie.
    """
    return float(proj_dists(p.coords[None], q.coords[None])[0])


def proj_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """proj_dist between the lines of the rows of a and b, row by row:
    the residual of b off a, over |b|, in one pass without normalizing."""
    ac = a.conj()
    r = b - a * (np.einsum("ij,ij->i", ac, b) / np.einsum("ij,ij->i", ac, a).real)[:, None]
    return np.sqrt(np.einsum("ij,ij->i", r.conj(), r).real / np.einsum("ij,ij->i", b.conj(), b).real)


def norms(x: np.ndarray, axis: int) -> np.ndarray:
    """The 2-norms of x along one axis: ``np.linalg.norm(x, axis=axis)``
    bit for bit, without its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def modulus(z) -> np.ndarray:
    """Elementwise |z|, bit for bit Python's abs (np.abs may round differently).

    For every value that reaches a record or decides a cut the record
    shows; a distance that only screens, with room for rounding in its
    bound, may take complex np.abs instead."""
    return np.hypot(z.real, z.imag)


@functools.lru_cache(maxsize=None)
def upper_pairs(k: int) -> tuple:
    """Index arrays (i, j) of the pairs i < j < k in row-major order; shared, so read-only."""
    pairs = np.triu_indices(k, 1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def _close_pairs(lam: np.ndarray, sep_tol: float) -> np.ndarray:
    """close[..., p] for each spectrum lam[...] of length k: its p-th pair
    (i, j) of ``upper_pairs(k)`` has |lam_i - lam_j| / max(|lam_i|, |lam_j|)
    at most sep_tol.  Two zero eigenvalues read 0/0, not close (the matrix
    is singular anyway); callers ignore that invalid division."""
    i, j = upper_pairs(lam.shape[-1])
    t = lam.T   # pairs index the leading axis, a fast gather for one spectrum
    mag = modulus(t)
    return (modulus(t[i] - t[j]) / np.maximum(mag[i], mag[j]) <= sep_tol).T


def _repeated(lam: np.ndarray, close: np.ndarray, message: str) -> RepeatedEigenvalues:
    """RepeatedEigenvalues(message.format(lam_i, lam_j)) for the first close
    pair i < j (row-major) of one spectrum."""
    i, j = upper_pairs(lam.size)
    n = close.tolist().index(True)
    return RepeatedEigenvalues(message.format(lam[i[n]], lam[j[n]]))


def require_separated(lam: np.ndarray, sep_tol: float, message: str) -> None:
    """Raise ``_repeated`` for the first pair of lam closer than sep_tol."""
    with np.errstate(invalid="ignore"):
        close = _close_pairs(lam, sep_tol)
    if close.any():
        raise _repeated(lam, close, message)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and matched eigendirections of one transformation.

    ``eigenvalues[j]`` belongs to ``directions[j]``; the order is the
    deterministic (argument, magnitude) sort of the eigenvalues.
    """

    eigenvalues: np.ndarray
    directions: tuple
    matrix: np.ndarray

    @classmethod
    def from_rows(cls, eigenvalues, rows, matrix) -> "EigenSystem":
        """The EigenSystem whose directions are the canonical rows ``rows``."""
        return cls(eigenvalues, tuple(map(ProjPoint.canonical, rows)), matrix)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


class EigenStack(NamedTuple):
    """The eigendata of a stack of matrices, one array per field: row g
    of each belongs to matrix g."""

    matrices: np.ndarray     # (n, k, k), each brought ``in_band``
    eigenvalues: np.ndarray  # (n, k), each row in the (argument, magnitude) order
    rows: np.ndarray         # (n, k, k): rows[g, j] the canonical direction of eigenvalues[g, j]


def eig(m, cfg: Tolerances = DEFAULT_TOLERANCES) -> EigenSystem:
    """Eigendecomposition with deterministic ordering and validity gates:
    the one-matrix case of :func:`eigensystems`.

    Raises
    ------
    RepeatedEigenvalues
        if two eigenvalues are projectively closer than ``sep_tol``.
    NonDiagonalizable
        if an eigenvector residual exceeds ``eig_tol``, or an
        eigenvector is not finite or has no entry above ``deg_tol``.
    """
    stack, exc = eigensystems(np.asarray(m, dtype=complex)[None], cfg)
    if exc is not None:
        raise exc
    return EigenSystem.from_rows(stack.eigenvalues[0], stack.rows[0], stack.matrices[0])


def eigensystems(a: np.ndarray, cfg: Tolerances = DEFAULT_TOLERANCES):
    """Eigendecompose a stack a (n, k, k) of matrices in one pass.

    Returns the EigenStack of the matrices before the first one that
    fails a gate, and that matrix's error (None when every matrix
    passes); the EigenStack is None when a is no stack of supported
    k x k matrices.  Each matrix meets the gates in one order: shape and
    range, finiteness, singularity, eigenvalue separation, eigenvector
    residual and the checks of ``ProjPoint`` on each direction, which
    here raise NonDiagonalizable.  One SVD of the stack gates
    singularity and one ``np.linalg.eig`` decomposes it; the matrices
    after the first non-finite one are not decomposed.  No ProjPoint is
    built here: ``EigenSystem.from_rows`` builds a matrix's on demand.
    """
    a, singular, late = _input_gate(a, cfg)
    if singular is None:   # no stack of k x k matrices
        return None, late
    n, k = a.shape[:2]
    lam, vecs = np.linalg.eig(a)
    order = np.lexsort((np.abs(lam), np.angle(lam)), axis=-1)
    g = np.arange(n)[:, None]
    lam = lam[g, order]
    rows = vecs.transpose(0, 2, 1)[g, order]   # rows[g, j]: eigenvector of lam[g, j]
    vecs = rows.transpose(0, 2, 1)

    # the residual is scale-free, so LAPACK's columns stand in for the points
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    res = norms(a @ vecs - vecs * lam[:, None, :], 1) / (norms(vecs, 1) * scale[:, None])
    # the directions as ProjPoint makes them: largest-magnitude coordinate 1
    mags = np.abs(rows)
    top = mags.max(axis=2)
    with np.errstate(invalid="ignore"):   # 0/0 in the separation test; a non-finite direction
        close = _close_pairs(lam, cfg.sep_tol)   # is refused below
        coords = rows / rows[g, np.arange(k), mags.argmax(axis=2)][..., None]
    finite = np.isfinite(top)
    bad_dir = ~(finite & (top > cfg.deg_tol))

    bad = np.concatenate((singular[:, None], close, res >= cfg.eig_tol, bad_dir), axis=1).any(axis=1).tolist()
    f = bad.index(True) if True in bad else n
    stack = EigenStack(a[:f], lam[:f], coords[:f])
    if f == n:
        return stack, late
    if singular[f]:
        return stack, SingularMatrix(_SINGULAR)
    if close[f].any():
        return stack, _repeated(lam[f], close[f],
                                "eigenvalues {:.6g} and {:.6g} are projectively equal")
    j = (res[f] >= cfg.eig_tol).tolist()
    if True in j:
        j = j.index(True)
        return stack, NonDiagonalizable(
            f"eigenvector residual {res[f, j]:.3g} for eigenvalue {lam[f, j]:.6g}")
    j = bad_dir[f].tolist().index(True)
    return stack, NonDiagonalizable("zero vector does not define a projective point"
                                    if finite[f, j] else "non-finite coordinates")


@dataclass(frozen=True)
class ProjFrame:
    """k+1 points with no k in a hyperplane, plus an associated basis.

    ``basis`` has the exact representative vectors as columns; their sum
    is projectively the last frame point.  The basis is determined by
    the frame up to one common scalar; we pin it by using canonical
    point representatives in the solve.
    """

    points: tuple
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def frame_basis(stack: np.ndarray, cfg: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The basis of the projective frame through the k+1 columns v_j of
    ``stack`` (k x (k+1)): solves sum(lambda_j * v_j) = v_{k+1} and returns
    the columns b_j = lambda_j * v_j.  Raises DegenerateFrame when k of the
    points lie in a hyperplane, a determinant of k columns at most deg_tol
    (the first such column left out is named)."""
    k = stack.shape[0]
    keep = np.array([[j for j in range(k + 1) if j != drop] for drop in range(k + 1)])
    flat = (np.abs(np.linalg.det(stack[:, keep].transpose(1, 0, 2))) <= cfg.deg_tol).tolist()
    if True in flat:
        raise DegenerateFrame(f"{k} of the points lie in a hyperplane (omitting index {flat.index(True)})")
    lam = np.linalg.solve(stack[:, :k], stack[:, k])
    return stack[:, :k] * lam


def frame_from_points(points, cfg: Tolerances = DEFAULT_TOLERANCES) -> ProjFrame:
    """Build the projective frame through k+1 points (``frame_basis``)."""
    pts = tuple(points)
    k = pts[0].dim
    if len(pts) != k + 1:
        raise ValueError(f"need {k + 1} points for a frame in dimension {k}")
    return ProjFrame(points=pts, basis=frame_basis(np.column_stack([p.coords for p in pts]), cfg))


def canonical_matrix(g: np.ndarray) -> np.ndarray:
    """Scale a nonzero matrix so its largest-magnitude entry is 1."""
    flat = np.abs(g).ravel()
    idx = int(np.argmax(flat))
    return g / g.ravel()[idx]


def homography(src: ProjFrame, dst: ProjFrame) -> np.ndarray:
    """The projective map sending each src frame point to the dst one.

    Returned as the canonical matrix representative of dst_basis @
    src_basis^{-1}; it carries basis vectors to basis vectors exactly,
    hence frame points to frame points projectively.
    """
    if src.dim != dst.dim:
        raise ValueError("frames live in different dimensions")
    g = dst.basis @ np.linalg.inv(src.basis)
    return canonical_matrix(g)


def matrices_proportional(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """True when b is a complex scalar multiple of a within ``tol`` (relative)."""
    denom = np.vdot(a, a)
    if abs(denom) == 0:
        return False
    z = np.vdot(a, b) / denom
    return bool(np.linalg.norm(b - z * a) <= tol * max(np.linalg.norm(b), 1e-300))
