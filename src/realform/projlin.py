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

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateFrame, NonDiagonalizable, RepeatedEigenvalues, SingularMatrix

MIN_DIM = 2
MAX_DIM = 8


def check_matrix(m, cfg: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Validate and return a square invertible complex matrix.

    Accepts anything ``np.asarray`` does, including nested [re, im]
    pairs already converted by the caller.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    k = a.shape[0]
    if not (MIN_DIM <= k <= MAX_DIM):
        raise ValueError(f"dimension {k} outside supported range [{MIN_DIM}, {MAX_DIM}]")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= cfg.deg_tol * s[0]:
        raise SingularMatrix("matrix is singular within deg_tol")
    return a


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


def modulus(z) -> np.ndarray:
    """Elementwise |z|, bit for bit Python's abs (np.abs may round differently)."""
    return np.hypot(z.real, z.imag)


@functools.lru_cache(maxsize=None)
def upper_pairs(k: int) -> tuple:
    """Index arrays (i, j) of the pairs i < j < k in row-major order; shared, so read-only."""
    pairs = np.triu_indices(k, 1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def require_separated(lam: np.ndarray, sep_tol: float, message: str) -> None:
    """Raise RepeatedEigenvalues(message.format(lam_i, lam_j)) for the first pair
    i < j (row-major) with |lam_i - lam_j| / max(|lam_i|, |lam_j|) <= sep_tol."""
    i, j = upper_pairs(lam.size)
    mag = modulus(lam)
    close = (modulus(lam[i] - lam[j]) / np.maximum(mag[i], mag[j]) <= sep_tol).tolist()
    if True in close:
        n = close.index(True)
        raise RepeatedEigenvalues(message.format(lam[i[n]], lam[j[n]]))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and matched eigendirections of one transformation.

    ``eigenvalues[j]`` belongs to ``directions[j]``; the order is the
    deterministic (argument, magnitude) sort of the eigenvalues.
    """

    eigenvalues: np.ndarray
    directions: tuple
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def eig(m, cfg: Tolerances = DEFAULT_TOLERANCES) -> EigenSystem:
    """Eigendecomposition with deterministic ordering and validity gates.

    Raises
    ------
    RepeatedEigenvalues
        if two eigenvalues are projectively closer than ``sep_tol``.
    NonDiagonalizable
        if an eigenvector residual exceeds ``eig_tol``.
    """
    a = check_matrix(m, cfg)
    lam, vecs = np.linalg.eig(a)
    order = np.lexsort((np.abs(lam), np.angle(lam)))
    lam = lam[order]
    vecs = vecs[:, order]

    require_separated(lam, cfg.sep_tol, "eigenvalues {:.6g} and {:.6g} are projectively equal")
    # the residual is scale-free, so LAPACK's columns stand in for the points
    scale = max(1.0, float(np.abs(a).max()))
    res = (np.linalg.norm(a @ vecs - vecs * lam, axis=0)
           / (np.linalg.norm(vecs, axis=0) * scale)).tolist()
    for j, r in enumerate(res):
        if r >= cfg.eig_tol:
            raise NonDiagonalizable(f"eigenvector residual {r:.3g} for eigenvalue {lam[j]:.6g}")
    dirs = tuple(ProjPoint(v, cfg) for v in vecs.T)
    return EigenSystem(eigenvalues=lam, directions=dirs, matrix=a)


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


def frame_from_points(points, cfg: Tolerances = DEFAULT_TOLERANCES) -> ProjFrame:
    """Build the projective frame through k+1 points.

    Solves sum(lambda_j * v_j) = v_{k+1} and returns basis columns
    b_j = lambda_j * v_j.
    """
    pts = tuple(points)
    k = pts[0].dim
    if len(pts) != k + 1:
        raise ValueError(f"need {k + 1} points for a frame in dimension {k}")
    stack = np.column_stack([p.coords for p in pts])
    for drop in range(k + 1):
        sub = np.delete(stack, drop, axis=1)
        if abs(np.linalg.det(sub)) <= cfg.deg_tol:
            raise DegenerateFrame(f"{k} of the points lie in a hyperplane (omitting index {drop})")
    lam = np.linalg.solve(stack[:, :k], stack[:, k])
    basis = stack[:, :k] * lam
    return ProjFrame(points=pts, basis=basis)


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
